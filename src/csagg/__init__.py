"""Compressive data aggregation for mobile sensor networks in bike races."""
