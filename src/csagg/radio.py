"""Radio connectivity, fixed per timestep, and independent per-link packet loss per round.

in_range_links lists the timestep's directed (sender, receiver) pairs at
distance <= range_m once; hop counts and every round's deliveries read it.

Delivery randomness is counter-based: each directed link draws one uniform
from the splitmix64 chain of (seed, timestep, round, sender, receiver), its
prefix from key_chain as protocol's draws, and is delivered iff the draw is
>= loss_p. This makes runs reproducible, order-independent, and monotone in
loss_p (raising p only removes deliveries).

Node ids: riders are 0..n-1, sinks are n..n+s-1. Sinks never transmit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError
from .graph import RiderPositions


@dataclass(frozen=True)
class RadioParams:
    range_m: float = 50.0
    loss_p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.range_m < math.inf:
            raise ConfigError(f"range_m={self.range_m} must be positive and finite")
        if not 0.0 <= self.loss_p <= 1.0:
            raise ConfigError(f"loss_p={self.loss_p} must be in [0, 1]")


@dataclass(frozen=True)
class Reachability:
    delivered: np.ndarray  # (m, 2) (sender, receiver) pairs, lexicographically sorted


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int | np.ndarray) -> int | np.ndarray:
    """One splitmix64 step on a Python int, or elementwise on a uint64 array
    of at least one dimension (a numpy scalar warns when it wraps)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
    return x ^ x >> 31


def key_chain(*parts: int) -> np.uint64:
    """The splitmix64 chain of the parts, each taken modulo 2**64: each part
    is xored into the key so far (0 at the start) and hashed. It hashes a
    few values per call, so it runs on Python ints: on one-element arrays
    numpy's per-call overhead is most of the cost."""
    key = 0
    for part in parts:
        key = _splitmix64(key ^ part)
    return np.uint64(key)


def link_uniforms(
    seed: int, time: float, round_index: int, senders: np.ndarray, receivers: np.ndarray
) -> np.ndarray:
    """One uniform in [0, 1) per directed link, keyed independently of call order."""
    base = key_chain(seed, int(np.float64(time).view(np.uint64)), round_index)
    z = _splitmix64(base ^ senders.astype(np.uint64) * np.uint64(0x2545F4914F6CDD1D))
    z = _splitmix64(z ^ receivers.astype(np.uint64))
    return (z >> np.uint64(11)) * 2.0**-53


def place_sinks(positions: RiderPositions) -> np.ndarray:
    """Two sinks at the 2nd and 98th percentile of along-road position, lateral 0."""
    s = positions.pos[:, 0]
    back, front = np.percentile(s, [2.0, 98.0])
    return np.array([[back, 0.0], [front, 0.0]])


def in_range_links(positions: RiderPositions, sinks: np.ndarray, range_m: float) -> np.ndarray:
    """Loss-free (sender, receiver) links of one timestep, shape (m, 2), sorted.

    A rider sends to every other rider and every sink at distance <= range_m;
    sinks only receive. Rows are in lexicographic (sender, receiver) order.
    """
    if not 0.0 < range_m < math.inf:
        raise ConfigError(f"range_m={range_m} must be positive and finite")
    pts = np.vstack([positions.pos, np.atleast_2d(np.asarray(sinks, dtype=float))])
    in_range = cdist(positions.pos, pts) <= range_m
    np.fill_diagonal(in_range, False)
    return np.argwhere(in_range)


def compute_reachability(
    links: np.ndarray, time: float, params: RadioParams, round_index: int
) -> Reachability:
    """The links of in_range_links that deliver in one broadcast round."""
    if params.loss_p > 0.0:
        u = link_uniforms(params.seed, time, round_index, links[:, 0], links[:, 1])
        links = links[u >= params.loss_p]
    return Reachability(delivered=links)


def hop_distance_to_sinks(links: np.ndarray, n: int) -> np.ndarray:
    """BFS hop count from each of the n riders to the nearest sink over the
    links of in_range_links. Unreachable riders get inf.

    The search runs out of the sinks one level at a time: the riders first
    reached at level h are the unvisited senders of links into level h - 1,
    found by one pass over the links.
    """
    hops = np.full(n, np.inf)
    senders = links[:, 0]
    # every sink becomes node n, the level-0 frontier
    receivers = np.minimum(links[:, 1], n)
    frontier = np.zeros(n + 1, dtype=bool)
    frontier[n] = True
    level = 0
    while True:
        reached = senders[frontier[receivers]]
        reached = reached[hops[reached] == np.inf]
        if not reached.size:
            return hops
        level += 1
        hops[reached] = level
        frontier[:] = False
        frontier[reached] = True
