"""Flat key=value experiment configuration with command-line overrides.

A config file holds one `key=value` per line (# comments allowed). The exact
resolved configuration is embedded as a comment header in every report, so a
run can be reproduced by copying those lines back into a config file.

KEYS is the one list of config keys. It maps each key to the one field it
sets and the kind of its value, and apply_setting, config_lines and
validate's finiteness check all read it, so a key is declared once.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .mobility import PelotonParams, SpeedProfile, read_utf8
from .protocol import DEFAULT_CAP, payload_bits
from .radio import RadioParams

SCENARIOS = ("matrix", "routing", "dct-demo", "simulate")
# most elements in an array that a size key makes (validate lists them), so
# a larger size exits 2 up front instead of failing deep in numpy
MAX_ELEMENTS = 2**31
GRAPH_MODES = ("reconstruction", "truth")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "routing"
    peloton: PelotonParams = PelotonParams()
    trace_path: str | None = None
    range_m: float = RadioParams.range_m
    loss_p: float = RadioParams.loss_p
    k_measurements: int = 60
    k_neighbors: int = 10
    cap_m: int = DEFAULT_CAP
    graph_mode: str = "reconstruction"
    steps: int = 0  # 0 = all available velocity frames
    check_aggregates: bool = False
    dct_n: int = 100
    dct_sparsity: int = 10
    dct_losses: int = 10
    dct_k: int = 40
    seed: int = 0
    out_dir: str = "."

    def radio(self) -> RadioParams:
        return RadioParams(range_m=self.range_m, loss_p=self.loss_p, seed=self.seed)

    def race(self) -> PelotonParams:
        """The race a run simulates, seeded by the config's seed: its first
        steps + 1 frames, as step i reads frames i and i+1, and the simulator
        draws frame by frame, so they are exactly the start of the whole race
        that `simulate` writes."""
        peloton = replace(self.peloton, seed=self.seed)
        if self.steps > 0 and self.scenario != "simulate":
            peloton = replace(peloton, duration=min(peloton.duration, (self.steps + 1) * peloton.dt))
        return peloton

    def output(self, name: str) -> str:
        """`<out>/<name>`, making out a directory. Raises ConfigError naming out
        when it cannot be one, and naming `<out>/<name>` when that exists and
        is not a regular file or cannot be written, so the run stops before
        its first step."""
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"out={self.out_dir} cannot be made a directory: {exc.strerror}") from exc
        path = os.path.join(self.out_dir, name)
        exists = os.path.exists(path)
        if exists and not os.path.isfile(path):
            raise ConfigError(f"{path} exists and is not a regular file")
        # an existing file is rewritten; a new one is made in out
        if not (os.access(path, os.W_OK) if exists else os.access(self.out_dir, os.W_OK | os.X_OK)):
            raise ConfigError(f"{path} cannot be written")
        return path

    def _at_least(self, lowest: int, *keys: str) -> None:
        for key in keys:
            value = getattr(self, key)
            if value < lowest:
                raise ConfigError(f"{key}={value} must be >= {lowest}")

    def validate(self) -> None:
        for key, (owner, field, kind) in KEYS.items():
            value = _value(self, owner, field)
            if kind in (_FLOAT, _PROFILE) and not np.isfinite(value).all():
                raise ConfigError(f"{key}={kind[1](value)} must be finite")
        if not self.out_dir:
            raise ConfigError("out must name a directory, got an empty value")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.graph_mode not in GRAPH_MODES:
            raise ConfigError(f"graph_mode={self.graph_mode} must be one of {GRAPH_MODES}")
        self.radio()  # RadioParams checks range_m and loss_p
        self._at_least(1, "k_measurements", "k_neighbors")
        payload_bits(self.peloton.n, self.cap_m)  # checks cap_m
        self._at_least(1, "dct_n", "dct_sparsity", "dct_k")
        self._at_least(0, "dct_losses")
        if self.dct_sparsity > self.dct_n:
            raise ConfigError(f"dct_sparsity={self.dct_sparsity} must not exceed dct_n={self.dct_n}")
        if self.dct_losses >= self.dct_n:
            raise ConfigError(f"dct_losses={self.dct_losses} must be smaller than dct_n={self.dct_n}")
        self._at_least(0, "steps", "seed")
        self.peloton.validate()
        n = self.peloton.n
        # each array's own size key first: n x n before k_measurements x n
        sizes = (("n", n, n), ("k_measurements", self.k_measurements, n),
                 ("dct_n", self.dct_n, self.dct_n), ("dct_k", self.dct_k, self.dct_n))
        for key, rows, cols in sizes:
            if rows * cols > MAX_ELEMENTS:
                raise ConfigError(f"{key}={rows} makes a {rows}x{cols} array; the limit is {MAX_ELEMENTS} elements")
        # an ingested trace's rider count is checked once it is loaded
        simulated = self.scenario in ("matrix", "routing") and not self.trace_path
        if simulated or self.scenario == "simulate":
            frames = self.race().duration / self.peloton.dt  # a float: it may overflow
            if frames * n * 2 > MAX_ELEMENTS:
                raise ConfigError(
                    f"duration_s={self.peloton.duration:g} and dt_s={self.peloton.dt:g} make "
                    f"{frames:.3g} frames of {n}x2 positions; the limit is {MAX_ELEMENTS} elements"
                )
        if simulated and self.k_neighbors >= self.peloton.n:
            raise ConfigError(f"k_neighbors={self.k_neighbors} must be smaller than n={self.peloton.n}")


def _parse_profile(text: str) -> SpeedProfile:
    """`t:v;t:v` entries; `,` is accepted as a separator too."""
    pairs = []
    for chunk in text.replace(",", ";").split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            t, v = chunk.split(":")
            pairs.append((float(t), float(v)))
        except ValueError as exc:
            raise ConfigError(f"bad speed profile entry {chunk!r}; expected t:v") from exc
    if not pairs:
        raise ConfigError("speed profile is empty")
    return tuple(sorted(pairs))


def _format_profile(profile: SpeedProfile) -> str:
    return ";".join(f"{_format_float(t)}:{_format_float(v)}" for t, v in profile)


def _format_float(x: float) -> str:
    """`:g` when that parses back to x, else repr, which always does."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# A kind is a (parse, format) pair: format writes a value as text that parse
# reads back as the same value.
_STR = (str, str)
_INT = (int, str)
_FLOAT = (float, _format_float)
_BOOL = (_parse_bool, lambda value: "true" if value else "false")
_PROFILE = (_parse_profile, _format_profile)
_PATH = (lambda text: text or None, str)  # an empty path unsets it

# config key -> (owner, field, kind), in the order config_lines prints them;
# the owner is ExperimentConfig or its PelotonParams
KEYS = {
    "scenario": (ExperimentConfig, "scenario", _STR),
    "seed": (ExperimentConfig, "seed", _INT),
    "trace": (ExperimentConfig, "trace_path", _PATH),
    "n": (PelotonParams, "n", _INT),
    "duration_s": (PelotonParams, "duration", _FLOAT),
    "dt_s": (PelotonParams, "dt", _FLOAT),
    "base_speed_profile": (PelotonParams, "base_speed_profile", _PROFILE),
    "separation_gain": (PelotonParams, "separation_gain", _FLOAT),
    "alignment_gain": (PelotonParams, "alignment_gain", _FLOAT),
    "cohesion_gain": (PelotonParams, "cohesion_gain", _FLOAT),
    "neighbor_radius_m": (PelotonParams, "neighbor_radius", _FLOAT),
    "breakaway_rate": (PelotonParams, "breakaway_rate", _FLOAT),
    "breakaway_boost_mps": (PelotonParams, "breakaway_boost", _FLOAT),
    "breakaway_duration_s": (PelotonParams, "breakaway_duration", _FLOAT),
    "speed_jitter_mps": (PelotonParams, "speed_jitter", _FLOAT),
    "init_length_m": (PelotonParams, "init_length", _FLOAT),
    "range_m": (ExperimentConfig, "range_m", _FLOAT),
    "loss_p": (ExperimentConfig, "loss_p", _FLOAT),
    "k_measurements": (ExperimentConfig, "k_measurements", _INT),
    "k_neighbors": (ExperimentConfig, "k_neighbors", _INT),
    "cap_m": (ExperimentConfig, "cap_m", _INT),
    "graph_mode": (ExperimentConfig, "graph_mode", _STR),
    "steps": (ExperimentConfig, "steps", _INT),
    "check_aggregates": (ExperimentConfig, "check_aggregates", _BOOL),
    "dct_n": (ExperimentConfig, "dct_n", _INT),
    "dct_sparsity": (ExperimentConfig, "dct_sparsity", _INT),
    "dct_losses": (ExperimentConfig, "dct_losses", _INT),
    "dct_k": (ExperimentConfig, "dct_k", _INT),
    "out": (ExperimentConfig, "out_dir", _STR),
}


def _value(cfg: ExperimentConfig, owner: type, field: str):
    return getattr(cfg.peloton if owner is PelotonParams else cfg, field)


def apply_setting(cfg: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    if key not in KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    owner, field, (parse, _) = KEYS[key]
    try:
        parsed = parse(value)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    if owner is PelotonParams:
        return replace(cfg, peloton=replace(cfg.peloton, **{field: parsed}))
    return replace(cfg, **{field: parsed})


def load_config(path: str | None = None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Build a config from an optional file plus `key=value` override strings."""
    cfg = ExperimentConfig()
    entries: list[tuple[str, str]] = []
    if path is not None:
        text = io.StringIO(read_utf8(path, ConfigError), newline=None)
        for lineno, raw in enumerate(text, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            entries.append((key.strip(), value.strip()))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        entries.append((key.strip(), value.strip()))
    for key, value in entries:
        cfg = apply_setting(cfg, key, value)
    cfg.validate()
    return cfg


def config_lines(cfg: ExperimentConfig) -> list[str]:
    """Resolved key=value lines in KEYS order; feeding them back reproduces
    the run. An unset trace is left out, and so is out, which only says where
    the run writes."""
    lines = []
    for key, (owner, field, (_, format_)) in KEYS.items():
        value = _value(cfg, owner, field)
        if key == "out" or (key == "trace" and not value):
            continue
        lines.append(f"{key}={format_(value)}")
    return lines
