"""Flat key=value experiment configuration with command-line overrides.

A config file holds one `key=value` per line (# comments allowed). The exact
resolved configuration is embedded as a comment header in every report, so a
run can be reproduced by copying those lines back into a config file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .mobility import PelotonParams, SpeedProfile
from .radio import RadioParams

SCENARIOS = ("matrix", "routing", "dct-demo", "simulate")
GRAPH_MODES = ("reconstruction", "truth")
# config key -> the PelotonParams float field it sets
_PELOTON_FLOATS = {
    "duration_s": "duration",
    "dt_s": "dt",
    "separation_gain": "separation_gain",
    "alignment_gain": "alignment_gain",
    "cohesion_gain": "cohesion_gain",
    "neighbor_radius_m": "neighbor_radius",
    "breakaway_rate": "breakaway_rate",
    "breakaway_boost_mps": "breakaway_boost",
    "breakaway_duration_s": "breakaway_duration",
    "speed_jitter_mps": "speed_jitter",
    "init_length_m": "init_length",
}


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = "routing"
    peloton: PelotonParams = PelotonParams()
    trace_path: str | None = None
    range_m: float = 50.0
    loss_p: float = 0.0
    k_measurements: int = 60
    k_neighbors: int = 10
    cap_m: int = 32
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

    def validate(self) -> None:
        numbers = {key: getattr(self.peloton, field) for key, field in _PELOTON_FLOATS.items()}
        numbers.update(range_m=self.range_m, loss_p=self.loss_p)
        for key, value in numbers.items():
            if not math.isfinite(value):
                raise ConfigError(f"{key}={value} must be a finite number")
        if not all(math.isfinite(x) for entry in self.peloton.base_speed_profile for x in entry):
            raise ConfigError(
                f"base_speed_profile={_format_profile(self.peloton.base_speed_profile)} "
                "must hold finite numbers"
            )
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        if self.graph_mode not in GRAPH_MODES:
            raise ConfigError(f"graph_mode must be one of {GRAPH_MODES}")
        if not 0.0 <= self.loss_p <= 1.0:
            raise ConfigError("loss_p must be in [0, 1]")
        if self.range_m <= 0:
            raise ConfigError("range_m must be positive")
        if self.k_measurements < 1 or self.k_neighbors < 1:
            raise ConfigError("k_measurements and k_neighbors must be >= 1")
        if self.cap_m < 2:
            raise ConfigError("cap_m must be >= 2")
        if min(self.dct_n, self.dct_sparsity, self.dct_k) < 1 or self.dct_losses < 0:
            raise ConfigError("dct-demo sizes must be positive (losses >= 0)")
        if self.dct_sparsity > self.dct_n:
            raise ConfigError(f"dct_sparsity={self.dct_sparsity} must not exceed dct_n={self.dct_n}")
        if self.dct_losses >= self.dct_n:
            raise ConfigError(f"dct_losses={self.dct_losses} must be smaller than dct_n={self.dct_n}")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")
        self.peloton.validate()
        # an ingested trace's rider count is checked once it is loaded
        simulated = self.scenario in ("matrix", "routing") and not self.trace_path
        if (simulated or self.scenario == "simulate") and self.seed != self.peloton.seed:
            raise ConfigError(
                f"seed={self.seed} differs from peloton.seed={self.peloton.seed}; "
                "the report header's one seed= line would simulate another race"
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


def apply_setting(cfg: ExperimentConfig, key: str, value: str) -> ExperimentConfig:
    p = cfg.peloton
    try:
        match key:
            case "scenario":
                return replace(cfg, scenario=value)
            case "n":
                return replace(cfg, peloton=replace(p, n=int(value)))
            case "base_speed_profile":
                return replace(cfg, peloton=replace(p, base_speed_profile=_parse_profile(value)))
            case _ if key in _PELOTON_FLOATS:
                return replace(cfg, peloton=replace(p, **{_PELOTON_FLOATS[key]: float(value)}))
            case "trace":
                return replace(cfg, trace_path=value or None)
            case "range_m":
                return replace(cfg, range_m=float(value))
            case "loss_p":
                return replace(cfg, loss_p=float(value))
            case "k_measurements":
                return replace(cfg, k_measurements=int(value))
            case "k_neighbors":
                return replace(cfg, k_neighbors=int(value))
            case "cap_m":
                return replace(cfg, cap_m=int(value))
            case "graph_mode":
                return replace(cfg, graph_mode=value)
            case "steps":
                return replace(cfg, steps=int(value))
            case "check_aggregates":
                return replace(cfg, check_aggregates=_parse_bool(value))
            case "dct_n":
                return replace(cfg, dct_n=int(value))
            case "dct_sparsity":
                return replace(cfg, dct_sparsity=int(value))
            case "dct_losses":
                return replace(cfg, dct_losses=int(value))
            case "dct_k":
                return replace(cfg, dct_k=int(value))
            case "seed":
                return replace(
                    cfg, seed=int(value), peloton=replace(p, seed=int(value))
                )
            case "out":
                return replace(cfg, out_dir=value)
            case _:
                raise ConfigError(f"unknown config key {key!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def load_config(
    path: str | None = None,
    overrides: list[str] | None = None,
    base: ExperimentConfig | None = None,
) -> ExperimentConfig:
    """Build a config from an optional file plus `key=value` override strings."""
    cfg = base if base is not None else ExperimentConfig()
    entries: list[tuple[str, str]] = []
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected key=value")
                    key, value = line.split("=", 1)
                    entries.append((key.strip(), value.strip()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
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
    """Resolved key=value lines; feeding them back reproduces the run."""
    p = cfg.peloton
    lines = [
        f"scenario={cfg.scenario}",
        f"seed={cfg.seed}",
        f"n={p.n}",
        f"duration_s={_format_float(p.duration)}",
        f"dt_s={_format_float(p.dt)}",
        f"base_speed_profile={_format_profile(p.base_speed_profile)}",
        f"separation_gain={_format_float(p.separation_gain)}",
        f"alignment_gain={_format_float(p.alignment_gain)}",
        f"cohesion_gain={_format_float(p.cohesion_gain)}",
        f"neighbor_radius_m={_format_float(p.neighbor_radius)}",
        f"breakaway_rate={_format_float(p.breakaway_rate)}",
        f"breakaway_boost_mps={_format_float(p.breakaway_boost)}",
        f"breakaway_duration_s={_format_float(p.breakaway_duration)}",
        f"speed_jitter_mps={_format_float(p.speed_jitter)}",
        f"init_length_m={_format_float(p.init_length)}",
        f"range_m={_format_float(cfg.range_m)}",
        f"loss_p={_format_float(cfg.loss_p)}",
        f"k_measurements={cfg.k_measurements}",
        f"k_neighbors={cfg.k_neighbors}",
        f"cap_m={cfg.cap_m}",
        f"graph_mode={cfg.graph_mode}",
        f"steps={cfg.steps}",
        f"check_aggregates={'true' if cfg.check_aggregates else 'false'}",
        f"dct_n={cfg.dct_n}",
        f"dct_sparsity={cfg.dct_sparsity}",
        f"dct_losses={cfg.dct_losses}",
        f"dct_k={cfg.dct_k}",
    ]
    if cfg.trace_path:
        lines.insert(2, f"trace={cfg.trace_path}")
    return lines
