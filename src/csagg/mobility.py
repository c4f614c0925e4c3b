"""Synthetic peloton traces and velocity series.

The simulator moves n riders along a 1-D road coordinate s with a bounded
lateral offset d in [-5, 5] m. Each step applies, per rider:

  * relaxation towards the (piecewise-constant) target speed profile,
    plus an additive boost while a breakaway is active;
  * flocking accelerations over neighbors within neighbor_radius:
    separation (repulsion inside 1.5 m), alignment (towards the mean
    neighbor velocity) and cohesion (towards the neighbor centroid),
    with the combined flocking term clamped to +/-2 m/s^2;
  * forward Euler integration with the configured dt.

Breakaways are Poisson-triggered per rider: an additive target-speed boost
for a fixed duration, after which relaxation pulls the rider back to the
group speed.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import IO

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConfigError, CsaggError, DimensionError, TraceFormatError
from .graph import RiderPositions, check_positions

SEPARATION_RADIUS_M = 1.5
FLOCK_ACCEL_CLAMP = 2.0  # m/s^2
SPEED_RELAX_PER_S = 0.5
LATERAL_HALFWIDTH_M = 5.0

SpeedProfile = tuple[tuple[float, float], ...]  # (start_time_s, speed_mps) pairs


# an array field does not compare by value, so traces compare by identity
@dataclass(frozen=True, eq=False)
class RaceTrace:
    """A race as two arrays: frame k is at times[k], with rider positions
    pos[k] (n, 2), pos[k, :, 0] along-road s and pos[k, :, 1] lateral d (m)."""

    dt: float
    times: np.ndarray  # (frames,) s
    pos: np.ndarray  # (frames, n, 2) m

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        pos = np.asarray(self.pos, dtype=float)
        if pos.ndim != 3 or pos.shape[2] != 2 or times.shape != pos.shape[:1] or not times.size:
            raise DimensionError(
                f"a trace is times (frames,) and pos (frames, n, 2) with frames >= 1, "
                f"got {times.shape} and {pos.shape}"
            )
        if not (np.isfinite(times).all() and np.isfinite(pos).all()):
            raise DimensionError("trace times and positions must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pos", pos)

    @property
    def n(self) -> int:
        return self.pos.shape[1]

    def frame(self, k: int) -> RiderPositions:
        """The rider positions of frame k, as graph and radio calls take them."""
        return RiderPositions(time=float(self.times[k]), pos=self.pos[k])


@dataclass(frozen=True)
class PelotonParams:
    n: int = 130
    duration: float = 780.0
    dt: float = 1.0
    base_speed_profile: SpeedProfile = ((0.0, 10.0),)
    separation_gain: float = 1.0
    alignment_gain: float = 0.6
    cohesion_gain: float = 0.02
    neighbor_radius: float = 12.0
    breakaway_rate: float = 0.0005  # events per rider per second
    breakaway_boost: float = 3.0  # m/s
    breakaway_duration: float = 20.0  # s
    speed_jitter: float = 0.3  # m/s initial spread around the profile
    init_length: float = 200.0  # m, initial along-road column length
    seed: int = 0

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name}={value} must be finite")
        if not np.isfinite(self.base_speed_profile).all():
            raise ConfigError(f"base_speed_profile {self.base_speed_profile} must be finite")
        for name in ("n", "dt", "duration", "neighbor_radius", "init_length"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}={getattr(self, name)} must be positive")
        # simulate_race samples int(round(duration / dt)) instants, 2 or more
        # exactly when duration / dt >= 1.5; an overflowing inf ratio passes
        if self.duration / self.dt < 1.5:
            raise ConfigError(f"duration={self.duration} must be >= 1.5 * dt to cover 2 timesteps; dt={self.dt}")
        for name in ("separation_gain", "alignment_gain", "cohesion_gain",
                     "breakaway_rate", "breakaway_duration"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}={getattr(self, name)} must be >= 0")
        if not self.base_speed_profile:
            raise ConfigError("speed profile is empty")
        starts = sorted(start for start, _ in self.base_speed_profile)
        for start, following in zip(starts, starts[1:]):
            if start == following:
                raise ConfigError(f"base_speed_profile {self.base_speed_profile} repeats start time t={start:g}")
        if self.seed < 0:
            raise ConfigError(f"peloton seed={self.seed} must be >= 0")

    def speed_at(self, t: float) -> float:
        speed = self.base_speed_profile[0][1]
        for start, value in self.base_speed_profile:
            if t >= start:
                speed = value
        return speed


def flocking_acceleration(pos: np.ndarray, vel: np.ndarray, params: PelotonParams) -> np.ndarray:
    """Cohesion, alignment and separation of every rider, (n, 2) m/s^2, each a
    weighted sum over its neighbours, together clamped to +/-FLOCK_ACCEL_CLAMP.

    The neighbours come from one k-d tree pair search, so a frame costs
    O(n * degree), not O(n^2)."""
    n = len(pos)
    # separation acts inside SEPARATION_RADIUS_M even when neighbor_radius is
    # smaller. The search radius is padded so that no pair is lost to the
    # tree's own rounding; the masks below select on sqrt(dx*dx + dy*dy), so
    # each neighbour set is exactly `dist <= radius`, boundary included
    reach = max(params.neighbor_radius, SEPARATION_RADIUS_M) * (1.0 + 1e-9)
    a, b = cKDTree(pos).query_pairs(reach, output_type="ndarray").T
    x, y = pos.T
    dx, dy = x[a] - x[b], y[a] - y[b]
    dist = np.sqrt(dx * dx + dy * dy)
    # every per-rider sum is a bincount over the pairs in both directions: a
    # sequential loop, so the race is the same on every CPU
    near = dist <= params.neighbor_radius
    rows = np.concatenate([a[near], b[near]])
    partners = np.concatenate([b[near], a[near]])
    counts = np.bincount(rows, minlength=n)[:, None]
    # cohesion: towards the neighbour centroid, with positions taken from the
    # peloton's centre so that road-scale coordinates (kilometres) do not
    # swamp the sums; alignment: towards the mean neighbour velocity. A rider
    # without neighbours has zero sums and has = 0, so both vanish
    centred = pos - pos.mean(axis=0)
    sums = np.column_stack(
        [np.bincount(rows, col[partners], n) for col in np.hstack([centred, vel]).T]
    )
    mean = sums / np.maximum(counts, 1)
    has = counts > 0
    acc = params.cohesion_gain * (mean[:, :2] - has * centred)
    acc += params.alignment_gain * (mean[:, 2:] - has * vel)
    # separation: repulsion inside SEPARATION_RADIUS_M with weight s on
    # pos_a - pos_b for rider a and on pos_b - pos_a for rider b
    close = dist < SEPARATION_RADIUS_M
    d = dist[close]
    s = (SEPARATION_RADIUS_M - d) / (SEPARATION_RADIUS_M * np.maximum(d, 1e-6))
    pushed = np.concatenate([a[close], b[close]])
    for k, dk in enumerate((dx[close], dy[close])):
        push = s * dk
        acc[:, k] += params.separation_gain * np.bincount(pushed, np.concatenate([push, -push]), n)
    return np.clip(acc, -FLOCK_ACCEL_CLAMP, FLOCK_ACCEL_CLAMP, out=acc)


def simulate_race(params: PelotonParams) -> RaceTrace:
    """Run the peloton simulator; deterministic for a fixed seed."""
    params.validate()
    rng = np.random.default_rng(params.seed)
    n, dt = params.n, params.dt
    # duration/dt sampled instants: t = 0, dt, ..., duration - dt
    steps = int(round(params.duration / dt))

    # one buffer for the whole race; frame step + 1 is written in place
    pos = np.empty((steps, n, 2))
    pos[0, :, 0] = rng.uniform(0.0, params.init_length, size=n)
    pos[0, :, 1] = rng.uniform(-4.0, 4.0, size=n)
    check_positions(pos[0])
    vel = np.zeros((n, 2))
    vel[:, 0] = params.speed_at(0.0) + params.speed_jitter * rng.standard_normal(n)
    boost_until = np.full(n, -1.0)

    # a frame that overflows is caught by check_positions, as the frame it makes
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps - 1):
            t = step * dt
            target = np.full(n, params.speed_at(t))

            # breakaway triggers (only for riders not already attacking)
            draws = rng.random(n)
            starting = (draws < params.breakaway_rate * dt) & (boost_until <= t)
            boost_until[starting] = t + params.breakaway_duration
            target[boost_until > t] += params.breakaway_boost

            acc = flocking_acceleration(pos[step], vel, params)
            acc[:, 0] += SPEED_RELAX_PER_S * (target - vel[:, 0])

            vel = vel + dt * acc
            nxt = np.add(pos[step], dt * vel, out=pos[step + 1])
            # keep riders inside the lateral corridor
            low = nxt[:, 1] < -LATERAL_HALFWIDTH_M
            high = nxt[:, 1] > LATERAL_HALFWIDTH_M
            nxt[low, 1] = -LATERAL_HALFWIDTH_M
            nxt[high, 1] = LATERAL_HALFWIDTH_M
            vel[low | high, 1] = 0.0
            # the next step's k-d tree cannot take an overflowed frame
            check_positions(nxt)
    return RaceTrace(dt=dt, times=np.arange(steps) * dt, pos=pos)


def velocities(trace: RaceTrace) -> tuple[np.ndarray, np.ndarray]:
    """(times[1:], x): x[k] is every rider's along-road velocity at frame
    k + 1, x_i(t) = (s_i(t) - s_i(t - dt)) / dt, one (frames - 1, n) array."""
    if len(trace.times) < 2:
        raise DimensionError("need at least 2 frames to compute velocities")
    s = trace.pos[:, :, 0]
    x = (s[1:] - s[:-1]) / trace.dt
    if not np.isfinite(x).all():
        raise DimensionError("velocities must be finite")
    return trace.times[1:], x


def read_utf8(path: str, error: type[CsaggError]) -> str:
    """The text of a UTF-8 file. A file that cannot be read raises `error`
    naming it; one that is not UTF-8 raises it naming the file and the line of
    the first byte that does not decode."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from exc


def _csv_records(
    source: str | IO[str], header: tuple[str, ...], kinds: tuple[type, ...]
) -> Iterator[tuple[int, list]]:
    """(line number, values) of each data row of a CSV file or stream whose
    first line is `header`, each field parsed by its kind; blank lines are
    skipped. A wrong header, a wrong field count, a field that does not parse
    and a non-finite float raise TraceFormatError naming the line, and a file
    that cannot be read or is not UTF-8 raises it naming the file."""
    if isinstance(source, str):
        source = io.StringIO(read_utf8(source, TraceFormatError), newline="")
    reader = csv.reader(source)
    first = next(reader, None)
    if first is None or tuple(c.strip() for c in first) != header:
        raise TraceFormatError(f"line 1: expected header {','.join(header)}")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise TraceFormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            values = [kind(cell) for kind, cell in zip(kinds, row)]
        except ValueError as exc:
            raise TraceFormatError(f"line {lineno}: {exc}") from exc
        for name, value in zip(header, values):
            if isinstance(value, float) and not math.isfinite(value):
                raise TraceFormatError(f"line {lineno}: non-finite {name} {value}")
        yield lineno, values


def ingest_trace(source: str | IO[str], dt: float) -> RaceTrace:
    """Read a position CSV (`time_s,rider_id,s_m,d_m`) into a RaceTrace.

    Riders are indexed by first appearance; timestamps must form a complete
    grid spaced by dt. Malformed rows, non-finite numbers, duplicate cells
    and grid gaps raise TraceFormatError naming the offending line, and a
    frame that graph.check_positions rejects raises it naming the file and
    the frame's time.
    """
    if dt <= 0:
        raise ConfigError("dt must be positive")
    rider_order: dict[int, int] = {}
    cells: dict[tuple[float, int], tuple[float, float]] = {}
    records = _csv_records(source, ("time_s", "rider_id", "s_m", "d_m"), (float, int, float, float))
    for lineno, (t, rider, s, d) in records:
        if rider < 0:
            raise TraceFormatError(f"line {lineno}: negative rider_id {rider}")
        key = (t, rider)
        if key in cells:
            raise TraceFormatError(f"line {lineno}: duplicate cell (t={t}, rider={rider})")
        if rider not in rider_order:
            rider_order[rider] = len(rider_order)
        cells[key] = (s, d)

    if not cells:
        raise TraceFormatError("trace contains no data rows")
    times = sorted({t for t, _ in cells})
    for a, b in zip(times, times[1:]):
        if not math.isclose(b - a, dt, rel_tol=0.0, abs_tol=1e-9):
            raise TraceFormatError(
                f"timestamps {a} and {b} are not spaced by dt={dt}: grid gap or wrong dt"
            )
    pos = np.empty((len(times), len(rider_order), 2))
    for k, t in enumerate(times):
        for rider, idx in rider_order.items():
            if (t, rider) not in cells:
                raise TraceFormatError(f"missing cell for rider {rider} at t={t}")
            pos[k, idx] = cells[(t, rider)]
        try:
            check_positions(pos[k])
        except DimensionError as exc:
            name = source if isinstance(source, str) else "trace"
            raise TraceFormatError(f"{name}: frame t={t}: {exc}") from exc
    return RaceTrace(dt=dt, times=times, pos=pos)


def write_trace_csv(trace: RaceTrace, out: IO[str]) -> None:
    """Emit the position CSV schema consumed by ingest_trace."""
    out.write("time_s,rider_id,s_m,d_m\n")
    for t, frame in zip(trace.times.tolist(), trace.pos.tolist()):
        for rider, (s, d) in enumerate(frame):
            out.write(f"{t!r},{rider},{s!r},{d!r}\n")


def read_velocity_csv(source: str | IO[str]) -> dict[float, dict[int, float]]:
    """Read the `time_s,rider_id,v_mps` schema as {time: {rider_id: v}};
    a non-finite number or a repeated (time, rider) cell raises
    TraceFormatError naming the line."""
    data: dict[float, dict[int, float]] = {}
    records = _csv_records(source, ("time_s", "rider_id", "v_mps"), (float, int, float))
    for lineno, (t, rider, v) in records:
        by_rider = data.setdefault(t, {})
        if rider in by_rider:
            raise TraceFormatError(f"line {lineno}: duplicate cell (t={t}, rider={rider})")
        by_rider[rider] = v
    return data
