import io
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csagg.errors import ConfigError, DimensionError, TraceFormatError
from csagg.graph import RiderPositions, knn_graph
from csagg.mobility import (
    PelotonParams,
    RaceTrace,
    flocking_acceleration,
    ingest_trace,
    read_velocity_csv,
    simulate_race,
    velocities,
    write_trace_csv,
)

from helpers import flocking_reference, simulate_race_reference


def quiet_params(**kw):
    defaults = dict(
        n=10,
        duration=50.0,
        separation_gain=0.0,
        alignment_gain=0.0,
        cohesion_gain=0.0,
        breakaway_rate=0.0,
        speed_jitter=0.0,
    )
    defaults.update(kw)
    return PelotonParams(**defaults)


class TestSimulateRace:
    def test_trivial_dynamics_reduce_to_profile(self):
        _, x = velocities(simulate_race(quiet_params()))
        assert np.abs(x - 10.0).max() <= 1e-9

    def test_velocity_spread_contracts(self):
        # alignment/cohesion contract: initial speed spread does not grow
        params = PelotonParams(breakaway_rate=0.0, speed_jitter=1.0, duration=400.0)
        _, x = velocities(simulate_race(params))
        assert x[299].std() <= x[0].std()

    def test_race_scale_run(self):
        params = PelotonParams(breakaway_rate=0.0)  # n=130, 780 s, dt=1 s
        trace = simulate_race(params)
        assert trace.pos.shape == (780, 130, 2)
        assert trace.n == 130
        _, x = velocities(trace)
        idx = 400
        graph = knn_graph(trace.frame(idx), 10)
        diffs = [abs(x[idx][i] - x[idx][j]) for i, j in graph.edges]
        assert np.median(diffs) < 0.5

    def test_deterministic_bit_identical(self):
        params = PelotonParams(n=20, duration=40.0, seed=99)
        a = simulate_race(params)
        b = simulate_race(params)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.pos, b.pos)

    def test_lateral_corridor(self):
        trace = simulate_race(PelotonParams(n=40, duration=200.0, separation_gain=5.0))
        assert np.abs(trace.pos[:, :, 1]).max() <= 5.0

    def test_euler_round_trip(self):
        trace = simulate_race(PelotonParams(n=30, duration=300.0))
        _, x = velocities(trace)
        s = trace.pos[0, :, 0].copy()
        for i, frame in enumerate(trace.pos[1:]):
            s = s + trace.dt * x[i]
            assert np.abs(s - frame[:, 0]).max() <= 1e-9

    def test_cohesion_knob_shrinks_peloton(self):
        def mean_length(gain, seed):
            trace = simulate_race(
                PelotonParams(duration=200.0, cohesion_gain=gain, seed=seed)
            )
            spans = [
                np.percentile(f[:, 0], 95) - np.percentile(f[:, 0], 5)
                for f in trace.pos
            ]
            return np.mean(spans)

        low = np.mean([mean_length(0.02, s) for s in range(10)])
        high = np.mean([mean_length(0.10, s) for s in range(10)])
        assert high <= low

    def test_breakaways_fire(self):
        params = PelotonParams(n=30, duration=200.0, breakaway_rate=0.01, breakaway_boost=4.0)
        peak = velocities(simulate_race(params))[1].max()
        assert peak > 11.0

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            simulate_race(PelotonParams(n=0))
        with pytest.raises(ConfigError):
            simulate_race(PelotonParams(dt=-1.0))
        with pytest.raises(ConfigError):
            simulate_race(PelotonParams(separation_gain=-1.0))
        with pytest.raises(ConfigError, match="duration=nan"):
            simulate_race(PelotonParams(duration=float("nan")))
        with pytest.raises(ConfigError, match="base_speed_profile"):
            simulate_race(PelotonParams(base_speed_profile=((0.0, float("inf")),)))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
    @example(1.5, 1.0)
    @example(1.4999999999999998, 1.0)
    @example(0.75, 0.5)
    @example(1.0, 1.0)
    @example(1e300, 1e-300)
    def test_too_short_race_names_duration_and_dt(self, duration, dt):
        # the race samples int(round(duration / dt)) instants and needs 2;
        # an overflowing ratio is a long race, not a short one
        params = PelotonParams(duration=duration, dt=dt)
        ratio = duration / dt
        if math.isfinite(ratio) and int(round(ratio)) < 2:
            message = f"duration={duration} must be >= 1.5 * dt to cover 2 timesteps; dt={dt}"
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                params.validate()
        else:
            params.validate()


class TestSimulateMatchesReference:
    """The pair-list flocking step against the broadcast-sum oracle.

    Whole races are compared only where the flock is well conditioned: with
    separation on in a dense flock, or with alignment or cohesion gains that
    overshoot in one step, a 1e-16 change in summation order grows to metres
    within 20 frames in the oracle itself. The forces are compared on their
    own over dense flocks instead.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        length=st.floats(min_value=1.0, max_value=300.0),
        offset=st.floats(min_value=0.0, max_value=8000.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        separation_gain=st.floats(min_value=0.0, max_value=5.0),
        alignment_gain=st.floats(min_value=0.0, max_value=2.0),
        cohesion_gain=st.floats(min_value=0.0, max_value=1.0),
        # radii below SEPARATION_RADIUS_M as well as above it
        neighbor_radius=st.one_of(
            st.floats(min_value=0.1, max_value=1.5), st.floats(min_value=0.1, max_value=30.0)
        ),
        grid=st.booleans(),
        coincident=st.integers(min_value=0, max_value=5),
        isolated=st.integers(min_value=0, max_value=3),
    )
    def test_acceleration_matches_reference(
        self, n, length, offset, seed, grid, coincident, isolated, **gains
    ):
        # a column of riders `length` metres long, `offset` metres down the road
        rng = np.random.default_rng(seed)
        pos = np.column_stack([offset + rng.uniform(0.0, length, n), rng.uniform(-5.0, 5.0, n)])
        if grid:
            # integer positions and radius: many pairs sit exactly at the
            # radius (3-4-5 offsets among them), where `dist <= radius` holds
            pos = np.round(pos)
            gains["neighbor_radius"] = float(max(1, round(gains["neighbor_radius"])))
        # riders on top of another (d = 0), and riders far from everyone
        k = min(coincident, n - 1)
        pos[:k] = pos[n - k:]
        far = [[offset + length + 100.0 * (m + 1), 0.0] for m in range(isolated)]
        pos = np.vstack([pos, np.reshape(far, (-1, 2))])
        m = len(pos)
        vel = np.column_stack([10.0 + 3.0 * rng.standard_normal(m), rng.standard_normal(m)])
        params = PelotonParams(**gains)
        got = flocking_acceleration(pos, vel, params)
        assert np.abs(got - flocking_reference(pos, vel, params)).max() <= 1e-9

    def test_one_frame_allocates_no_pair_matrix(self):
        # 2,000 riders in a 3 km column: any (n, n) float array is 32 MB
        rng = np.random.default_rng(1)
        n = 2000
        pos = np.column_stack([rng.uniform(0.0, 3000.0, n), rng.uniform(-4.0, 4.0, n)])
        vel = np.column_stack([10.0 + 0.3 * rng.standard_normal(n), np.zeros(n)])
        tracemalloc.start()
        try:
            flocking_acceleration(pos, vel, PelotonParams(n=n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        frames=st.integers(min_value=2, max_value=20),
        alignment_gain=st.floats(min_value=0.0, max_value=1.0),
        cohesion_gain=st.floats(min_value=0.0, max_value=0.1),
        neighbor_radius=st.floats(min_value=0.1, max_value=30.0),
        breakaway_rate=st.sampled_from([0.0, 0.0005, 0.05, 0.5]),
        init_length=st.floats(min_value=1.0, max_value=300.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_frames_match_reference(self, frames, **kw):
        params = PelotonParams(duration=float(frames), separation_gain=0.0, **kw)
        self._assert_frames_match(params)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_race_start_matches_reference(self, seed):
        self._assert_frames_match(PelotonParams(n=130, duration=51.0, seed=seed))

    @staticmethod
    def _assert_frames_match(params):
        got, ref = simulate_race(params), simulate_race_reference(params)
        assert np.array_equal(got.times, ref.times)
        assert got.pos.shape == ref.pos.shape
        assert np.abs(got.pos - ref.pos).max() <= 1e-9


class TestVelocities:
    def _trace(self, dt, *s_frames):
        times = [i * dt for i in range(len(s_frames))]
        return RaceTrace(dt=dt, times=times, pos=[[[s, 0.0] for s in frame] for frame in s_frames])

    def test_simple_displacement(self):
        times, x = velocities(self._trace(1.0, [0.0], [10.0]))
        assert times.tolist() == [1.0]
        assert x.tolist() == [[10.0]]

    def test_stationary(self):
        _, x = velocities(self._trace(1.0, [5.0], [5.0]))
        assert x.tolist() == [[0.0]]

    def test_dt_two(self):
        times, x = velocities(self._trace(2.0, [100.0], [130.0], [100.0]))
        assert times.tolist() == [2.0, 4.0]
        assert x.tolist() == [[15.0], [-15.0]]

    def test_single_frame_rejected(self):
        with pytest.raises(DimensionError):
            velocities(self._trace(1.0, [0.0]))

    def test_overflowing_velocity_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(DimensionError, match="velocities must be finite"):
            velocities(self._trace(1.0, [-1e308], [1e308]))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        frames=st.integers(min_value=2, max_value=20),
        alignment_gain=st.floats(min_value=0.0, max_value=1.0),
        cohesion_gain=st.floats(min_value=0.0, max_value=0.1),
        breakaway_rate=st.sampled_from([0.0, 0.05, 0.5]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_frame_differences_of_the_reference_race(self, frames, **kw):
        # the (frames - 1, n) array against one difference per frame pair
        # of the oracle race, whose frames match within 1e-9
        params = PelotonParams(duration=float(frames), separation_gain=0.0, **kw)
        times, x = velocities(simulate_race(params))
        ref = simulate_race_reference(params)
        assert x.shape == (frames - 1, params.n)
        for k in range(frames - 1):
            assert times[k] == ref.times[k + 1]
            want = (ref.pos[k + 1, :, 0] - ref.pos[k, :, 0]) / params.dt
            assert np.abs(x[k] - want).max() <= 2e-9


class TestRaceTrace:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["pos", "times"])
    def test_non_finite_rejected(self, bad, where):
        arrays = {"times": np.arange(3.0), "pos": np.zeros((3, 2, 2))}
        arrays[where].flat[-1] = bad
        with pytest.raises(DimensionError, match="must be finite"):
            RaceTrace(dt=1.0, **arrays)

    @pytest.mark.parametrize(
        "times, pos",
        [((3,), (2, 4, 2)), ((2,), (2, 4, 3)), ((2,), (4, 2)), ((2, 1), (2, 4, 2)), ((0,), (0, 4, 2))],
    )
    def test_shapes_that_disagree_rejected(self, times, pos):
        with pytest.raises(DimensionError, match=r"times \(frames,\) and pos \(frames, n, 2\)"):
            RaceTrace(dt=1.0, times=np.zeros(times), pos=np.zeros(pos))

    @pytest.mark.parametrize("duration", [3.0, 4.0, 50.0])
    def test_simulator_rejects_a_race_that_overflows(self, duration):
        # at 1e308 m/s the second step leaves the float range; a race that
        # goes on past that step must stop there, before a k-d tree sees it
        params = quiet_params(n=3, duration=duration, base_speed_profile=((0.0, 1e308),))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DimensionError, match="must be finite"):
            simulate_race(params)

    def test_frame_is_one_rider_positions(self):
        trace = simulate_race(quiet_params(n=4, duration=5.0, dt=0.5))
        frame = trace.frame(3)
        assert isinstance(frame, RiderPositions)
        assert frame.time == 1.5
        assert np.array_equal(frame.pos, trace.pos[3])


GOOD_CSV = """time_s,rider_id,s_m,d_m
0.0,0,0.0,0.0
0.0,1,5.0,1.0
1.0,0,10.0,0.0
1.0,1,15.0,1.0
2.0,0,20.0,0.0
2.0,1,25.0,1.0
"""


class TestIngestTrace:
    def test_well_formed(self):
        trace = ingest_trace(io.StringIO(GOOD_CSV), dt=1.0)
        assert trace.n == 2
        assert trace.times.tolist() == [0.0, 1.0, 2.0]
        assert trace.pos[1, 1].tolist() == [15.0, 1.0]

    def test_duplicate_cell(self):
        bad = GOOD_CSV + "0.0,1,9.0,9.0\n"
        with pytest.raises(TraceFormatError, match="line 8.*duplicate"):
            ingest_trace(io.StringIO(bad), dt=1.0)

    def test_grid_gap(self):
        rows = [r for r in GOOD_CSV.splitlines() if not r.startswith("1.0,1")]
        with pytest.raises(TraceFormatError, match="missing cell"):
            ingest_trace(io.StringIO("\n".join(rows) + "\n"), dt=1.0)

    def test_time_gap(self):
        bad = GOOD_CSV.replace("2.0,", "3.0,")
        with pytest.raises(TraceFormatError, match="grid gap"):
            ingest_trace(io.StringIO(bad), dt=1.0)

    def test_malformed_row(self):
        bad = GOOD_CSV.replace("1.0,0,10.0,0.0", "1.0,0,banana,0.0")
        with pytest.raises(TraceFormatError, match="line 4"):
            ingest_trace(io.StringIO(bad), dt=1.0)

    def test_bad_header(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            ingest_trace(io.StringIO("a,b,c,d\n"), dt=1.0)

    @staticmethod
    def _assert_round_trip(dt):
        trace = simulate_race(quiet_params(n=3, duration=5.0 * dt, dt=dt))
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        buf.seek(0)
        back = ingest_trace(buf, dt=dt)
        assert back.n == trace.n
        assert np.array_equal(back.times, trace.times)
        assert np.array_equal(back.pos, trace.pos)  # repr round-trips exactly

    def test_round_trip_through_writer(self):
        self._assert_round_trip(1.0)

    @pytest.mark.parametrize("dt", [0.25, 0.0625, 0.1])
    def test_round_trip_at_fine_dt(self, dt):
        # frame times written with repr read back onto the dt grid
        self._assert_round_trip(dt)


NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-Infinity"])


class TestNonFiniteCsvNumbers:
    # every float field of both schemas; a non-finite value on any data row
    # is an input-format error naming that line and field
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_named_by_line_and_field(self, data):
        text, header, read = data.draw(st.sampled_from([
            (GOOD_CSV, ["time_s", "rider_id", "s_m", "d_m"], lambda f: ingest_trace(f, dt=1.0)),
            ("time_s,rider_id,v_mps\n0.0,0,10.0\n0.0,1,9.5\n1.0,0,10.5\n1.0,1,9.0\n",
             ["time_s", "rider_id", "v_mps"], read_velocity_csv),
        ]), label="schema")
        lines = text.splitlines()
        line = data.draw(st.integers(2, len(lines)), label="line")
        field = data.draw(st.sampled_from([f for f in header if f != "rider_id"]), label="field")
        cells = lines[line - 1].split(",")
        cells[header.index(field)] = data.draw(NON_FINITE, label="value")
        lines[line - 1] = ",".join(cells)
        with pytest.raises(TraceFormatError, match=f"^line {line}: non-finite {field} "):
            read(io.StringIO("\n".join(lines) + "\n"))


class TestRacePrefix:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shorter_race_is_the_start_of_the_full_one(self, data):
        # the simulator draws its random numbers frame by frame, so a race
        # cut at K frames is exactly the first K frames of the longer one
        dt = data.draw(st.floats(0.05, 5.0), label="dt")
        frames = data.draw(st.integers(2, 30), label="frames")
        params = PelotonParams(
            n=data.draw(st.integers(1, 40), label="n"),
            duration=frames * dt,
            dt=dt,
            breakaway_rate=data.draw(st.floats(0.0, 0.5), label="breakaway_rate"),
            breakaway_duration=data.draw(st.floats(0.0, 30.0), label="breakaway_duration"),
            init_length=data.draw(st.floats(1.0, 300.0), label="init_length"),
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        )
        full = simulate_race(params)
        k = data.draw(st.integers(2, len(full.times)), label="k")
        short = simulate_race(replace(params, duration=k * dt))
        assert np.array_equal(short.times, full.times[:k])
        assert np.array_equal(short.pos, full.pos[:k])


class TestVelocityCsv:
    def test_round_trip(self):
        # the `time_s,rider_id,v_mps` schema `csagg stress` reads; values
        # written with repr parse back exactly
        text = (
            "time_s,rider_id,v_mps\n"
            "1.000,0,10.0\n1.000,1,9.75\n1.000,2,0.30000000000000004\n"
            "2.000,0,-0.5\n2.000,1,11.125\n2.000,2,1e-300\n"
        )
        frames = [[10.0, 9.75, 0.1 + 0.2], [-0.5, 11.125, 1e-300]]
        back = read_velocity_csv(io.StringIO(text))
        assert len(back) == len(frames)
        for x, t in zip(frames, sorted(back)):
            assert np.array_equal(x, [back[t][r] for r in range(len(x))])
