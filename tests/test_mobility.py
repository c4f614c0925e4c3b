import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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
        trace = simulate_race(quiet_params())
        for frame in velocities(trace):
            assert np.abs(frame.x - 10.0).max() <= 1e-9

    def test_velocity_spread_contracts(self):
        # alignment/cohesion contract: initial speed spread does not grow
        params = PelotonParams(breakaway_rate=0.0, speed_jitter=1.0, duration=400.0)
        vels = velocities(simulate_race(params))
        assert vels[299].x.std() <= vels[0].x.std()

    def test_race_scale_run(self):
        params = PelotonParams(breakaway_rate=0.0)  # n=130, 780 s, dt=1 s
        trace = simulate_race(params)
        assert len(trace.frames) == 780
        assert trace.n == 130
        vels = velocities(trace)
        idx = 400
        graph = knn_graph(trace.frames[idx], 10)
        diffs = [abs(vels[idx].x[i] - vels[idx].x[j]) for i, j in graph.edges]
        assert np.median(diffs) < 0.5

    def test_deterministic_bit_identical(self):
        params = PelotonParams(n=20, duration=40.0, seed=99)
        a = simulate_race(params)
        b = simulate_race(params)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.pos, fb.pos)

    def test_lateral_corridor(self):
        trace = simulate_race(PelotonParams(n=40, duration=200.0, separation_gain=5.0))
        for frame in trace.frames:
            assert np.abs(frame.pos[:, 1]).max() <= 5.0

    def test_euler_round_trip(self):
        trace = simulate_race(PelotonParams(n=30, duration=300.0))
        vels = velocities(trace)
        s = trace.frames[0].pos[:, 0].copy()
        for i, frame in enumerate(trace.frames[1:]):
            s = s + trace.dt * vels[i].x
            assert np.abs(s - frame.pos[:, 0]).max() <= 1e-9

    def test_cohesion_knob_shrinks_peloton(self):
        def mean_length(gain, seed):
            trace = simulate_race(
                PelotonParams(duration=200.0, cohesion_gain=gain, seed=seed)
            )
            spans = [
                np.percentile(f.pos[:, 0], 95) - np.percentile(f.pos[:, 0], 5)
                for f in trace.frames
            ]
            return np.mean(spans)

        low = np.mean([mean_length(0.02, s) for s in range(10)])
        high = np.mean([mean_length(0.10, s) for s in range(10)])
        assert high <= low

    def test_breakaways_fire(self):
        params = PelotonParams(n=30, duration=200.0, breakaway_rate=0.01, breakaway_boost=4.0)
        vels = velocities(simulate_race(params))
        peak = max(frame.x.max() for frame in vels)
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
        assert len(got.frames) == len(ref.frames)
        for a, b in zip(got.frames, ref.frames):
            assert np.abs(a.pos - b.pos).max() <= 1e-9


class TestVelocities:
    def _trace(self, dt, *s_frames):
        frames = tuple(
            RiderPositions(time=i * dt, pos=[[s, 0.0] for s in frame])
            for i, frame in enumerate(s_frames)
        )
        return RaceTrace(dt=dt, frames=frames)

    def test_simple_displacement(self):
        vels = velocities(self._trace(1.0, [0.0], [10.0]))
        assert vels[0].x == pytest.approx([10.0])

    def test_stationary(self):
        vels = velocities(self._trace(1.0, [5.0], [5.0]))
        assert vels[0].x == pytest.approx([0.0])

    def test_dt_two(self):
        vels = velocities(self._trace(2.0, [100.0], [130.0]))
        assert vels[0].x == pytest.approx([15.0])

    def test_single_frame_rejected(self):
        with pytest.raises(DimensionError):
            velocities(self._trace(1.0, [0.0]))


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
        assert len(trace.frames) == 3
        assert trace.frames[1].pos[1] == pytest.approx([15.0, 1.0])

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
        assert len(back.frames) == len(trace.frames)
        for fa, fb in zip(trace.frames, back.frames):
            assert fa.time == fb.time
            assert np.array_equal(fa.pos, fb.pos)  # repr round-trips exactly

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
        k = data.draw(st.integers(2, len(full.frames)), label="k")
        short = simulate_race(replace(params, duration=k * dt))
        assert len(short.frames) == k
        for cut, whole in zip(short.frames, full.frames):
            assert cut.time == whole.time
            assert np.array_equal(cut.pos, whole.pos)


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
