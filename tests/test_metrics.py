import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csagg.errors import DimensionError
from csagg.metrics import StepReport, Summary, stress, summarize, write_report_csv


def report(time, s, method="determined"):
    return StepReport(
        time=time, stress=s, method=method, rows=10, rank=5,
        rounds_used=3, uncoverable=0, mean_payload_bits=714.0,
    )


class TestStress:
    def test_perfect_reconstruction(self):
        assert stress(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_half_energy_error(self):
        assert stress(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_full_energy_error(self):
        assert stress(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(DimensionError):
            stress(np.zeros(3), np.ones(3))
        with pytest.raises(DimensionError):
            stress(np.zeros(3), np.array([0.0, 1e-300, 0.0]))

    def test_stopped_peloton_recovered_exactly(self):
        assert stress(np.zeros(3), np.zeros(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            stress(np.ones(3), np.ones(4))

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    )
    def test_scale_covariant(self, seed, c):
        rng = np.random.default_rng(seed)
        x = rng.uniform(1.0, 10.0, 8)
        xhat = x + rng.standard_normal(8)
        assert abs(stress(c * x, c * xhat) - stress(x, xhat)) <= 1e-12


class TestSummarize:
    def test_single_report(self):
        s = summarize([report(0.0, 0.004)])
        assert s.mean_stress == pytest.approx(0.004)
        assert s.max_stress == pytest.approx(0.004)

    def test_mean_and_argmax(self):
        s = summarize([report(1.0, 0.001), report(2.0, 0.009)])
        assert s.mean_stress == pytest.approx(0.005)
        assert s.max_stress == pytest.approx(0.009)
        assert s.argmax_time == 2.0

    def test_mean_within_bounds(self):
        rng = np.random.default_rng(1)
        reports = [report(float(i), float(v)) for i, v in enumerate(rng.random(20))]
        s = summarize(reports)
        stresses = [r.stress for r in reports]
        assert min(stresses) <= s.mean_stress <= max(stresses)

    def test_determined_fraction(self):
        s = summarize([report(0.0, 0.0), report(1.0, 0.0, method="cs-lp")])
        assert s.determined_fraction == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            summarize([])


class TestReportCsv:
    def test_layout(self):
        buf = io.StringIO()
        write_report_csv(buf, [report(0.0, 0.25)], ["scenario=routing"])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# scenario=routing"
        assert lines[1] == "time_s,stress,method,rows,rank,L,uncoverable,mean_payload_bits"
        assert lines[2] == "0.000,0.25,determined,10,5,3,0,714"
        assert lines[3].startswith("# summary mean_stress=")

    def test_deterministic_bytes(self):
        reports = [report(float(i), 1e-5 * i) for i in range(5)]
        a, b = io.StringIO(), io.StringIO()
        write_report_csv(a, reports, ["k=1"])
        write_report_csv(b, reports, ["k=1"])
        assert a.getvalue() == b.getvalue()
