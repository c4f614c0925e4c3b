import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csagg
from csagg import experiments
from csagg.cli import main
from csagg.config import (
    GRAPH_MODES,
    KEYS,
    MAX_ELEMENTS,
    SCENARIOS,
    ExperimentConfig,
    apply_setting,
    config_lines,
    load_config,
)
from csagg.errors import ConfigError
from csagg.linalg import LpSolution, LpStatus
from csagg.metrics import stress
from csagg.mobility import PelotonParams, simulate_race, velocities
from csagg.protocol import CollectionResult
from csagg.sparsity import Measurement
from helpers import apply_setting_reference, config_lines_reference


def _floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds).map(repr)


def _ints(lo, hi=10**6):
    return st.integers(min_value=lo, max_value=hi).map(str)


_POSITIVE = _floats(min_value=0.0, exclude_min=True, max_value=1e6)
_NONNEGATIVE = _floats(min_value=0.0, max_value=1e6)
_PROFILE = st.lists(
    st.tuples(_floats(min_value=-1e6, max_value=1e6), _floats(min_value=-1e3, max_value=1e3)),
    min_size=1,
    max_size=4,
    unique_by=lambda pair: float(pair[0]),  # a profile gives each start time once
).map(lambda pairs: ";".join(f"{t}:{v}" for t, v in pairs))

# every key that config_lines prints, each with values that pass validation
_SETTINGS = {
    "scenario": st.sampled_from(SCENARIOS),
    "seed": _ints(0, 2**32 - 1),
    # matrix and routing need k_neighbors < n for a simulated race; n x n,
    # k_measurements x n, dct_n x dct_n and dct_k x dct_n stay within
    # MAX_ELEMENTS, and so do a race's (duration_s / dt_s) x n x 2 positions.
    # A race covers 2 timesteps, duration_s >= 1.5 dt_s, whichever of the
    # two is drawn (the defaults are 780 and 1)
    "n": _ints(11, 46340),
    "duration_s": _floats(min_value=1.5, max_value=1e3),
    "dt_s": _floats(min_value=0.1, max_value=1.0),
    "base_speed_profile": _PROFILE,
    "separation_gain": _NONNEGATIVE,
    "alignment_gain": _NONNEGATIVE,
    "cohesion_gain": _NONNEGATIVE,
    "neighbor_radius_m": _POSITIVE,
    "breakaway_rate": _NONNEGATIVE,
    "breakaway_boost_mps": _floats(min_value=-1e3, max_value=1e3),
    "breakaway_duration_s": _NONNEGATIVE,
    "speed_jitter_mps": _floats(min_value=-1e3, max_value=1e3),
    "init_length_m": _POSITIVE,
    "trace": st.text("abc/._-0123456789", min_size=1, max_size=12),
    "range_m": _POSITIVE,
    "loss_p": _floats(min_value=0.0, max_value=1.0),
    "k_measurements": _ints(1, 46341),
    "k_neighbors": _ints(1, 10),
    "cap_m": _ints(2),
    "graph_mode": st.sampled_from(GRAPH_MODES),
    "steps": _ints(0),
    "check_aggregates": st.sampled_from(["true", "false"]),
    # validate needs dct_sparsity <= dct_n and dct_losses < dct_n, whichever
    # of the three keys are drawn (the default dct_n is 100)
    "dct_n": _ints(100, 46340),
    "dct_sparsity": _ints(1, 100),
    "dct_losses": _ints(0, 99),
    "dct_k": _ints(1, 46341),
}


def _float_keys():
    """The keys of config_lines whose values apply_setting reads as floats:
    they take 0.5 (int and bool keys do not) and refuse a word (text keys
    take it)."""
    def takes(key, value):
        try:
            apply_setting(ExperimentConfig(), key, value)
        except ConfigError:
            return False
        return True

    keys = [line.split("=", 1)[0] for line in config_lines(ExperimentConfig())]
    return [key for key in keys if takes(key, "0.5") and not takes(key, "abc")]


_NON_FINITE = [
    *((key, value) for key in _float_keys() for value in ("nan", "inf", "-inf")),
    *(("base_speed_profile", entry) for entry in ("0:nan", "0:inf", "nan:10", "0:10;-inf:12")),
]


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        cfg.validate()
        assert cfg.peloton.n == 130
        assert cfg.range_m == 50.0

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("scenario=matrix\nn=20  # comment\nk_measurements=8\n")
        cfg = load_config(str(path), ["seed=5", "loss_p=0.25"])
        assert cfg.scenario == "matrix"
        assert cfg.peloton.n == 20
        assert cfg.k_measurements == 8
        assert cfg.seed == 5 and cfg.race().seed == 5
        assert cfg.loss_p == 0.25

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, ["banana=1"])

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            load_config(None, ["n=ten"])

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            load_config(None, ["loss_p=2.0"])

    def test_speed_profile_parsing(self):
        cfg = load_config(None, ["base_speed_profile=0:10,300:12"])
        assert cfg.peloton.speed_at(0.0) == 10.0
        assert cfg.peloton.speed_at(400.0) == 12.0

    def test_speed_profile_documented_form(self):
        cfg = load_config(None, ["base_speed_profile=0:10;100:12"])
        assert cfg.peloton.speed_at(50.0) == 10.0
        assert cfg.peloton.speed_at(150.0) == 12.0
        assert "base_speed_profile=0:10;100:12" in config_lines(cfg)

    def test_default_profile_header(self):
        assert "base_speed_profile=0:10" in config_lines(ExperimentConfig())

    def test_config_lines_keep_full_precision(self):
        cfg = load_config(None, ["loss_p=0.123456789", "range_m=47.5"])
        lines = config_lines(cfg)
        assert "loss_p=0.123456789" in lines
        assert "range_m=47.5" in lines

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({}, optional=_SETTINGS))
    def test_config_lines_reproduce_any_config(self, settings_):
        cfg = load_config(overrides=[f"{k}={v}" for k, v in settings_.items()])
        assert load_config(overrides=config_lines(cfg)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(st.fixed_dictionaries({}, optional={**_SETTINGS, "out": st.text(max_size=8)}))
    def test_config_lines_match_reference(self, settings_):
        cfg = ExperimentConfig()
        for key, value in settings_.items():
            cfg = apply_setting(cfg, key, value)
        assert config_lines(cfg) == config_lines_reference(cfg)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_apply_setting_matches_reference(self, data):
        key = data.draw(st.sampled_from([*_SETTINGS, "out", "banana"]), label="key")
        text = st.text(max_size=8)
        value = data.draw(st.one_of(_SETTINGS.get(key, text), text), label="value")
        outcomes = []
        for apply in (apply_setting, apply_setting_reference):
            try:
                # repr, not ==, so that a nan field compares equal to itself
                outcomes.append(repr(apply(ExperimentConfig(), key, value)))
            except ConfigError:
                outcomes.append("ConfigError")
        assert outcomes[0] == outcomes[1]

    def test_config_lines_round_trip(self, tmp_path):
        cfg = load_config(None, ["scenario=matrix", "n=17", "loss_p=0.75", "seed=3"])
        path = tmp_path / "resolved.cfg"
        path.write_text("\n".join(config_lines(cfg)) + "\n")
        back = load_config(str(path), [])
        assert back == cfg

    @pytest.mark.parametrize(
        "overrides, key",
        [(["dct_sparsity=200"], "dct_sparsity"), (["dct_n=8", "dct_sparsity=4", "dct_losses=8"], "dct_losses")],
    )
    def test_dct_sizes_bounded_by_dct_n(self, overrides, key):
        with pytest.raises(ConfigError, match=key):
            load_config(None, overrides)

    # a product of exactly MAX_ELEMENTS passes and one element more exits;
    # n x n and dct_n x dct_n are squares, so they pass at the largest square
    # below the limit and exit at the next. Only validate runs, so nothing
    # is allocated
    @pytest.mark.parametrize(
        "sizes, key",
        [
            ({"n": 128, "k_measurements": 2**24}, None),
            ({"n": 3, "k_measurements": 715827883}, "k_measurements"),
            ({"n": 46340}, None),
            ({"n": 46341}, "n"),
            ({"dct_n": 128, "dct_k": 2**24}, None),
            ({"dct_n": 3, "dct_k": 715827883}, "dct_k"),
            ({"dct_n": 46340}, None),
            ({"dct_n": 46341}, "dct_n"),
        ],
    )
    def test_size_limit(self, sizes, key):
        assert 128 * 2**24 == MAX_ELEMENTS and 3 * 715827883 == MAX_ELEMENTS + 1
        cfg = ExperimentConfig()
        for name, value in {"k_neighbors": 1, "dct_sparsity": 1, "dct_losses": 0, **sizes}.items():
            cfg = apply_setting(cfg, name, str(value))
        if key is None:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match=rf"^{key}=\d+ makes a \d+x\d+ array; the limit is {MAX_ELEMENTS} "):
                cfg.validate()

    @pytest.mark.parametrize("scenario", ["matrix", "routing", "simulate"])
    def test_config_seed_seeds_the_race(self, scenario):
        # no run reads peloton.seed, so validate passes a negative one
        for peloton in (PelotonParams(), PelotonParams(seed=7), PelotonParams(seed=-1)):
            cfg = ExperimentConfig(scenario=scenario, seed=5, peloton=peloton)
            cfg.validate()
            assert cfg.race().seed == 5

    @pytest.mark.parametrize("scenario", ["matrix", "dct-demo"])
    def test_negative_seed_rejected(self, scenario):
        cfg = ExperimentConfig(scenario=scenario, seed=-1, peloton=PelotonParams(seed=-1))
        with pytest.raises(ConfigError, match="seed=-1"):
            cfg.validate()
        with pytest.raises(ConfigError, match="seed=-1"):
            cfg.peloton.validate()

    def test_seed_free_without_simulated_race(self):
        ExperimentConfig(scenario="dct-demo", seed=5).validate()
        ExperimentConfig(scenario="matrix", seed=5, trace_path="trace.csv").validate()

    def test_scenario_validation(self):
        cfg = apply_setting(ExperimentConfig(), "scenario", "bogus")
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_readme_key_table_is_complete(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | meaning | default |", 1)[1].split("\n\n", 1)[0]
        documented = {
            key
            for line in table.strip().splitlines()
            for key in re.findall(r"`([a-z_]+)`", line.split("|")[1])
        }
        assert documented == set(KEYS), sorted(documented ^ set(KEYS))


FAST = [
    "--set", "n=12",
    "--set", "duration_s=20",
    "--set", "steps=4",
    "--set", "init_length_m=60",
    "--set", "k_measurements=6",
    "--set", "k_neighbors=4",
]


class TestCli:
    def test_simulate_writes_trace(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)] + FAST) == 0
        trace = (tmp_path / "trace.csv").read_text()
        assert trace.startswith("time_s,rider_id,s_m,d_m")

    def test_module_runs_without_install(self):
        # python -m csagg from the source tree, as the README shows
        env = {**os.environ, "PYTHONPATH": str(Path(csagg.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "csagg", "--help"], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert "usage: csagg" in done.stdout

    def test_each_module_imports_alone(self):
        # every module imported with no csagg module loaded before it, so
        # that an import cycle between two modules fails whichever comes first
        src = Path(csagg.__file__).resolve().parent
        modules = sorted(p.stem for p in src.glob("*.py") if not p.stem.startswith("__"))
        assert "protocol" in modules
        script = (
            "import importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    for key in [k for k in sys.modules if k.partition('.')[0] == 'csagg']:\n"
            "        del sys.modules[key]\n"
            "    importlib.import_module('csagg.' + name)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src.parent)}
        done = subprocess.run(
            [sys.executable, "-c", script, *modules], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr

    def test_matrix_scenario(self, tmp_path):
        assert main(["matrix", "--out", str(tmp_path)] + FAST) == 0
        text = (tmp_path / "report_matrix.csv").read_text()
        assert "# scenario=matrix" in text
        assert "time_s,stress," in text

    def test_routing_scenario(self, tmp_path):
        args = ["routing", "--out", str(tmp_path), "--set", "loss_p=0.3"] + FAST
        assert main(args) == 0
        assert (tmp_path / "report_routing.csv").exists()

    def test_dct_demo(self, tmp_path):
        args = ["dct-demo", "--out", str(tmp_path), "--set", "dct_n=40",
                "--set", "dct_k=20", "--set", "dct_sparsity=4", "--set", "dct_losses=4"]
        assert main(args) == 0
        text = (tmp_path / "report_dct_demo.csv").read_text()
        assert "zero_fill," in text and "column_removal," in text

    def test_seed_changes_report(self, tmp_path):
        main(["matrix", "--out", str(tmp_path / "a"), "--seed", "1"] + FAST)
        main(["matrix", "--out", str(tmp_path / "b"), "--seed", "2"] + FAST)
        a = (tmp_path / "a" / "report_matrix.csv").read_text()
        b = (tmp_path / "b" / "report_matrix.csv").read_text()
        assert a != b

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["matrix", "--set", "loss_p=9"]) == 2
        assert "config error" in capsys.readouterr().err

    # 2**62 is parsed but its int64 sums could wrap; the 20-digit value
    # overflows int64 itself
    @pytest.mark.parametrize(
        "value", ["1", "2147483649", "4611686018427387904", "99999999999999999999"]
    )
    def test_cap_m_out_of_range_exits_2(self, tmp_path, capsys, value):
        assert main(["routing", "--out", str(tmp_path), "--set", f"cap_m={value}"] + FAST) == 2
        assert f"cap_m={value} must be in [2, 2147483648]" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    # a rule on one key names it, or the race field it sets, with the value
    @pytest.mark.parametrize("setting, message", [
        ("k_measurements=0", "k_measurements=0 must be >= 1"),
        ("k_neighbors=0", "k_neighbors=0 must be >= 1"),
        ("steps=-1", "steps=-1 must be >= 0"),
        ("loss_p=2", "loss_p=2.0 must be in [0, 1]"),
        ("graph_mode=x", "graph_mode=x must be one of ('reconstruction', 'truth')"),
        ("dct_k=0", "dct_k=0 must be >= 1"),
        ("dct_losses=-1", "dct_losses=-1 must be >= 0"),
        ("n=0", "n=0 must be positive"),
        ("dt_s=0", "dt=0.0 must be positive"),
        # the race samples round(duration / dt) instants and needs 2
        ("duration_s=1", "duration=1.0 must be >= 1.5 * dt to cover 2 timesteps; dt=1.0"),
        ("dt_s=600", "duration=780.0 must be >= 1.5 * dt to cover 2 timesteps; dt=600.0"),
        ("neighbor_radius_m=0", "neighbor_radius=0.0 must be positive"),
        ("cohesion_gain=-1", "cohesion_gain=-1.0 must be >= 0"),
        ("breakaway_rate=-1", "breakaway_rate=-1.0 must be >= 0"),
        # sorted, either order would run one of the two speeds from t=0
        ("base_speed_profile=0:10;0:12", "base_speed_profile ((0.0, 10.0), (0.0, 12.0)) repeats start time t=0"),
        ("base_speed_profile=0:12;0:10", "base_speed_profile ((0.0, 10.0), (0.0, 12.0)) repeats start time t=0"),
        ("base_speed_profile=5:10,0:9,5:11",
         "base_speed_profile ((0.0, 9.0), (5.0, 10.0), (5.0, 11.0)) repeats start time t=5"),
    ])
    def test_rejected_key_names_itself_and_its_value(self, tmp_path, capsys, setting, message):
        assert main(["matrix", "--out", str(tmp_path), "--set", setting]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    # a size too large for any array exits 2 before the run starts, as an
    # out-of-range cap_m does, instead of exiting 1 from deep in numpy
    @pytest.mark.parametrize(
        "scenario, key",
        [("matrix", "k_measurements"), ("dct-demo", "dct_k"), ("routing", "n")],
    )
    def test_oversized_key_exits_2(self, tmp_path, capsys, scenario, key):
        assert main([scenario, "--out", str(tmp_path), "--set", f"{key}=99999999999999999999"]) == 2
        err = capsys.readouterr().err
        assert f"{key}=99999999999999999999 makes a " in err
        assert f"the limit is {MAX_ELEMENTS} elements" in err
        assert not list(tmp_path.iterdir())

    # frames x n x 2 positions bound the race; a huge duration_s / dt_s
    # overflows to an infinite frame count, which must not reach int()
    @pytest.mark.parametrize(
        "scenario, race",
        [("simulate", ["duration_s=1e308", "dt_s=1e-308"]), ("simulate", ["duration_s=1e12"]),
         ("routing", ["duration_s=1e12"])],
    )
    def test_race_too_long_exits_2(self, tmp_path, capsys, scenario, race):
        args = [scenario, "--out", str(tmp_path)] + [a for kv in race for a in ("--set", kv)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "config error: duration_s=" in err and " dt_s=" in err
        assert f"the limit is {MAX_ELEMENTS} elements" in err
        assert not list(tmp_path.iterdir())

    def test_long_race_runs_when_steps_cut_it(self, tmp_path):
        # steps=3 simulates 4 frames of the 1e12 s race
        args = ["routing", "--out", str(tmp_path), "--set", "duration_s=1e12", "--set", "steps=3",
                "--set", "n=12", "--set", "init_length_m=60", "--set", "k_neighbors=4"]
        assert main(args) == 0
        assert "# duration_s=1e+12" in (tmp_path / "report_routing.csv").read_text()

    def test_race_bound_only_where_a_race_is_simulated(self):
        ExperimentConfig(scenario="dct-demo", peloton=PelotonParams(duration=1e12)).validate()
        ExperimentConfig(scenario="routing", peloton=PelotonParams(duration=1e12), trace_path="t.csv").validate()

    def test_unusable_out_exits_2_before_any_step(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a step ran before out was created")

        monkeypatch.setattr(experiments, "collect_timestep", never)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        assert main(["routing", "--out", str(out), "--set", "steps=2"]) == 2
        assert f"config error: out={out} " in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["simulate", "dct-demo"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, scenario):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        assert main([scenario, "--out", str(out)]) == 2
        assert f"config error: out={out} " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, name",
        [("routing", "report_routing.csv"), ("dct-demo", "report_dct_demo.csv"), ("simulate", "trace.csv")],
    )
    def test_output_path_not_a_file_exits_2_before_any_step(self, tmp_path, capsys, monkeypatch, scenario, name):
        def never(*args, **kwargs):
            raise AssertionError("a step ran before the output path was checked")

        monkeypatch.setattr(experiments, "collect_timestep", never)
        monkeypatch.setattr(experiments, "solve_lp", never)
        path = tmp_path / name
        path.mkdir()
        assert main([scenario, "--out", str(tmp_path), "--set", "steps=2"]) == 2
        assert f"config error: {path} exists and is not a regular file" in capsys.readouterr().err
        assert path.is_dir() and not list(path.iterdir())

    @pytest.mark.parametrize("exists", [False, True], ids=["new-report", "existing-report"])
    def test_unwritable_output_exits_2_before_any_step(self, tmp_path, capsys, monkeypatch, exists):
        # the tests may run as root, for whom a mode bit denies nothing, so
        # the access check itself is what is made to refuse
        def never(*args, **kwargs):
            raise AssertionError("a step ran before the output path was checked")

        path = tmp_path / "report_routing.csv"
        if exists:
            path.write_text("old\n")
        asked = []
        monkeypatch.setattr(os, "access", lambda p, mode: asked.append(str(p)) and False)
        monkeypatch.setattr(experiments, "collect_timestep", never)
        assert main(["routing", "--out", str(tmp_path), "--set", "steps=2"]) == 2
        assert f"config error: {path} cannot be written" in capsys.readouterr().err
        assert asked == [str(path) if exists else str(tmp_path)]

    def test_overflowing_race_exits_3(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path), "--set", "base_speed_profile=0:1e308"]) == 3
        assert "runtime error: positions must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, named",
        [
            ("simulate --set init_length_m=1e155", "positions span 9.94e+154 x "),
            ("simulate --set speed_jitter_mps=1e200 --set duration_s=5", "positions span 3.26e+200 x "),
            ("routing --set base_speed_profile=0:1e305 --set graph_mode=truth --set steps=2", "stress=nan"),
            ("routing --set base_speed_profile=0:1e305 --set steps=2", "stress=nan"),
            ("stress {d}/huge.csv {d}/zero.csv", "stress=nan"),
        ],
    )
    def test_overflowing_magnitude_exits_3(self, tmp_path, capsys, args, named):
        # a frame whose squared spread overflows float64 would break the k-d
        # tree, and velocities whose squares overflow give a nan stress
        for name, v in [("huge", "1e200"), ("zero", "0")]:
            (tmp_path / f"{name}.csv").write_text(f"time_s,rider_id,v_mps\n1,0,{v}\n1,1,{v}\n")
        argv = args.format(d=tmp_path).split()
        if argv[0] != "stress":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert f"runtime error: {named}" in err
        assert "nan" not in out
        if argv[0] == "simulate":  # out is made once the race is simulated, as by every run
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args, line",
        [
            ("stress {d}/huge.csv {d}/zero.csv",
             "runtime error: stress=nan: the squared velocities or errors overflow float64"),
            ("simulate --set base_speed_profile=0:1e308 --set duration_s=5 --out {d}/out",
             "runtime error: positions must be finite"),
        ],
        ids=["stress", "simulate"],
    )
    def test_overflow_error_is_the_only_stderr_line(self, tmp_path, args, line):
        # numpy prints no overflow warning ahead of the error that names it
        for name, v in [("huge", "1e200"), ("zero", "0")]:
            (tmp_path / f"{name}.csv").write_text(f"time_s,rider_id,v_mps\n1,0,{v}\n1,1,{v}\n")
        env = {**os.environ, "PYTHONPATH": str(Path(csagg.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "csagg", *args.format(d=tmp_path).split()],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 3
        assert done.stderr == line + "\n"

    def test_aggregate_check_at_high_speed(self, tmp_path):
        # the hook's tolerance follows the size of each aggregate's terms: at
        # 1e6 m/s a run checks every message and reports what it would without
        reports = []
        for check in ("true", "false"):
            out = tmp_path / check
            args = ["routing", "--out", str(out), "--set", f"check_aggregates={check}",
                    "--set", "base_speed_profile=0:1e6", "--set", "steps=3"]
            assert main(args) == 0
            text = (out / "report_routing.csv").read_text()
            reports.append([line for line in text.splitlines() if not line.startswith("#")])
        assert len(reports[0]) == 4
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command, other", [("matrix", "simulate"), ("routing", "dct-demo"), ("dct-demo", "matrix")])
    def test_runner_writes_its_subcommands_report(self, tmp_path, command, other):
        # a Python caller states each input once: the runner sets the scenario
        # it runs, whatever the config names, and the config's seed seeds the
        # race, so the report is the subcommand's byte for byte
        keys = {"steps": 3, "k_measurements": 40, "dct_n": 40, "dct_k": 20, "dct_sparsity": 4, "dct_losses": 4}
        run = {"matrix": experiments.run_matrix, "routing": experiments.run_routing,
               "dct-demo": experiments.run_dct_demo}[command]
        result = run(ExperimentConfig(scenario=other, seed=5, out_dir=str(tmp_path / "api"), **keys))
        argv = [command, "--seed", "5", "--out", str(tmp_path / "cli")]
        for key, value in keys.items():
            argv += ["--set", f"{key}={value}"]
        assert main(argv) == 0
        name = f"report_{command.replace('-', '_')}.csv"
        assert result.report_path == str(tmp_path / "api" / name)
        assert (tmp_path / "api" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()

    def test_widest_finite_race_simulates(self, tmp_path):
        argv = ["simulate", "--out", str(tmp_path), "--set", "init_length_m=1e154", "--set", "duration_s=5"]
        assert main(argv) == 0

    def test_dct_demo_non_optimal_lp_exits_3(self, tmp_path, capsys, monkeypatch):
        infeasible = LpSolution(LpStatus.INFEASIBLE, None, float("nan"))
        monkeypatch.setattr(experiments, "solve_lp", lambda problem: infeasible)
        assert main(["dct-demo", "--out", str(tmp_path)]) == 3
        assert "runtime error: L1 recovery LP came back infeasible" in capsys.readouterr().err

    def test_largest_cap_m_runs(self, tmp_path):
        assert main(["routing", "--out", str(tmp_path), "--set", "cap_m=2147483648"] + FAST) == 0
        assert "cap_m=2147483648" in (tmp_path / "report_routing.csv").read_text()

    @pytest.mark.parametrize("scenario", ["matrix", "routing", "simulate", "dct-demo"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, scenario):
        args = [scenario, "--out", str(tmp_path), "--seed", "-1", "--set", "n=12",
                "--set", "duration_s=5", "--set", "steps=2", "--set", "k_neighbors=4",
                "--set", "k_measurements=6"]
        assert main(args) == 2
        assert "seed=-1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key,value", _NON_FINITE)
    def test_non_finite_number_exits_2(self, tmp_path, capsys, key, value):
        args = ["routing", "--out", str(tmp_path), "--set", "n=12", "--set", "duration_s=5",
                "--set", "steps=2", "--set", "k_neighbors=4", "--set", f"{key}={value}"]
        assert main(args) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    # every key whose value must parse; scenario and graph_mode take any text
    # and validate checks it, and trace and out are paths
    @pytest.mark.parametrize(
        "key, value",
        [(key, "abc") for key in KEYS if key not in ("scenario", "graph_mode", "trace", "out")]
        + [("check_aggregates", "maybe"), ("base_speed_profile", "")],
    )
    def test_unparseable_value_exits_2(self, tmp_path, capsys, key, value):
        assert main(["routing", "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
        assert f"bad value for {key!r}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_missing_config_file(self, capsys):
        assert main(["matrix", "--config", "/nonexistent/x.cfg"]) == 2

    def test_stress_subcommand(self, tmp_path, capsys):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        csv_a.write_text("time_s,rider_id,v_mps\n0.000,0,10.0\n0.000,1,10.0\n")
        csv_b.write_text("time_s,rider_id,v_mps\n0.000,0,10.0\n0.000,1,9.0\n")
        assert main(["stress", str(csv_a), str(csv_b)]) == 0
        out = capsys.readouterr().out
        assert "0.000,0.005" in out
        assert "# mean_stress=" in out

    def test_stress_disjoint_times(self, tmp_path, capsys):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        csv_a.write_text("time_s,rider_id,v_mps\n0.000,0,10.0\n")
        csv_b.write_text("time_s,rider_id,v_mps\n5.000,0,10.0\n")
        assert main(["stress", str(csv_a), str(csv_b)]) == 2

    def test_trace_ingestion_path(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)] + FAST) == 0
        args = ["matrix", "--out", str(tmp_path),
                "--set", f"trace={tmp_path / 'trace.csv'}",
                "--set", "steps=3", "--set", "k_measurements=6", "--set", "k_neighbors=4"]
        assert main(args) == 0
        assert (tmp_path / "report_matrix.csv").exists()

    def test_non_finite_trace_number_exits_2(self, tmp_path, capsys):
        trace = "time_s,rider_id,s_m,d_m\n0.0,0,0.0,0.0\n0.0,1,inf,0.0\n1.0,0,1.0,0.0\n1.0,1,2.0,0.0\n"
        (tmp_path / "trace.csv").write_text(trace)
        args = ["routing", "--out", str(tmp_path / "out"), "--set", f"trace={tmp_path / 'trace.csv'}",
                "--set", "k_neighbors=1"]
        assert main(args) == 2
        assert "line 3: non-finite s_m" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "rows, named",
        [
            ("0.0,0,0.0,0.0\n0.0,1,1.0,0.0\n", "one frame, at t=0.0: velocities need at least 2 frames"),
            ("0.0,0,0.0,0.0\n0.0,1,1.0,0.0\n1.0,0,1.0,0.0\n1.0,1,1e300,0.0\n",
             "frame t=1.0: positions span 1e+300 x 0 m"),
        ],
        ids=["one-frame", "1e300-m"],
    )
    def test_unusable_trace_exits_2(self, tmp_path, capsys, rows, named):
        # a trace no step can use is a bad input, named before out is made
        path = tmp_path / "trace.csv"
        path.write_text("time_s,rider_id,s_m,d_m\n" + rows)
        args = ["routing", "--out", str(tmp_path / "out"), "--set", f"trace={path}", "--set", "k_neighbors=1"]
        assert main(args) == 2
        assert f"config error: {path}: {named}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unreadable_csv_exits_2(self, tmp_path, capsys):
        for path in (tmp_path / "missing.csv", tmp_path):
            args = ["routing", "--out", str(tmp_path / "out"), "--set", f"trace={path}"]
            assert main(args) == 2
            assert f"cannot read {path}" in capsys.readouterr().err
            assert main(["stress", str(path), str(path)]) == 2
            assert f"cannot read {path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spelling", [["--set", "out="], ["--out", ""]])
    def test_empty_out_exits_2(self, tmp_path, capsys, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        assert main(["routing", *spelling] + FAST) == 2
        assert "out must name a directory" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    # bytes that are not UTF-8 on line 3 of each kind of input file
    @pytest.mark.parametrize(
        "kind, text",
        [
            ("trace", b"time_s,rider_id,s_m,d_m\n0.0,0,0.0,0.0\n0.0,1,\xff\xfe,0.0\n"),
            ("velocity", b"time_s,rider_id,v_mps\n0.000,0,10.0\n0.000,1,\xff\xfe\n"),
            ("config", b"n=12\nsteps=2\nloss_p=\xff\xfe\n"),
        ],
        ids=["trace", "velocity", "config"],
    )
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, kind, text):
        path = tmp_path / "input"
        path.write_bytes(text)
        out = ["--out", str(tmp_path / "out")]
        args = {
            "trace": ["routing", "--set", f"trace={path}", *out],
            "velocity": ["stress", str(path), str(path)],
            "config": ["routing", "--config", str(path), *out],
        }[kind]
        assert main(args) == 2
        assert f"{path}: line 3: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_k_neighbors_must_be_below_rider_count(self, tmp_path, capsys):
        assert main(["matrix", "--out", str(tmp_path), "--set", "n=8", "--set", "k_neighbors=10",
                     "--set", "duration_s=5", "--set", "steps=2"]) == 2
        assert "k_neighbors=10" in capsys.readouterr().err
        assert main(["simulate", "--out", str(tmp_path)] + FAST) == 0
        args = ["routing", "--out", str(tmp_path), "--set", f"trace={tmp_path / 'trace.csv'}",
                "--set", "steps=2", "--set", "k_neighbors=12"]
        assert main(args) == 2
        assert "k_neighbors=12" in capsys.readouterr().err

    def test_stress_of_stopped_peloton(self, tmp_path, capsys):
        rows = "time_s,rider_id,v_mps\n0.000,0,0.0\n0.000,1,0.0\n"
        (tmp_path / "a.csv").write_text(rows)
        (tmp_path / "b.csv").write_text(rows)
        assert main(["stress", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        assert "0.000,0\n" in capsys.readouterr().out

    def test_dct_sparsity_above_dct_n_exits_2(self, tmp_path, capsys):
        assert main(["dct-demo", "--out", str(tmp_path), "--set", "dct_sparsity=200"]) == 2
        assert "dct_sparsity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "truth, estimate, names",
        [
            # riders matched by id, not by sort order
            ("0.000,0,10.0\n0.000,1,10.0\n0.000,2,10.0\n",
             "0.000,0,10.0\n0.000,1,10.0\n0.000,7,10.0\n", ["t=0.0", "[2]", "[7]"]),
            # rider count mismatch
            ("0.000,0,10.0\n0.000,1,10.0\n0.000,2,10.0\n",
             "0.000,0,10.0\n0.000,1,10.0\n", ["t=0.0", "[2]"]),
            # duplicated (time, rider) cell
            ("0.000,0,10.0\n0.000,1,10.0\n0.000,1,9.0\n",
             "0.000,0,10.0\n0.000,1,10.0\n", ["t=0.0", "rider=1"]),
            # a timestamp in one file only
            ("0.000,0,10.0\n1.000,0,10.0\n", "0.000,0,10.0\n", ["t=1.0", "[0]"]),
            # a non-finite velocity, named by line and field
            ("0.000,0,10.0\n0.000,1,nan\n", "0.000,0,10.0\n0.000,1,10.0\n", ["line 3", "v_mps"]),
        ],
    )
    def test_stress_mismatch_rejected(self, tmp_path, capsys, truth, estimate, names):
        csv_a = tmp_path / "a.csv"
        csv_b = tmp_path / "b.csv"
        csv_a.write_text("time_s,rider_id,v_mps\n" + truth)
        csv_b.write_text("time_s,rider_id,v_mps\n" + estimate)
        assert main(["stress", str(csv_a), str(csv_b)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names), err

    @pytest.mark.parametrize(
        "scenario, key, values",
        [("matrix", "k_measurements", ["5", "7"]),
         ("routing", "loss_p", ["0", "0.3"]),
         ("dct-demo", "seed", ["0", "4"])],
    )
    def test_sweep_point_matches_single_run(self, tmp_path, capsys, scenario, key, values):
        args = ["--set", f"scenario={scenario}"] + FAST
        sweep = ["sweep", f"{key}={','.join(values)}", "--out", str(tmp_path / "sweep")]
        assert main(sweep + args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(values)
        report = f"report_{scenario.replace('-', '_')}.csv"
        for value, line in zip(values, lines):
            point = tmp_path / "sweep" / f"{key}={value}" / report
            assert line.startswith(f"wrote {point}: ")
            single = tmp_path / f"single_{value}"
            assert main([scenario, "--out", str(single)] + args + ["--set", f"{key}={value}"]) == 0
            assert point.read_bytes() == (single / report).read_bytes()

    def test_empty_sink_system_reports_no_data(self, tmp_path, capsys):
        # at range_m=1e-3 no sink hears any rider: every step has no equation
        args = ["routing", "--out", str(tmp_path), "--set", "n=12", "--set", "duration_s=5",
                "--set", "steps=2", "--set", "k_neighbors=4", "--set", "range_m=1e-3"]
        assert main(args) == 0
        rows = [line.split(",") for line in (tmp_path / "report_routing.csv").read_text().splitlines()
                if line and not line.startswith(("#", "time_s"))]
        assert len(rows) == 2
        for time_s, stress_, method, k, rank, _, uncoverable, _ in rows:
            assert (stress_, method, k, rank, uncoverable) == ("1", "no-data", "0", "0", "12")

    def test_no_data_step_keeps_previous_estimate(self, tmp_path, monkeypatch):
        cfg = load_config(None, ["scenario=matrix", f"out={tmp_path}", "n=12", "duration_s=20",
                                 "steps=4", "init_length_m=60", "k_measurements=6", "k_neighbors=4"])
        collect, reconstruct = experiments._collect_matrix, experiments.reconstruct
        estimates = []

        def starved(cfg_, trace, i, x):  # steps 0 and 2 reach no sink
            if i in (0, 2):
                return CollectionResult(Measurement(np.zeros((0, x.shape[0])), np.zeros(0)), 0, (), 0, 0.0)
            return collect(cfg_, trace, i, x)

        def recording(system, graph):
            estimates.append(reconstruct(system, graph))
            return estimates[-1]

        monkeypatch.setattr(experiments, "_collect_matrix", starved)
        monkeypatch.setattr(experiments, "reconstruct", recording)
        reports = experiments.run_matrix(cfg).reports
        _, vels = velocities(simulate_race(cfg.peloton))
        assert [r.method for r in reports] == ["no-data", "cs-lp", "no-data", "cs-lp"]
        assert [r.rows for r in reports] == [0, 6, 0, 6]
        assert reports[0].stress == 1.0  # zeros before the first estimate
        assert reports[2].stress == stress(vels[2], estimates[0][0])

    @pytest.mark.parametrize("mode", GRAPH_MODES)
    def test_graph_positions_per_mode(self, tmp_path, monkeypatch, mode):
        # truth: the true frame i at step i; reconstruction: frame 0 at step
        # 0, then frame 0's along-road positions moved by the estimates so
        # far, at lateral offset 0
        cfg = load_config(None, ["scenario=matrix", f"out={tmp_path}", "n=12", "duration_s=20",
                                 "steps=4", "init_length_m=60", "k_measurements=6", "k_neighbors=4",
                                 f"graph_mode={mode}"])
        knn, reconstruct = experiments.knn_graph, experiments.reconstruct
        seen, estimates = [], []

        def recording_knn(positions, k):
            seen.append(positions)
            return knn(positions, k)

        def recording(system, graph):
            result = reconstruct(system, graph)
            estimates.append(result[0])
            return result

        monkeypatch.setattr(experiments, "knn_graph", recording_knn)
        monkeypatch.setattr(experiments, "reconstruct", recording)
        experiments.run_matrix(cfg)
        trace = simulate_race(cfg.peloton)
        assert len(seen) == len(estimates) == 4
        s_hat = trace.pos[0, :, 0]
        for i, positions in enumerate(seen):
            assert positions.time == trace.times[i]
            if mode == "truth" or i == 0:
                want = trace.pos[i]
            else:
                s_hat = s_hat + cfg.peloton.dt * estimates[i - 1]
                want = np.column_stack([s_hat, np.zeros(cfg.peloton.n)])
            assert positions.pos.tobytes() == want.tobytes()

    # a simulated race is cut after the steps + 1 frames a run reads
    _RACE = ["n=20", "k_neighbors=4", "k_measurements=10", "init_length_m=60",
             "seed=3", "breakaway_rate=0.05"]

    def _recorded_run(self, monkeypatch, overrides):
        """The report lines of one run and the frame count of each race it simulated."""
        frames = []

        def recording(params):
            trace = simulate_race(params)
            frames.append(len(trace.times))
            return trace

        monkeypatch.setattr(experiments, "simulate_race", recording)
        cfg = load_config(None, overrides)
        run = experiments.run_matrix if cfg.scenario == "matrix" else experiments.run_routing
        return Path(run(cfg).report_path).read_text().splitlines(), frames

    @pytest.mark.parametrize(
        "scenario, steps, dt",
        [("matrix", 1, "1"), ("matrix", 7, "0.5"), ("routing", 6, "1"), ("routing", 3, "0.25")],
    )
    def test_steps_simulate_only_the_frames_they_read(self, tmp_path, monkeypatch, scenario, steps, dt):
        base = [f"scenario={scenario}", *self._RACE, f"steps={steps}", f"dt_s={dt}", f"out={tmp_path}"]
        whole, whole_frames = self._recorded_run(monkeypatch, base)  # duration_s=780
        cut, cut_frames = self._recorded_run(monkeypatch, base + [f"duration_s={(steps + 1) * float(dt)!r}"])
        assert whole_frames == cut_frames == [steps + 1]
        assert len(whole) == len(cut)
        differ = [(a, b) for a, b in zip(whole, cut) if a != b]
        assert [a for a, _ in differ] == ["# duration_s=780"]

    @pytest.mark.parametrize("steps", [0, 29, 500])
    def test_whole_race_when_steps_reach_its_end(self, tmp_path, monkeypatch, steps):
        lines, frames = self._recorded_run(
            monkeypatch,
            ["scenario=matrix", *self._RACE, "duration_s=30", f"steps={steps}", f"out={tmp_path}"],
        )
        assert frames == [30]
        assert sum(1 for line in lines if line[:1].isdigit()) == 29

    def test_sweep_rejects_simulate(self, tmp_path):
        args = ["sweep", "seed=1,2", "--set", "scenario=simulate", "--out", str(tmp_path / "s")]
        assert main(args + FAST) == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "points, message",
        [("k_measurements=5,0", "k_measurements"), ("k_measurements=5,5", "repeats"),
         ("k_neighbors=4,20", "k_neighbors=20")],
    )
    def test_sweep_checks_every_point_first(self, tmp_path, capsys, points, message):
        args = ["sweep", points, "--set", "scenario=matrix", "--out", str(tmp_path / "s")]
        assert main(args + FAST) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()
