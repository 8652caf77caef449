import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robkit import indicators
from robkit.cli import CSV_HEADER, main, parse_config
from robkit.gridspec import GridScheme, build_grid, choose_m
from robkit.reuse import chernoff_n
from robkit.uncsample import BlockShape

GOLDEN = Path(__file__).parent / "golden"


def layered(**overrides):
    return {"kind": "layered", "m_layers": 20, "i": 11, "j": 19, "d": 10, **overrides}


def layered_config(tmp_path, **overrides):
    cfg = {
        "system": layered(),
        "norm": "l2",
        "grid": {"scheme": "geometric", "lambda": 2.5, "a": 1.0, "m": 25},
        "sample": {"n": 200},
        "algorithm": "hsra",
        "seed": 1,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def state_space(**overrides):
    system = {
        "kind": "state_space",
        "a": [[-1, 0.5], [0, -2]],
        "b": [[1], [1]],
        "c": [[1, 0]],
        "region": {"kind": "half_plane"},
        "block": "real",
    }
    system.update(overrides)
    return system


def read_outputs(out_dir):
    csv = (out_dir / "curve.csv").read_text()
    report = json.loads((out_dir / "report.json").read_text())
    return csv, report


class TestRun:
    def test_layered_run_produces_curve_and_report(self, tmp_path):
        # N large enough that the sampled m_eq sits inside the mean bound
        cfg = layered_config(tmp_path, sample={"n": 4000})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        csv, report = read_outputs(out)
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 25
        # trailing transform columns stay empty without --emit-bbp
        assert lines[1].endswith(",,")
        assert report["measured_meq"] < 1 + math.log(2.5)
        assert report["N"] == 4000
        assert report["decomposition"] == [32, 128, 256, 512, 1024, 2048]

    def test_determinism_excluding_wall_time(self, tmp_path):
        cfg = layered_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        csv1, rep1 = read_outputs(out1)
        csv2, rep2 = read_outputs(out2)
        assert csv1 == csv2
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert rep1 == rep2

    def test_emit_bbp_fills_transform_columns(self, tmp_path):
        cfg = layered_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--emit-bbp"])
        assert code == 0
        csv, _ = read_outputs(out)
        last = csv.strip().split("\n")[-1].split(",")
        assert last[4] != "" and last[5] != ""
        assert 0.0 <= float(last[4]) <= 1.0

    def test_seed_override_changes_output(self, tmp_path):
        cfg = layered_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "99"])
        assert read_outputs(out1)[0] != read_outputs(out2)[0]

    @pytest.mark.parametrize("via", ["config", "flag"])
    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_is_config_error(self, tmp_path, capsys, seed, via):
        # the streams key on seed mod 2**64: -1 used to run as 2**64 - 1, and 2**64 as 0
        cfg = layered_config(tmp_path, **({"seed": seed} if via == "config" else {}))
        flags = ["--seed", str(seed)] if via == "flag" else []
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert f"config error: seed: must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_range_ends_run(self, tmp_path):
        cfg = layered_config(tmp_path)
        outs = []
        for seed in (0, 2**64 - 1):
            out = tmp_path / str(seed)
            assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", str(seed)]) == 0
            outs.append(read_outputs(out)[0])
        assert outs[0] != outs[1]

    def test_algo_override(self, tmp_path):
        cfg = layered_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--algo", "ssra"])
        _, report = read_outputs(out)
        assert report["algorithm"] == "ssra"

    def test_both_sample_plans_is_config_error(self, tmp_path):
        cfg = layered_config(
            tmp_path, sample={"n": 100, "epsilon": 0.05, "delta": 0.05}
        )
        assert main(["run", "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_runtime_error_names_direction_and_radius(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(delta):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            indicators,
            "layered_oracle",
            lambda *a: indicators.Indicator(broken, "always raises"),
        )
        cfg = layered_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "runtime error: boom" in err
        assert "indicator failed on direction 1 at radius" in err

    def test_missing_seed_warns_and_runs(self, tmp_path, capsys):
        cfg = layered_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["seed"]
        cfg.write_text(json.dumps(raw))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "warning: seed: missing, defaulted to 0" in capsys.readouterr().err

    def test_non_binary_indicator_value_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            indicators, "layered_oracle", lambda *a: indicators.Indicator(lambda d: 2, "two")
        )
        cfg = layered_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "indicator returned 2, not 0 or 1" in err
        assert "indicator failed on direction 1 at radius" in err

    @pytest.mark.parametrize("failure", ["raises", "returns_two"])
    def test_failing_batch_exits_3_naming_direction_and_radius(
        self, tmp_path, capsys, monkeypatch, failure
    ):
        # the indicator fails above norm 0.9, one row at a time and in batch;
        # the error line names the same direction and radius either way
        def fn(delta):
            if np.linalg.norm(delta.coords) <= 0.9:
                return 1
            if failure == "raises":
                raise RuntimeError("boom")
            return 2

        def batch(coords, shape):
            over = np.linalg.norm(coords, axis=1) > 0.9
            if failure == "raises" and over.any():
                raise RuntimeError("boom")
            return np.where(over, 2, 1)

        cfg = layered_config(tmp_path)
        lines = []
        for ind in (indicators.Indicator(fn, "rows"), indicators.Indicator(fn, "batch", batch)):
            monkeypatch.setattr(indicators, "layered_oracle", lambda *a, ind=ind: ind)
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1]
        assert "indicator failed on direction" in lines[1]
        assert "at radius" in lines[1]

    @pytest.mark.parametrize(
        "field, overrides",
        [
            ("grid.lambda", {"grid": {"scheme": "geometric", "lambda": "x", "a": 1.0, "m": 25}}),
            ("grid.m", {"grid": {"scheme": "geometric", "lambda": 2.5, "a": 1.0, "m": [3]}}),
            ("grid.a", {"grid": {"scheme": "geometric", "lambda": 2.5, "a": "NaN", "m": 25}}),
            ("sample.n", {"sample": {"n": "many"}}),
            ("seed", {"seed": "x"}),
            ("grid", {"grid": [2.5]}),
            ("out", {"out": 5}),
            ("system.m_layers", {"system": {"kind": "layered", "i": 11, "j": 19}}),
            ("system.m_layers", {"system": layered(m_layers="x")}),
            ("system.m_layers", {"system": layered(m_layers=1e400)}),
            ("system.kind", {"system": {"kind": "unheard_of"}}),
            ("system.d", {"system": layered(d=0)}),
            ("system", {"system": state_space(b=[[1], [1], [1]])}),
            ("system.region", {"system": state_space(region=[1])}),
            ("sample.epsilon", {"sample": {"epsilon": 5, "delta": 0.05}}),
            ("sample.epsilon", {"sample": {"epsilon": 1e-200, "delta": 0.05}}),
            ("system.block", {"system": state_space(block="cmplx")}),
            ("system.region.kind", {"system": state_space(region={"kind": "disc"})}),
            ("system.b", {"system": state_space(b=[[[1]], [[1]]])}),
            ("system.b", {"system": state_space(b=[[], []])}),
            ("grid.lambda", {"grid": {"scheme": "geometric", "lambda": 1.0000000000000002, "a": 1.0, "m": 25}}),
            ("grid.a", {"grid": {"scheme": "uniform", "lambda": 2.5, "a": 1e-322, "m": 25}}),
            ("sample", {"sample": {"epsilon": 0.05}}),
            # JSON numbers only, integral where an integer is meant
            ("sample.n", {"sample": {"n": 738.9}}),
            ("grid.m", {"grid": {"scheme": "geometric", "lambda": 2.5, "a": 1.0, "m": 39.5}}),
            ("system.d", {"system": layered(d=2.5)}),
            ("seed", {"seed": True}),
            ("seed", {"seed": "12"}),
            ("emit_bbp", {"emit_bbp": "no"}),
            ("system.a", {"system": state_space(a=[["-1"]], b=[[1]], c=[[1]])}),
            ("system.b", {"system": state_space(a=[[-1]], b=[[True]], c=[[1]])}),
            # step_servo limits: positive times, a non-negative overshoot
            ("system.rise_max", {"system": {"kind": "step_servo", "rise_max": -1}}),
            ("system.rise_max", {"system": {"kind": "step_servo", "rise_max": 0}}),
            ("system.settle_max", {"system": {"kind": "step_servo", "settle_max": 0.0}}),
            ("system.overshoot_max", {"system": {"kind": "step_servo", "overshoot_max": -0.1}}),
            # a time step of 2500 s: rise_max = 0.25 s spans under 10 of them
            ("system", {"system": {"kind": "step_servo", "settle_max": 1e6}}),
        ],
    )
    def test_malformed_field_is_config_error(
        self, tmp_path, capsys, monkeypatch, field, overrides
    ):
        monkeypatch.chdir(tmp_path)  # no --out, so that "out" is read from the config
        cfg = layered_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert f"error: {field}: " in out and "config ok" not in out

    @pytest.mark.parametrize(
        "field, overrides",
        [
            # a misspelt key would run with the default it was meant to replace
            ("algoritm", {"algoritm": "ssra"}),
            ("system.rise_mx", {"system": {"kind": "step_servo", "rise_mx": 0.01}}),
            ("system.k", {"system": layered(k=3)}),
            ("system.rise_max", {"system": {"kind": "servo_stability", "rise_max": 0.1}}),
            ("system.region.sigma_max", {"system": state_space(region={"kind": "disk", "sigma_max": 0.5})}),
            ("grid.lamda", {"grid": {"scheme": "geometric", "lambda": 2.5, "lamda": 3.0, "a": 1.0, "m": 25}}),
            ("sample.N", {"sample": {"n": 200, "N": 400}}),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_unknown_key_is_config_error(
        self, tmp_path, capsys, monkeypatch, command, field, overrides
    ):
        monkeypatch.chdir(tmp_path)
        cfg = layered_config(tmp_path, **overrides)
        if command == "run":
            assert main(["run", "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"config error: {field}: unknown key\n"
        else:
            assert main(["validate", "--config", str(cfg)]) == 0
            assert capsys.readouterr().out == f"error: {field}: unknown key\n"

    def test_unknown_keys_not_reported_under_unknown_kind(self, tmp_path, capsys):
        # which keys a system or region reads depends on its kind
        cfg = layered_config(
            tmp_path, system=state_space(kind="layerd", region={"kind": "disc", "radius": 2.0})
        )
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("error: system.kind: ") and "unknown key" not in out
        cfg = layered_config(tmp_path, system=state_space(region={"kind": "disc", "radius": 2.0}))
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("error: system.region.kind: ") and "unknown key" not in out

    @pytest.mark.parametrize("text", [b'{"seed": ' + b"1" * 5000 + b"}", b"\xff\xfe{}"])
    def test_undecodable_config_file_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(text)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys, command):
        # json.load raises RecursionError, not ValueError, on deep nesting
        cfg = tmp_path / "config.json"
        cfg.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, "--config", str(cfg)]) == 2
        assert "config error: maximum recursion depth exceeded" in capsys.readouterr().err

    def test_huge_settle_limit_runs_as_at_1e20(self, tmp_path):
        # a time step of 2.5e297 s: every stable loop has settled at the
        # first sample, as at 1e20, and no sample overflows; radii up to 20
        # reach unstable loops, so the curve falls to 0.4
        curves = []
        for settle_max in (1e300, 1e20):
            cfg = layered_config(
                tmp_path,
                system={"kind": "step_servo", "rise_max": 1e299, "settle_max": settle_max},
                grid={"scheme": "uniform", "lambda": 2.0, "a": 20.0, "m": 5},
                sample={"n": 10},
            )
            out = tmp_path / f"o{settle_max:g}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            curves.append(read_outputs(out)[0])
        assert curves[0] == curves[1]
        assert "\n5,20,0.4," in curves[0]

    def test_non_object_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error: top level: must be an object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_layered_curve_in_configured_norm(self, tmp_path, norm):
        # the shells are measured in the norm the directions are drawn in, so
        # the estimate follows the norm-free analytic curve
        n = 2000
        cfg = layered_config(tmp_path, norm=norm, sample={"n": n})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for line in read_outputs(out)[0].strip().split("\n")[1:]:
            _, r, p_hat = (float(cell) for cell in line.split(",")[:3])
            p = indicators.layered_scriptp(20, 11, 19, r)
            assert abs(p_hat - p) <= 5 * math.sqrt(p * (1 - p) / n) + 1e-9

    def test_chernoff_sizing_from_eps_delta(self, tmp_path):
        cfg = layered_config(tmp_path, sample={"epsilon": 0.2, "delta": 0.2})
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        _, report = read_outputs(out)
        assert report["N"] == math.floor(math.log(10.0) / 0.08) + 1


class TestValidate:
    def test_ok_config(self, tmp_path, capsys):
        cfg = layered_config(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_missing_seed_warns(self, tmp_path, capsys):
        cfg = layered_config(tmp_path)
        raw = json.loads(cfg.read_text())
        del raw["seed"]
        cfg.write_text(json.dumps(raw))
        main(["validate", "--config", str(cfg)])
        assert "seed" in capsys.readouterr().out

    def test_bad_lambda_and_m_reported(self, tmp_path, capsys):
        cfg = layered_config(
            tmp_path, grid={"scheme": "geometric", "lambda": 0.9, "a": 1.0, "m": 1}
        )
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "m" in out

    def test_parse_config_requires_one_grid_sizing(self):
        raw = {
            "system": {"kind": "layered", "m_layers": 20, "i": 11, "j": 19},
            "grid": {"scheme": "geometric", "lambda": 2.0, "a": 1.0},
            "sample": {"n": 10},
            "seed": 0,
        }
        cfg, report = parse_config(raw)
        assert cfg is None
        assert any("grid" in e for e in report.errors)

    def test_parse_config_builds_indicator_and_sizes_run(self):
        raw = {
            "system": state_space(block="complex"),
            "grid": {"scheme": "uniform", "lambda": 2.0, "a": 1.0, "epsilon": 0.05},
            "sample": {"epsilon": 0.2, "delta": 0.2},
            "seed": 0,
        }
        cfg, report = parse_config(raw)
        assert report.ok
        assert cfg.m == choose_m(GridScheme.UNIFORM, 2.0, 0.05)
        assert cfg.n == chernoff_n(0.2, 0.2)
        assert (cfg.d, cfg.shape) == (2, BlockShape.complex_matrix(1, 1))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
BASES = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*/config.json"))]


@st.composite
def one_field_replaced(draw):
    """A valid config with one top-level, system, grid or sample field (its
    own or a known one) replaced by any JSON value."""
    raw = copy.deepcopy(draw(st.sampled_from(BASES)))
    section = draw(st.sampled_from([raw, raw["system"], raw["grid"], raw["sample"]]))
    known = ["kind", "m_layers", "d", "k", "a", "b", "region", "block", "epsilon", "n", "seed"]
    section[draw(st.sampled_from(sorted(section) + known))] = draw(JSON_VALUES)
    return raw


class TestConfigFuzz:
    """parse_config is total and validate never raises.  Nothing here runs a
    config, so no drawn size is ever allocated."""

    def check(self, raw):
        cfg, report = parse_config(raw)
        assert (cfg is not None) == report.ok
        if cfg is not None:
            assert cfg.m >= 2 and cfg.n >= 1 and cfg.d >= 1 and cfg.lam > 1 and cfg.a > 0
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(raw))
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["validate", "--config", str(path)]) == 0
        assert ("config ok" in out.getvalue()) == report.ok

    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_any_json_value(self, raw):
        self.check(raw)

    @settings(max_examples=400, deadline=None)
    @given(one_field_replaced())
    def test_one_field_replaced(self, raw):
        self.check(raw)


class TestGridSpacing:
    """A grid that parse_config accepts can be built."""

    LAMBDAS = (
        st.floats(1.0, 2.0, exclude_min=True)
        | st.floats(1e-17, 1e-9).map(lambda x: 1.0 + x)
        | st.floats(2.0, 1e308)
    )
    AS = st.floats(5e-324, 1e308) | st.floats(1e-310, 1e-300)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["uniform", "geometric"]), LAMBDAS, AS, st.integers(2, 10**4))
    def test_accepted_grid_builds(self, scheme, lam, a, m):
        grid = {"scheme": scheme, "lambda": lam, "a": a, "m": m}
        cfg, _ = parse_config({"system": layered(), "grid": grid, "sample": {"n": 1}})
        if cfg is not None:
            assert build_grid(cfg.grid_scheme, cfg.lam, cfg.a, cfg.m).m == m
