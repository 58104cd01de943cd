import argparse
import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import types
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gelsolve
from gelsolve.cli import (
    COMMANDS, OPTIONS, _linspace, _number, emit_csv, emit_json, fmt, main, parse_args,
)
from gelsolve.errors import ConfigError, DomainError, ModelError, SolverError, UsageError
from gelsolve.measures import (
    ExponentialDensity, arm_measure_from_config, mass_measure_from_config,
)
from gelsolve.models import MODEL_NAMES, make_model
from gelsolve.oracle import initial_arms, initial_classic
from gelsolve.series import arms_concentrations, concentrations, limiting_concentrations

MONO = '{"type":"monodisperse"}'
ARMS = '{"type":"arm-law","mu":{"0":0.5,"1":0.25,"3":0.25}}'
GENERAL_ARMS = '{"type":"arms","triples":[[1,1,0.5],[3,2,0.5]]}'
POWERLAW = '{"type":"powerlaw","p":1.5}'
# an atom past --mmax 50, which the classic oracle's window cannot hold
OUTSIDE_MMAX = '{"type":"discrete","atoms":[[1,0.5],[60,0.001]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestFormatting:
    def test_17_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"

    def test_nonfinite_literals(self):
        assert fmt(math.inf) == "inf"
        assert fmt(-math.inf) == "-inf"
        assert fmt(math.nan) == "nan"


def _old_fmt(value):
    # the per-value formatter the bulk emitters must reproduce byte for byte
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return format(float(value), ".17g")


def _old_csv(header, rows):
    return ",".join(header) + "\n" + "".join(
        ",".join(_old_fmt(v) for v in row) + "\n" for row in rows
    )


def _old_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _old_jsonable(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_old_jsonable(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return _old_fmt(v)
        return float(_old_fmt(v))
    return obj


def _old_json(obj):
    stream = io.StringIO()
    json.dump(_old_jsonable(obj), stream, indent=2, sort_keys=True)
    stream.write("\n")
    return stream.getvalue()


# every double: nan (of any payload), +-inf, +-0.0 and subnormals included
DOUBLES = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
)
CELLS = st.one_of(
    DOUBLES,
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2e-308]),
    st.integers(-(2**63), 2**63 - 1),
    DOUBLES.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)
JSON_VALUES = st.recursive(
    st.one_of(
        DOUBLES, st.integers(-(2**63), 2**63 - 1), DOUBLES.map(np.float64),
        st.booleans(), st.none(), st.text(max_size=5),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=20,
)


class TestEmission:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_csv_matches_per_value_formatting(self, data):
        width = data.draw(st.integers(1, 5))
        header = [f"h{i}" for i in range(width)]
        rows = data.draw(st.lists(st.lists(CELLS, min_size=width, max_size=width)))
        if data.draw(st.booleans()):
            rows = [tuple(row) for row in rows]
        out = io.StringIO()
        emit_csv(header, rows, out)
        assert out.getvalue() == _old_csv(header, rows)
        assert all(fmt(v) == _old_fmt(v) for row in rows for v in row)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(obj=st.dictionaries(st.text(max_size=5), JSON_VALUES, max_size=6))
    def test_json_matches_round_tripped_dump(self, obj):
        out = io.StringIO()
        emit_json(obj, out)
        assert out.getvalue() == _old_json(obj)


class TestMoments:
    def test_mass_measure(self, capsys):
        code, out = run(capsys, "moments", "--measure", '{"type":"exponential"}')
        assert code == 0
        assert json.loads(out) == {"M0": 1.0, "K": 2.0, "m0": 0.0}

    def test_infinite_moment_serialized_as_string(self, capsys):
        code, out = run(
            capsys, "moments", "--measure", '{"type":"powerlaw","p":1.5}'
        )
        assert code == 0
        data = json.loads(out)
        assert data["M0"] == "inf" and data["K"] == "inf"

    def test_arm_measure(self, capsys):
        code, out = run(capsys, "moments", "--measure", ARMS)
        assert code == 0
        assert json.loads(out)["A0"] == 1.0


class TestTrajectory:
    def test_monodisperse_hyperbola(self, capsys):
        code, out = run(
            capsys,
            "trajectory",
            "--model", "smoluchowski",
            "--measure", MONO,
            "--t-end", "4", "--count", "9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,M,A,ell,alpha,beta,second_moment"
        for line in lines[1:]:
            t, m = (float(v) for v in line.split(",")[:2])
            expected = 1.0 if t <= 1.0 else 1.0 / t
            assert m == pytest.approx(expected, abs=1e-9)

    def test_deterministic(self, capsys):
        args = (
            "trajectory", "--model", "flory", "--measure", MONO,
            "--t-end", "3", "--count", "7",
        )
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_thread_env_does_not_change_output(self, capsys, monkeypatch):
        args = (
            "trajectory", "--model", "smoluchowski", "--measure", MONO,
            "--t-end", "3", "--count", "13",
        )
        _, serial = run(capsys, *args)
        monkeypatch.setenv("GELSOLVE_THREADS", "4")
        _, threaded = run(capsys, *args)
        assert serial == threaded

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, out = run(
            capsys,
            "trajectory", "--model", "smoluchowski", "--measure", MONO,
            "--t-end", "2", "--count", "3", "--output", str(path),
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("t,M,A,")

    def test_far_end_reaches_the_limit(self, capsys):
        # t = 1e308 lies past the last panel of t(ell): ell_t is ell_inf there
        from gelsolve.measures import ArmMeasure
        from gelsolve.models import SmoluchowskiArms

        code, out = run(
            capsys, "trajectory", "--model", "smoluchowski-arms",
            "--measure", ARMS, "--t-end", "1e308", "--count", "3",
        )
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        lim = SmoluchowskiArms(
            ArmMeasure.monodisperse({0: 0.5, 1: 0.25, 3: 0.25})
        ).limit()
        assert float(last[0]) == 1e308
        assert float(last[3]) == pytest.approx(lim.ell, rel=1e-12, abs=0.0)
        assert float(last[5]) == pytest.approx(lim.beta, rel=1e-12, abs=0.0)


    @pytest.mark.parametrize("measure", [MONO, '{"type":"exponential"}'])
    def test_flory_root_below_the_doubles(self, capsys, measure):
        # ell_t ~ e^(-t M0) is below the smallest normal double from t ~ 709 on
        code = main([
            "trajectory", "--model", "flory", "--measure", measure,
            "--t-end", "1e3", "--count", "3",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "underflows" in err


class TestOutputFile:
    def test_failed_request_leaves_the_file_as_it_was(self, capsys, tmp_path):
        path = tmp_path / "keep.csv"
        path.write_text("earlier output\n")
        code = main([
            "trajectory", "--model", "flory", "--measure", '{"type":"bogus"}',
            "--t-end", "2", "--output", str(path),
        ])
        assert code == 2 and capsys.readouterr().err.startswith("config error:")
        assert path.read_text() == "earlier output\n"

    @pytest.mark.parametrize("where", ["a directory", "a missing directory"])
    def test_unwritable_path_is_one_config_error(self, capsys, tmp_path, where):
        path = tmp_path if where == "a directory" else tmp_path / "missing" / "x.json"
        code = main(["moments", "--measure", MONO, "--output", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: cannot write output file {path}:")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_failed_validation_still_writes_its_table(self, capsys, tmp_path):
        # the window mass up to m = 20 falls short of the model's mass: exit 1
        path = tmp_path / "validate.csv"
        args = ["validate", "--model", "smoluchowski", "--measure", MONO,
                "--t-end", "0.9", "--dt", "0.01", "--mmax", "20"]
        code, out = run(capsys, *args)
        assert code == 1
        assert main(args + ["--output", str(path)]) == 1
        assert capsys.readouterr().out == ""
        assert path.read_text() == out


class TestConcentrations:
    def test_classic(self, capsys):
        code, out = run(
            capsys,
            "concentrations", "--model", "smoluchowski",
            "--measure", MONO, "--t", "0.5", "--order", "3",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        c1 = float(rows[0].split(",")[1])
        assert c1 == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_arms(self, capsys):
        code, out = run(
            capsys,
            "concentrations", "--model", "flory-arms",
            "--measure", ARMS, "--t", "1", "--amax", "3", "--mmax", "3",
        )
        assert code == 0
        table = {}
        for line in out.strip().splitlines()[1:]:
            a, m, c = line.split(",")
            table[(int(float(a)), int(float(m)))] = float(c)
        assert table[(0, 2)] == pytest.approx(1 / 64)

    def test_arms_past_the_last_flow_panel(self, capsys, mp_arms_flow):
        # alpha_t is finite at t = 1e17 on the README law, about 5e16: row 0 is
        # the limit, and row 1 is the closed form at the 40-digit alpha_t,
        # (m-1)!/m! beta^(m-1) alpha^-1 nu^{*m}(m-1) with nu = (1/4, 0, 3/4):
        # 0 at even m, and at m = 3 beta^2 / alpha * 9/64 / 3, beta = 1/(1.5 ell)
        code, out = run(
            capsys,
            "concentrations", "--model", "smoluchowski-arms",
            "--measure", ARMS, "--t", "1e17", "--amax", "1", "--mmax", "4",
        )
        assert code == 0
        assert "nan" not in out
        table = {}
        for line in out.strip().splitlines()[1:]:
            a, m, c = line.split(",")
            table[(int(a), int(m))] = float(c)
        assert table[(0, 2)] == pytest.approx(0.036084391824351643, rel=1e-12, abs=0.0)
        assert table[(0, 4)] == pytest.approx(0.0060140653040586045, rel=1e-12, abs=0.0)
        c, u, alpha, _ = mp_arms_flow(arm_measure_from_config(json.loads(ARMS)), 1e17)
        with mp.workdps(40):
            beta = 1 / (mp.mpf(1.5) * (c + u))
            row1 = float(beta**2 / alpha * mp.mpf(9) / 64 / 3)
        assert table[(1, 2)] == table[(1, 4)] == 0.0
        assert table[(1, 3)] == pytest.approx(row1, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "model, spec, a_max, m_max",
        [
            ("flory-arms", ARMS, 0, 5),
            ("smoluchowski-arms", ARMS, 3, 11),
            ("flory-arms", ARMS, 11, 3),
            # the README law given as triples [arms, mass, weight], all at mass 1
            ("smoluchowski-arms",
             '{"type":"arms","triples":[[0,1,0.5],[1,1,0.25],[3,1,0.25]]}', 4, 6),
        ],
    )
    def test_arms_table_matches_per_cell_rows(self, capsys, model, spec, a_max, m_max):
        code, out = run(
            capsys,
            "concentrations", "--model", model, "--measure", spec, "--t", "0.7",
            "--amax", str(a_max), "--mmax", str(m_max),
        )
        solved = make_model(model, arm_measure_from_config(json.loads(spec)))
        values = arms_concentrations(solved, 0.7, a_max, m_max)
        rows = [
            (a, m, values[a, m]) for a in range(a_max + 1) for m in range(1, m_max + 1)
        ]
        assert code == 0
        assert out == _old_csv(("a", "m", "c"), rows)

    @pytest.mark.parametrize("order", [1, 7, 300])
    def test_classic_table_matches_per_cell_rows(self, capsys, order):
        code, out = run(
            capsys,
            "concentrations", "--model", "flory", "--measure", MONO, "--t", "0.7",
            "--order", str(order),
        )
        solved = make_model("flory", mass_measure_from_config(json.loads(MONO)))
        c = concentrations(solved, 0.7, order)
        assert code == 0
        assert out == _old_csv(("m", "c"), [(m, c[m]) for m in range(1, order + 1)])


class TestLimits:
    def test_flory_arms(self, capsys):
        code, out = run(
            capsys, "limits", "--model", "flory-arms", "--measure", ARMS
        )
        assert code == 0
        data = json.loads(out)
        assert data["T_gel"] == 2.0
        assert data["p_nu_or_c"] == pytest.approx(1 / 3, abs=1e-9)
        assert data["M_inf"] == pytest.approx(16 / 27, abs=1e-9)

    def test_rejected_for_classic(self, capsys):
        code, _ = run(capsys, "limits", "--model", "flory", "--measure", MONO)
        assert code == 2

    def test_tangency_far_below_one(self, capsys):
        # D(x) = 3 x^2 - 1e-200: Newton from x = 1/2 halves x towards
        # c = (1e-200/3)^(1/2), so the root solver must leave its linear phase
        code, out = run(
            capsys, "limits", "--model", "smoluchowski-arms", "--measure",
            '{"type":"arm-law","mu":{"1":1e-200,"3":1}}',
        )
        assert code == 0
        with mp.workdps(40):
            mu1 = mp.mpf(1e-200)
            c = mp.sqrt(mu1 / 3)
            beta = c / (mu1 + 3 * c**2)  # c / k0(c), k0(x) = mu(1) + 3 x^2
        assert json.loads(out)["beta_inf"] == pytest.approx(float(beta), rel=1e-10)


class TestValidate:
    def test_pass(self, capsys):
        code, out = run(
            capsys,
            "validate", "--model", "smoluchowski", "--measure", MONO,
            "--t-end", "0.5", "--mmax", "80", "--dt", "0.005", "--tol", "1e-4",
        )
        assert code == 0
        assert out.startswith("t,analytic,oracle,abs_error")

    def test_failure_exit_code(self, capsys):
        # a tight truncation loses visible mass to the gel before T_gel
        code, _ = run(
            capsys,
            "validate", "--model", "flory", "--measure", MONO,
            "--t-end", "1.0", "--mmax", "30", "--dt", "0.01", "--tol", "1e-8",
        )
        assert code == 1

    @pytest.mark.parametrize("model, measure, shape", [
        ("flory", MONO, (11,)),
        ("flory-arms", ARMS, (6,)),
        ("smoluchowski", MONO, (11,)),
        ("smoluchowski-arms", ARMS, (6,)),
    ])
    def test_oracle_truncation_follows_the_model(self, capsys, monkeypatch, model, measure, shape):
        # every model gets the one truncation, called once, without a flavor
        # keyword; the model's family picks the window it integrates: masses
        # up to --mmax, or the arm marginal up to --amax, where --mmax does nothing
        shapes = []
        real = gelsolve.cli.integrate

        def recorded(initial, t_grid, dt):
            shapes.append(initial.c.shape)
            return real(initial, t_grid, dt)

        monkeypatch.setattr(gelsolve.cli, "integrate", recorded)
        run(
            capsys,
            "validate", "--model", model, "--measure", measure,
            "--t-end", "0.1", "--dt", "0.01", "--mmax", "10", "--amax", "5",
        )
        assert shapes == [shape]

    @pytest.mark.parametrize("mmax", [None, "10", "120"])
    def test_general_arm_data_validates(self, capsys, mmax):
        # the arm marginal takes any arm data, at any mass, and --mmax has no
        # effect on it
        triples = '{"type":"arms","triples":[[1,1,0.4],[3,50,0.2]]}'
        argv = ["validate", "--model", "flory-arms", "--measure", triples,
                "--t-end", "0.3", "--dt", "1e-3", "--amax", "40"]
        code, out = run(capsys, *argv, *(("--mmax", mmax) if mmax else ()))
        assert code == 0
        errors = [float(line.split(",")[3]) for line in out.splitlines()[1:]]
        assert len(errors) == 11 and max(errors) <= 1e-13

    def test_mmax_has_no_effect_on_arms(self, capsys):
        argv = ("validate", "--model", "smoluchowski-arms", "--measure", ARMS,
                "--t-end", "1", "--dt", "0.01", "--amax", "20", "--tol", "1")
        outs = [run(capsys, *argv, *m) for m in ((), ("--mmax", "1"), ("--mmax", "500"))]
        assert outs[0][0] == 0
        assert outs[1] == outs[0] and outs[2] == outs[0]

    @pytest.mark.parametrize("model, measure, window", [
        ("flory", MONO, ("--mmax", "1")),
        ("smoluchowski-arms", ARMS, ("--amax", "0")),
    ], ids=["classic", "arms"])
    def test_window_below_the_oracles_least_is_a_config_error(
        self, capsys, model, measure, window
    ):
        # the oracle needs masses 1 and 2 (classic) or arm counts 0 and 1 (arms)
        assert_config_error(capsys, (
            "validate", "--model", model, "--measure", measure, *window,
            "--t-end", "0.1", "--dt", "0.01",
        ))

    @pytest.mark.parametrize("models, measure, window, t_end", [
        (("smoluchowski", "flory"), MONO, ("--mmax", "30"), "0.9"),
        (("smoluchowski-arms", "flory-arms"), ARMS, ("--amax", "20", "--mmax", "20"), "1.5"),
    ], ids=["classic", "arms"])
    def test_gel_inert_and_gel_interacting_agree_before_t_gel(
        self, capsys, models, measure, window, t_end
    ):
        # the oracle has one truncation, and before T_gel the two models are
        # the same equations: validate prints the same bytes for both
        outs = [
            run(capsys, "validate", "--model", model, "--measure", measure, *window,
                "--t-end", t_end, "--dt", "0.01", "--tol", "1")
            for model in models
        ]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0

    def test_flavor_flag_is_gone(self, capsys):
        assert main(["validate", "--model", "smoluchowski", "--measure", MONO,
                     "--flavor", "gel-interacting"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "--flavor" in err

    def test_flavor_in_config_is_a_config_error(self, capsys, tmp_path):
        # a stale setting is not ignored in silence
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"flavor": "gel-interacting"}))
        assert_config_error(capsys, (
            "validate", "--config", str(path), "--model", "smoluchowski", "--measure", MONO,
            "--t-end", "0.1", "--dt", "0.01", "--mmax", "10",
        ))

    def test_overflowing_step_is_one_line(self):
        # dt = 1e307 overflows the oracle's state; a fresh interpreter shows
        # every line that numpy's warnings would add to stderr
        env = dict(os.environ, PYTHONPATH=str(Path(gelsolve.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "gelsolve.cli",
             "validate", "--model", "flory", "--measure", MONO,
             "--t-end", "1e308", "--dt", "1e307", "--mmax", "10"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


class TestConfigHandling:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "smoluchowski",
                    "initial": {"type": "monodisperse"},
                    "time_grid": {"end": 2.0, "count": 5},
                }
            )
        )
        code, out = run(capsys, "trajectory", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "smoluchowski",
                    "initial": {"type": "monodisperse"},
                    "time_grid": {"end": 2.0, "count": 5},
                }
            )
        )
        code, out = run(
            capsys, "trajectory", "--config", str(cfg), "--count", "3"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_missing_measure(self, capsys):
        code, _ = run(capsys, "trajectory", "--model", "smoluchowski")
        assert code == 2

    def test_bad_grid(self, capsys):
        code, _ = run(
            capsys,
            "trajectory", "--model", "smoluchowski", "--measure", MONO,
            "--t-end", "0",
        )
        assert code == 2

    def test_incompatible_model_measure(self, capsys):
        code, _ = run(
            capsys,
            "trajectory", "--model", "flory",
            "--measure", '{"type":"powerlaw","p":1.5}',
            "--t-end", "1",
        )
        assert code != 0

    def test_unreadable_config(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        code, _ = run(capsys, "trajectory", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("moments", "--measure", '{"type":"powerlaw"}'),
            ("moments", "--measure", '{"type":"discrete","atoms":[["x",1]]}'),
            ("trajectory", "--model", "smoluchowski", "--t-end", "1",
             "--measure", '{"type":"discrete","atoms":[["x",1]]}'),
            ("concentrations", "--model", "smoluchowski", "--measure", MONO,
             "--t", "-1"),
            ("concentrations", "--model", "flory-arms", "--measure", ARMS,
             "--t", "inf"),
            ("concentrations", "--model", "smoluchowski", "--measure", MONO,
             "--t", "inf"),
            ("trajectory", "--model", "smoluchowski-arms", "--measure", ARMS,
             "--t-end", "inf"),
            ("concentrations", "--model", "flory-arms", "--measure", GENERAL_ARMS,
             "--t", "1"),
            ("concentrations", "--model", "smoluchowski-arms",
             "--measure", GENERAL_ARMS, "--t", "1"),
            ("limits", "--model", "flory-arms", "--measure", GENERAL_ARMS),
            ("limits", "--model", "smoluchowski-arms", "--measure", GENERAL_ARMS),
            ("concentrations", "--model", "smoluchowski",
             "--measure", '{"type":"exponential"}', "--t", "0.5"),
            ("concentrations", "--model", "smoluchowski",
             "--measure", '{"type":"discrete","atoms":[[1.5,1]]}', "--t", "0.5"),
            ("trajectory", "--model", "flory", "--measure", POWERLAW,
             "--t-end", "1"),
            ("validate", "--model", "flory", "--measure", POWERLAW),
            ("validate", "--model", "flory-arms", "--measure", ARMS,
             "--amax", "2", "--mmax", "10", "--t-end", "0.1", "--dt", "0.01"),
            ("validate", "--model", "smoluchowski", "--measure", OUTSIDE_MMAX,
             "--mmax", "50", "--t-end", "0.01", "--dt", "0.001", "--tol", "1"),
            ("trajectory", "--measure", MONO, "--t-end", "1", {"model": ["flory"]}),
            ("trajectory", "--measure", MONO, "--t-end", "1", {"model": {"flory": 1}}),
            ("trajectory", "--model", "flory", "--measure", MONO, {"time_grid": [1]}),
            ("trajectory", "--model", "flory", "--measure", MONO, {"time_grid": None}),
            ("trajectory", "--model", "flory", "--measure", MONO, {"time_grid": "ab"}),
        ],
        ids=["powerlaw-without-p", "moments-non-numeric-atom",
             "trajectory-non-numeric-atom", "negative-time",
             "infinite-time-flory-arms", "infinite-time-smoluchowski",
             "infinite-grid-end-smoluchowski-arms",
             "concentrations-general-arms-flory-arms",
             "concentrations-general-arms-smoluchowski-arms",
             "limits-general-arms-flory-arms",
             "limits-general-arms-smoluchowski-arms",
             "concentrations-exponential", "concentrations-non-integer-mass",
             "trajectory-flory-powerlaw", "validate-flory-powerlaw",
             "validate-arm-atom-outside-amax", "validate-atom-outside-mmax",
             "config-model-list",
             "config-model-object", "config-time-grid-list", "config-time-grid-null",
             "config-time-grid-string"],
    )
    def test_malformed_input_is_a_config_error(self, capsys, tmp_path, argv):
        path = tmp_path / "cfg.json"
        args = []
        for arg in argv:
            if isinstance(arg, dict):  # a config file holding it
                path.write_text(json.dumps(arg))
                args += ["--config", str(path)]
            else:
                args.append(arg)
        code = main(args)
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    # roots are solved to one fixed tolerance: any solver key is an error
    @pytest.mark.parametrize("solver", [
        {"ode_dt": 0.5}, {"root_tl": 1e-9}, [1], {"root_tol": 1e-12}, {"max_iter": 200}, {},
    ])
    def test_unknown_solver_setting_is_a_config_error(self, capsys, tmp_path, solver):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"solver": solver}))
        code = main(["trajectory", "--config", str(path), "--model", "smoluchowski",
                     "--measure", MONO, "--t-end", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "cfg",
        [
            {"time_grid": {"end": True}},
            {"time_grid": {"end": 2.0, "count": True}},
            {"time_grid": {"start": False, "end": 2.0}},
            {"command": "concentrations", "t": 2.0, "order": True},
            {"command": "concentrations", "t": True},
            {"command": "validate", "dt": True},
            {"command": "limits", "model": "flory-arms", "initial": json.loads(ARMS),
             "m_max": True},
        ],
        ids=["grid-end", "grid-count", "grid-start", "order",
             "t", "validate-dt", "limits-m-max"],
    )
    def test_json_boolean_is_not_a_number(self, capsys, tmp_path, cfg):
        # float(True) and int(True) are 1: a boolean must not pass for a number
        cfg = {"model": "flory", "initial": json.loads(MONO), **cfg}
        command = cfg.pop("command", "trajectory")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "is not a number" in err

    def test_geometric_spacing(self, capsys):
        code, out = run(
            capsys,
            "trajectory", "--model", "smoluchowski", "--measure", MONO,
            "--t-start", "0.1", "--t-end", "10", "--count", "5",
            "--spacing", "geometric",
        )
        assert code == 0
        ts = [float(l.split(",")[0]) for l in out.strip().splitlines()[1:]]
        ratios = [b / a for a, b in zip(ts, ts[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


GRID_ENDS = st.one_of(
    st.floats(0.0, 1e308), st.floats(0.0, 1e-300), st.sampled_from([0.0, 5e-324, 1e-323])
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(ends=st.lists(GRID_ENDS, min_size=2, max_size=2, unique=True), count=st.integers(2, 300))
@example(ends=[0.0, 5e-324], count=3)  # the step underflows to 0
@example(ends=[0.0, 5e-324], count=4)  # and i * step would differ from numpy's
@example(ends=[1.0, 1.0 + 2.0**-52], count=4)
def test_linear_grid_is_numpy_linspace_to_the_bit(ends, count):
    start, end = sorted(ends)
    grid = _linspace(start, end, count)
    assert all(type(t) is float for t in grid)
    assert [t.hex() for t in grid] == [t.hex() for t in np.linspace(start, end, count).tolist()]


def assert_config_error(capsys, argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1


class TestNonFiniteMeasureData:
    # JSON's NaN and Infinity literals parse to floats; no measure takes them,
    # nor finite atoms whose sums overflow (that was "root underflows", exit 1)
    @pytest.mark.parametrize("argv", [
        ("concentrations", "--model", "smoluchowski", "--t", "0.5", "--order", "4",
         "--measure", '{"type":"discrete","atoms":[[NaN,1]]}'),
        ("concentrations", "--model", "smoluchowski", "--t", "0.5", "--order", "4",
         "--measure", '{"type":"discrete","atoms":[[Infinity,1]]}'),
        ("trajectory", "--model", "flory", "--t-end", "2", "--count", "3",
         "--measure", '{"type":"discrete","atoms":[[1,NaN]]}'),
        ("trajectory", "--model", "smoluchowski", "--t-end", "2", "--count", "3",
         "--measure", '{"type":"discrete","atoms":[[1,Infinity]]}'),
        ("moments", "--measure", '{"type":"arm-law","mu":{"0":0.5,"1":0.25,"3":NaN}}'),
        ("trajectory", "--model", "flory-arms", "--t-end", "2", "--count", "3",
         "--measure", '{"type":"arm-law","mu":{"0":0.5,"1":0.25,"3":Infinity}}'),
        ("trajectory", "--model", "smoluchowski-arms", "--t-end", "2", "--count", "3",
         "--measure", '{"type":"arms","triples":[[1,1,0.5],[3,1,NaN]]}'),
        ("moments", "--measure", '{"type":"arms","triples":[[Infinity,1,1]]}'),
        ("moments", "--measure", '{"type":"arms","triples":[[1,Infinity,1]]}'),
        ("trajectory", "--model", "smoluchowski", "--t-end", "1", "--count", "3",
         "--measure", '{"type":"discrete","atoms":[[1,1e308],[2,1e308]]}'),
        ("trajectory", "--model", "flory-arms", "--t-end", "1", "--count", "3",
         "--measure", '{"type":"arm-law","mu":{"0":1e308,"3":1e308}}'),
        ("moments", "--measure", '{"type":"discrete","atoms":[[0.9,1e308],[0.9,1e308]]}'),
    ], ids=["mass-nan", "mass-inf", "weight-nan", "weight-inf", "arm-law-nan",
            "arm-law-inf", "triple-weight-nan", "triple-arms-inf", "triple-mass-inf",
            "discrete-moments-overflow", "arm-law-sums-overflow", "first-moment-overflow"])
    def test_is_a_config_error(self, capsys, argv):
        assert_config_error(capsys, argv)


class TestNonIntegralOrBooleanMeasureData:
    # int() truncated 1.5 arms to 1 and float() read true as 1
    @pytest.mark.parametrize("measure", [
        '{"type":"arms","triples":[[1.5,1.7,1]]}',
        '{"type":"arms","triples":[[3,1.5,1]]}',
        '{"type":"discrete","atoms":[[true,1]]}',
        '{"type":"arm-law","mu":{"3":true}}',
    ], ids=["triple-arms", "triple-mass", "atom-mass", "arm-law-weight"])
    def test_is_a_config_error(self, capsys, measure):
        assert_config_error(capsys, ("moments", "--measure", measure))

    def test_integral_float_arm_count_is_taken(self, capsys):
        code, out = run(capsys, "moments", "--measure", '{"type":"arms","triples":[[3.0,1,1]]}')
        assert code == 0
        assert json.loads(out)["A0"] == 3.0


class TestSizes:
    def test_zero_amax_is_taken_literally(self, capsys):
        code, out = run(
            capsys,
            "concentrations", "--model", "flory-arms",
            "--measure", ARMS, "--t", "1", "--amax", "0", "--mmax", "3",
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["0", "1"], ["0", "2"], ["0", "3"]]

    @pytest.mark.parametrize(
        "argv",
        [
            ("concentrations", "--model", "smoluchowski", "--measure", MONO,
             "--t", "0.5", "--order", "0"),
            ("concentrations", "--model", "smoluchowski", "--measure", MONO,
             "--t", "0.5", "--order", "-3"),
            ("concentrations", "--model", "smoluchowski-arms", "--measure", ARMS,
             "--t", "1", "--amax", "-2"),
            ("concentrations", "--model", "flory-arms", "--measure", ARMS,
             "--t", "1", "--mmax", "0"),
            ("limits", "--model", "flory-arms", "--measure", ARMS, "--mmax", "-3"),
            ("validate", "--model", "flory", "--measure", MONO, "--mmax", "0"),
        ],
        ids=["order-0", "order-negative", "amax-negative", "mmax-0",
             "limits-mmax-negative", "validate-mmax-0"],
    )
    def test_bad_size_is_a_config_error(self, capsys, argv):
        assert_config_error(capsys, argv)

    def test_fractional_size_in_config_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"order": 2.7}))
        assert_config_error(capsys, (
            "concentrations", "--config", str(path), "--model", "flory",
            "--measure", MONO, "--t", "0.5",
        ))

    @pytest.mark.parametrize("argv, cfg", [
        (("validate",), '{"m_max": 1e400}'),
        (("concentrations", "--t", "0.5"), '{"order": Infinity}'),
        (("trajectory",), '{"time_grid": {"end": 2.0, "count": 1e400}}'),
        (("trajectory",), '{"time_grid": {"end": 2.0, "count": 3.9}}'),
        (("concentrations",), '{"t": 1%s}' % ("0" * 400)),
        (("validate",), '{"dt": 1%s}' % ("0" * 400)),
        (("trajectory",), '{"time_grid": {"end": 1%s}}' % ("0" * 400)),
    ], ids=["m-max-1e400", "order-infinity", "count-1e400", "count-fractional",
            "t-400-digits", "dt-400-digits", "end-400-digits"])
    def test_number_out_of_range_in_config_is_a_config_error(self, capsys, tmp_path, argv, cfg):
        # int() of an infinity and float() of a 400-digit integer overflow, and
        # int() would truncate a fractional count
        path = tmp_path / "cfg.json"
        path.write_text(cfg)
        assert_config_error(capsys, (
            *argv, "--config", str(path), "--model", "flory", "--measure", MONO,
        ))


class TestUsageErrors:
    # argparse printed a usage block and raised SystemExit, which no caller
    # that catches Exception survives
    @pytest.mark.parametrize("argv, named", [
        (("concentrations", "--model", "flory", "--measure", MONO, "--t", "abc"), "'abc'"),
        (("moments", "--measure", MONO, "--bogus", "1"), "--bogus"),
        (("bogus",), "'bogus'"),
        ((), "command"),
    ], ids=["bad-float", "unknown-flag", "unknown-subcommand", "no-subcommand"])
    def test_malformed_command_line_is_one_usage_line(self, capsys, argv, named):
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: gelsolve")
        assert captured.err.count("\n") == 1
        assert named in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (("moments", "--measure=--"), "--measure"),
        (("moments", "--config=--", "--measure", MONO), "--config"),
        (("trajectory", "--model=--", "--measure", MONO, "--t-end", "1"), "--model"),
        (("moments", "--measure", MONO, "--output=--"), "--output"),
        (("validate", "--model", "flory", "--measure", MONO, "--t-end=--"), "--t-end"),
    ], ids=["measure", "config", "model", "output", "number"])
    def test_empty_value_is_a_usage_error(self, capsys, tmp_path, monkeypatch, argv, flag):
        # "--flag=--" leaves an empty value, as argparse's removal of "--"
        # does; it is no measure, file or model, and no flag acts as if absent
        monkeypatch.chdir(tmp_path)
        assert main(list(argv)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: gelsolve {argv[0]}: argument {flag}: expected one argument\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_help_still_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trajectory", "--help"])
        assert exc.value.code == 0
        assert "--t-end" in capsys.readouterr().out


class _Parser(argparse.ArgumentParser):
    """The reference for `parse_args`: the argparse parser that the option table replaced."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gelsolve",
        description="Global solver for four coagulation models with gelation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--model", choices=sorted(MODEL_NAMES))
        p.add_argument("--measure", help="initial measure as inline JSON")
        p.add_argument("--output", help="write to this file instead of stdout")

    p = sub.add_parser("moments", help="moments of the initial measure")
    common(p)

    p = sub.add_parser("trajectory", help="solved quantities on a time grid")
    common(p)
    p.add_argument("--t-start", type=float, dest="t_start")
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--count", type=int)
    p.add_argument("--spacing", choices=("linear", "geometric"))

    p = sub.add_parser("concentrations", help="c_t(m) or c_t(a,m) at one time")
    common(p)
    p.add_argument("--t", type=float)
    p.add_argument("--order", type=int, help="series order (classic models)")
    p.add_argument("--amax", type=int)
    p.add_argument("--mmax", type=int)

    p = sub.add_parser("limits", help="long-time limits (arms models)")
    common(p)
    p.add_argument("--mmax", type=int)

    p = sub.add_parser("validate", help="compare against the ODE oracle")
    common(p)
    p.add_argument("--t-end", type=float, dest="t_end")
    p.add_argument("--dt", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--mmax", type=int)
    p.add_argument("--amax", type=int)

    return parser


def _is_help(token):
    # -h, a -h cluster, or --help or a prefix of it, with or without "=value"
    return token.startswith("-h") or token.partition("=")[0] in ("--h", "--he", "--hel", "--help")


_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([*MODEL_NAMES, "linear", "geometric", *COMMANDS]),
    st.sampled_from(["-1", "-.5", "-0.5", "-1e-3", "-1.", "-x", "-", "", "--", "---", "--=1",
                     "x y", "-x y", " 3 ", "3.0", "1_0", "-1\n", "inf", "nan", "abc"]),
    st.text("-=.e1x ", max_size=5),  # junk
)


def _value_of(flag):
    """Strings that the flag's converter and choices take."""
    _, convert, choices, _ = OPTIONS[flag]
    if choices:
        return st.sampled_from(choices)
    return {int: st.integers(-10**6, 10**6).map(str), float: st.floats().map(repr)}.get(
        convert, st.text(max_size=6))


def _outcome(parse, argv):
    try:
        return {k: repr(v) for k, v in vars(parse(argv)).items()}  # repr: nan equals nan
    except UsageError:
        return UsageError


class TestParseArgs:
    @settings(max_examples=1500, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_matches_the_argparse_parser(self, data):
        # a command (or a bogus one, or none), then flags of it or of others,
        # whole or as prefixes, each with a value, "=value", no value or a stray
        command = data.draw(st.sampled_from([*COMMANDS, *COMMANDS, "bogus", "", "-x", "--", "-1"]))
        argv = [] if data.draw(st.integers(0, 30)) == 0 else [command]
        flags = [f for f in COMMANDS.get(command, (None, None, OPTIONS))[2] if not _is_help(f)]
        for _ in range(data.draw(st.integers(0, 5))):
            whole = data.draw(st.sampled_from(flags if data.draw(st.integers(0, 5)) else [*OPTIONS]))
            flag = whole[:data.draw(st.integers(3, len(whole) + 6))]  # it or a prefix of it
            value = data.draw(_value_of(whole) if data.draw(st.integers(0, 2)) else _VALUES)
            form = data.draw(st.integers(0, 11))
            argv += ([flag] if form == 0 else [value] if form == 1
                     else [flag, value] if form < 6 else [f"{flag}={value}"])
        assert _outcome(parse_args, argv) == _outcome(build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", [
        ("trajectory", "--t-e", "1", "--t-e=2", "--t-start", "-0.5", "--count", "4"),
        ("concentrations", "--mm", "3", "--t=.5", "--mo", "flory", "--me", "-x y"),
        ("validate", "--t-end", "1e308", "--dt", "-.5", "--output=", "--config", ""),
        ("moments", "--config=--", "--mo=--", "--output=--"),  # each an empty list
    ])
    def test_prefixes_equals_and_negative_values(self, argv):
        assert _outcome(parse_args, list(argv)) == _outcome(build_parser().parse_args, list(argv))
        assert _outcome(parse_args, list(argv)) is not UsageError

    @pytest.mark.parametrize("argv", [
        ("trajectory", "--t", "1"), ("concentrations", "--m", "1"),
        ("trajectory", "--count", "3.0"), ("trajectory", "--spacing", "log"),
        ("trajectory", "--t-start", "-1e-3"), ("moments", "--measure", "-x"),
        ("moments", "--output", "-x"), ("moments", "--"), ("moments", "-x"),
        ("moments", "stray"), ("moments", "--help=1"), ("bogus",), ("",), (),
    ])
    def test_rejected_by_both(self, argv):
        assert _outcome(parse_args, list(argv)) is UsageError
        assert _outcome(build_parser().parse_args, list(argv)) is UsageError

    @pytest.mark.parametrize("argv", [[], *([c] for c in COMMANDS)], ids=["top", *COMMANDS])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_to_stdout_and_exits_zero(self, capsys, argv, flag):
        for parse in (build_parser().parse_args, parse_args):
            with pytest.raises(SystemExit) as exc:
                parse([*argv, flag])
            assert exc.value.code == 0
        captured = capsys.readouterr()  # the help of parse_args follows argparse's
        assert captured.err == ""
        names = COMMANDS[argv[0]][2] if argv else COMMANDS
        ours = captured.out[captured.out.rindex("usage: gelsolve"):]
        assert all(name in ours for name in names if name != "-h")


class TestValidateFlags:
    @pytest.mark.parametrize(
        "flag, value", [("--dt", "-0.1"), ("--tol", "0"), ("--t-end", "nan")]
    )
    def test_bad_value_is_a_config_error(self, capsys, flag, value):
        assert_config_error(
            capsys, ("validate", "--model", "flory", "--measure", MONO, flag, value)
        )

    @pytest.mark.parametrize(
        "t_end, dt", [("1", "1e-9"), ("2", "1.9e-6"), ("1e308", "1e-300")]
    )
    def test_more_than_a_million_steps_is_a_config_error(self, capsys, t_end, dt):
        assert_config_error(capsys, (
            "validate", "--model", "flory", "--measure", MONO,
            "--t-end", t_end, "--dt", dt,
        ))


class TestRepeatedMain:
    def test_calls_in_a_row_match_fresh_interpreters(self, capsys):
        # no flag may leak into the next call (the second call relies on the
        # default order of 64)
        calls = [
            ("concentrations", "--model", "flory", "--measure", MONO,
             "--t", "0.5", "--order", "5"),
            ("concentrations", "--model", "smoluchowski", "--measure", MONO,
             "--t", "2"),
            ("moments", "--measure", '{"type":"exponential"}'),
            ("validate", "--model", "flory", "--measure", MONO, "--dt", "0"),
            ("trajectory", "--model", "flory", "--measure", MONO, "--t-end", "3",
             "--count", "4"),
        ]
        in_process = [run(capsys, *argv) for argv in calls]
        env = dict(os.environ, PYTHONPATH=str(Path(gelsolve.__file__).parents[1]))
        for argv, (code, out) in zip(calls, in_process):
            fresh = subprocess.run(
                [sys.executable, "-m", "gelsolve.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (code, out) == (fresh.returncode, fresh.stdout)
        assert len(in_process[1][1].splitlines()) == 65


def _discrete(masses, weights):
    # an atom at mass 1 and three more on 2..8, normalised to unit mass
    atoms = list(zip([1] + sorted(masses), weights))
    total = sum(m * w for m, w in atoms)
    return {"type": "discrete", "atoms": [[m, w / total] for m, w in atoms]}


def _arm_law(mu0, mu3, share1):
    # on {0, 1, 2, 3} with A0 = 1, mu(1) > 0 and K > 1: a finite gel time
    rest = 1.0 - 3.0 * mu3
    mu = {0: mu0, 1: rest * share1, 2: rest * (1.0 - share1) / 2.0, 3: mu3}
    return {"type": "arm-law", "mu": {str(a): w for a, w in mu.items()}}


CLASSIC_LAWS = st.one_of(
    st.just({"type": "monodisperse"}),
    st.just({"type": "exponential"}),
    st.builds(lambda p: {"type": "powerlaw", "p": p}, st.floats(1.2, 1.8)),
    st.builds(
        _discrete,
        st.lists(st.integers(2, 8), min_size=3, max_size=3, unique=True),
        st.lists(st.floats(0.2, 1.0), min_size=4, max_size=4),
    ),
)
ARM_LAWS = st.one_of(
    st.just(json.loads(ARMS)),
    st.builds(_arm_law, st.floats(0.1, 0.5), st.floats(0.2, 0.3), st.floats(0.4, 1.0)),
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_time_ends_in_an_exit_code_and_one_line(data):
    model = data.draw(st.sampled_from(
        ["smoluchowski", "flory", "smoluchowski-arms", "flory-arms"]
    ))
    law = data.draw(ARM_LAWS if model.endswith("arms") else CLASSIC_LAWS)
    command = data.draw(st.sampled_from(["trajectory", "concentrations"]))
    t = repr(10.0 ** data.draw(st.floats(-3.0, 300.0)))  # log-uniform
    argv = [command, "--model", model, "--measure", json.dumps(law)]
    if command == "trajectory":
        argv += ["--t-end", t, "--count", "3"]
    elif model.endswith("arms"):
        argv += ["--t", t, "--amax", "4", "--mmax", "4"]
    else:
        argv += ["--t", t, "--order", "8"]
    out, err = io.StringIO(), io.StringIO()
    # an exception here is the traceback the CLI would print; a warning
    # would be two more lines on stderr
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


ARMS_ON_0_TO_7 = st.builds(
    lambda weights, drop_one: {
        "type": "arm-law",
        "mu": {str(a): w for a, w in weights.items() if not (drop_one and a == 1)},
    },
    st.dictionaries(
        st.integers(0, 7), st.floats(-6.0, 0.0).map(lambda e: 10.0**e), min_size=1
    ),
    st.booleans(),  # mu(1) = 0
)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    law=ARMS_ON_0_TO_7,
    command=st.sampled_from(["limits", "moments"]),
    model=st.sampled_from(["smoluchowski-arms", "flory-arms"]),
    m_max=st.integers(1, 80),
)
def test_any_arm_law_limit_ends_in_an_exit_code_and_one_line(law, command, model, m_max):
    # weights from 1e-6 to 1 put A0 anywhere from 1e-6 to 28
    argv = [command, "--measure", json.dumps(law)]
    if command == "limits":
        argv += ["--model", model, "--mmax", str(m_max)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


LATTICE_LAWS = st.one_of(st.just({"type": "monodisperse"}), CLASSIC_LAWS.filter(
    lambda law: law["type"] == "discrete"
))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_validate_ends_in_an_exit_code_and_one_line(data):
    model = data.draw(st.sampled_from(
        ["smoluchowski", "flory", "smoluchowski-arms", "flory-arms"]
    ))
    arms = model.endswith("arms")
    # the oracle's window is a lattice: a law off it is a config error
    law = data.draw(ARM_LAWS if arms else st.one_of(LATTICE_LAWS, CLASSIC_LAWS))
    # log-uniform, half of the draws up to about 30
    t_end = 10.0 ** data.draw(st.one_of(st.floats(-3.0, 1.5), st.floats(-3.0, 300.0)))
    # at most 300 steps of at most a 40 x 8 window, or one in eight past the
    # step bound
    if data.draw(st.integers(0, 7)) == 7:
        steps = data.draw(st.floats(1.1e6, 1e300))
    else:
        steps = data.draw(st.floats(0.5, 300.0))
    argv = ["validate", "--model", model, "--measure", json.dumps(law),
            "--t-end", repr(t_end), "--dt", repr(t_end / steps),
            "--mmax", str(data.draw(st.integers(2, 40))),
            "--tol", repr(10.0 ** data.draw(st.floats(-12.0, 1.0)))]
    if arms:
        argv += ["--amax", str(data.draw(st.integers(3, 8)))]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1


class TestUnknownConfigKeys:
    # a misspelt key used to be ignored in silence: the run took the default
    @pytest.mark.parametrize("command, cfg, key", [
        ("limits", {"model": "flory-arms", "initial": json.loads(ARMS), "mmax": 3}, "mmax"),
        ("trajectory", {"model": "flory", "initial": json.loads(MONO),
                        "time_grid": {"end": 2.0, "count": 5}, "cout": 9}, "cout"),
        ("trajectory", {"model": "flory", "initial": json.loads(MONO),
                        "time_grid": {"end": 2.0, "cout": 9}}, "cout"),
        ("moments", {"initial": json.loads(MONO), "time_grid": {"stop": 1}}, "stop"),
    ], ids=["limits-mmax", "trajectory-cout", "time-grid-cout", "moments-time-grid-stop"])
    def test_is_a_config_error_naming_the_key(self, capsys, tmp_path, command, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert repr(key) in err

    def test_every_known_key_is_taken(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": "flory", "initial": json.loads(MONO), "t": 0.5, "order": 3,
            "a_max": 2, "m_max": 3, "t_end": 1.0, "dt": 0.01, "tol": 1.0,
            "time_grid": {"start": 0.0, "end": 1.0, "count": 3, "spacing": "linear"},
        }))
        for command in ("trajectory", "concentrations", "validate", "moments"):
            assert main([command, "--config", str(path)]) == 0, capsys.readouterr().err


def _raiser(exc):
    def handler(args, cfg, out):
        raise exc
    return handler


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError, 2, "config error: "),
    (UsageError, 2, "usage error: "),
    (DomainError, 2, "config error: "),
    (ModelError, 2, "config error: "),
    (SolverError, 1, "error: "),
])
def test_exit_code_follows_the_error_class(capsys, monkeypatch, error, code, prefix):
    _, text, options = COMMANDS["moments"]
    monkeypatch.setitem(COMMANDS, "moments", (_raiser(error("the message")), text, options))
    assert main(["moments"]) == code
    assert capsys.readouterr().err == prefix + "the message\n"


@pytest.mark.parametrize("argv, library_call", [
    (("concentrations", "--model", "smoluchowski", "--measure", '{"type":"exponential"}',
      "--t", "0.5"),
     lambda: concentrations(make_model("smoluchowski", ExponentialDensity()), 0.5, 64)),
    (("concentrations", "--model", "flory-arms", "--measure", GENERAL_ARMS, "--t", "1"),
     lambda: arms_concentrations(
         make_model("flory-arms", arm_measure_from_config(json.loads(GENERAL_ARMS))), 1.0, 40, 40)),
    (("limits", "--model", "smoluchowski-arms", "--measure", GENERAL_ARMS),
     lambda: limiting_concentrations(make_model(
         "smoluchowski-arms", arm_measure_from_config(json.loads(GENERAL_ARMS))), 20)),
    (("validate", "--model", "flory-arms", "--measure", ARMS, "--amax", "2"),
     lambda: initial_arms(arm_measure_from_config(json.loads(ARMS)), 2)),
    (("validate", "--model", "smoluchowski", "--measure", OUTSIDE_MMAX, "--mmax", "50"),
     lambda: initial_classic(mass_measure_from_config(json.loads(OUTSIDE_MMAX)), 50)),
], ids=["concentrations-exponential", "concentrations-general-arms", "limits-general-arms",
        "validate-atom-outside-amax", "validate-atom-outside-mmax"])
def test_data_a_command_cannot_take_reports_the_library_message(capsys, argv, library_call):
    with pytest.raises(DomainError) as exc:
        library_call()
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == f"config error: {exc.value}\n"


# --- the one number reader, held to the readers it replaced -----------------

def _old_setting(args, cfg, flag, key, default):
    value = getattr(args, flag, None)
    value = value if value is not None else cfg.get(key, default)
    if isinstance(value, bool):
        raise ConfigError(f"bad {key}: {value!r} is not a number")
    return value


def _old_size(args, cfg, flag, key, default, least):
    value = _old_setting(args, cfg, flag, key, default)
    try:
        if int(value) != float(value):
            raise ValueError(f"{value!r} is not a whole number")
        value = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}")
    return value


def _old_positive(args, cfg, flag, key, default):
    value = _old_setting(args, cfg, flag, key, default)
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key}: {exc}") from exc
    if not (math.isfinite(value) and value > 0.0):
        raise ConfigError(f"{key} must be finite and > 0, got {value}")
    return value


def _old_time(args, cfg):
    t = _old_setting(args, cfg, "t", "t", None)
    if t is None:
        raise ConfigError("no time given (--t or config 't')")
    try:
        t = float(t)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad time: {exc}") from exc
    if not (math.isfinite(t) and t >= 0.0):
        raise ConfigError(f"time must be finite and >= 0, got {t}")
    return t


def _read(read):
    """(type, value) of what read() returns, or "ConfigError" if it raises that."""
    try:
        value = read()
    except ConfigError:
        return "ConfigError"
    return type(value), value


FLAG_VALUES = st.one_of(
    st.none(), st.integers(-5, 5), st.integers(), DOUBLES,
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 2.5, 3.0]),
)
CONFIG_VALUES = st.one_of(
    st.booleans(), st.none(), DOUBLES, st.integers(-5, 5), st.integers(),
    st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -(10**400), 2**53 + 1, 0.5, 2.7,
                     3.0, 1e400]),
    st.integers(-5, 5).map(str), DOUBLES.map(repr), st.text(max_size=4),
    st.sampled_from(["inf", "nan", " 3 ", "1_0", "2.0", "-1", "x", "", "1e400", "0x1"]),
    st.lists(st.integers(0, 3), max_size=2), st.just({"a": 1}),
)


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(
    flag=FLAG_VALUES, config=st.one_of(st.just(None), CONFIG_VALUES),
    missing=st.booleans(), least=st.sampled_from([0, 1, 2]),
    default=st.sampled_from([0, 1, 40, 1e-3, 1.0]),
)
def test_number_reads_as_the_readers_it_replaced(flag, config, missing, least, default):
    # missing: the config file lacks the key, else it holds `config` (null too)
    cfg = {} if missing else {"k": config}
    args = types.SimpleNamespace(f=flag, t=flag)
    t_cfg = {} if missing else {"t": config}
    size = _read(lambda: _old_size(args, cfg, "f", "k", int(default), least))
    assert _read(lambda: _number(args, cfg, "f", "k", int(default), least, whole=True)) == size
    positive = _read(lambda: _old_positive(args, cfg, "f", "k", default))
    assert _read(lambda: _number(args, cfg, "f", "k", default, 0.0, above=True)) == positive
    time = _read(lambda: _old_time(args, t_cfg))
    assert _read(lambda: _number(args, t_cfg, "t", "t", None, 0.0)) == time
