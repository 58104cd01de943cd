import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelsolve.cli import fmt, main

MONO = '{"type":"monodisperse"}'
ARMS = '{"type":"arm-law","mu":{"0":0.5,"1":0.25,"3":0.25}}'
GENERAL_ARMS = '{"type":"arms","triples":[[1,1,0.5],[3,2,0.5]]}'
POWERLAW = '{"type":"powerlaw","p":1.5}'


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
             "validate-arm-atom-outside-amax"],
    )
    def test_malformed_input_is_a_config_error(self, capsys, argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("solver", [{"ode_dt": 0.5}, {"root_tl": 1e-9}, [1]])
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
        "flags, solver",
        [
            (("--root-tol", "inf"), {}),
            (("--root-tol", "nan"), {}),
            ((), {"max_iter": 0}),
        ],
        ids=["root-tol-inf", "root-tol-nan", "max-iter-0"],
    )
    def test_out_of_range_solver_setting_is_a_config_error(
        self, capsys, tmp_path, flags, solver
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"solver": solver}))
        assert_config_error(capsys, (
            "trajectory", "--config", str(path), "--model", "flory",
            "--measure", MONO, "--t-end", "2", "--count", "3", *flags,
        ))

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


def assert_config_error(capsys, argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("config error:") and err.count("\n") == 1


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


class TestValidateFlags:
    @pytest.mark.parametrize(
        "flag, value", [("--dt", "-0.1"), ("--tol", "0"), ("--t-end", "nan")]
    )
    def test_bad_value_is_a_config_error(self, capsys, flag, value):
        assert_config_error(
            capsys, ("validate", "--model", "flory", "--measure", MONO, flag, value)
        )


class TestRepeatedMain:
    def test_calls_in_a_row_match_fresh_interpreters(self, capsys):
        # the parser is built once per process; no flag may leak into the
        # next call (the second call relies on the default order of 64)
        import os
        import subprocess
        import sys
        from pathlib import Path

        import gelsolve

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
