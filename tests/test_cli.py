"""CLI harness: config handling, CSV outputs, state files, exit codes."""

import argparse
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import krylov_echo
from conftest import infidelity_allowance
from krylov_echo import cli, linalg
from krylov_echo.cli import (
    ORACLE_FLOOR,
    ExperimentConfig,
    _fmt,
    build_model,
    load_config_file,
    main,
    measure_regime_times,
)
from krylov_echo.estimators import _exact_propagator
from krylov_echo.lanczos import lanczos_iterate
from krylov_echo.linalg import LinearOperator, _chebyshev_error, exact_evolve_dense
from krylov_echo.models import IsingOperator
from krylov_echo.propagator import krylov_evolve, true_infidelity
from krylov_echo.stateio import read_state, write_state


def read_csv(path):
    """Parse comments into a dict and columns into arrays of strings."""
    comments, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                comments[key] = value
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(line.split(","))
    return comments, header, rows


def column(header, rows, name, dtype=float):
    idx = header.index(name)
    return np.array([dtype(row[idx]) for row in rows])


@pytest.fixture
def no_model_build(monkeypatch):
    """Fail the test if the command builds its model."""

    def never(cfg):
        raise AssertionError("the model was built for a refused request")

    monkeypatch.setattr(cli, "build_model", never)


class TestConfigHandling:
    def test_file_parsing(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment line\n"
            "model=goe\n"
            "n=64\n"
            "seed=3  # trailing comment\n"
            "t_max=5.5\n"
            "estimators=extra_site_exact,park_light\n"
            "times=1.0,2.5\n"
            "band=true\n"
        )
        values = load_config_file(cfg_file)
        assert values["model"] == "goe"
        assert values["n"] == 64
        assert values["seed"] == 3
        assert values["t_max"] == 5.5
        assert values["estimators"] == ("extra_site_exact", "park_light")
        assert values["times"] == (1.0, 2.5)
        assert values["band"] is True

    def test_boolean_off_word(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("band=off\n")
        assert load_config_file(cfg_file)["band"] is False

    def test_misspelt_boolean_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("band=ture\n")
        with pytest.raises(ValueError, match="band='ture' is not a boolean"):
            load_config_file(cfg_file)

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense=1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(cfg_file)

    def test_malformed_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("just words\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config_file(cfg_file)

    def test_malformed_number_in_file_names_key_and_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("model=ising\nn=abc\n")
        assert main(["regimes", "--config", str(cfg_file)]) == 1
        assert f"{cfg_file}:2: n='abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, named",
        [
            ("snapshots --times 1,abc", "times='1,abc'"),
            ("regimes --n abc", "n='abc'"),
            ("evolve --tol x", "tol='x'"),
            ("bounds --krylov-n 1.5", "krylov_n='1.5'"),
        ],
        ids=["times", "n", "tol", "krylov_n"],
    )
    def test_malformed_number_on_command_line_names_key(self, capsys, args, named):
        # Flag values go through the same parser as file values, so a bad one
        # exits 1 naming its key rather than 2 with a usage message.
        assert main(args.split()) == 1
        assert named in capsys.readouterr().err

    def test_unknown_estimator_in_file_names_it(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("estimators=bogus\n")
        out = tmp_path / "never.csv"
        assert main(["bounds", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert "unknown estimator 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", ["bounds --points 5 --t-max 1", "evolve --t-final 1"], ids=["bounds", "evolve"]
    )
    def test_empty_estimator_list_refused(self, tmp_path, capsys, command):
        # No estimator column to write, and no kind to step with.
        cfg_file = tmp_path / "empty.cfg"
        cfg_file.write_text("estimators=\n")
        out = tmp_path / "never.csv"
        assert main(f"{command} --model ising --n 4 --config {cfg_file} --out {out}".split()) == 1
        assert "estimators must name at least one" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_cap_key_refused(self, tmp_path, capsys):
        # The dense size rule is no option: an evolve echo that still carries
        # oracle_cap=, rerun as a config file, names the unknown key.
        first = tmp_path / "first.csv"
        assert main(f"evolve --model ising --n 4 --t-final 1 --out {first}".split()) == 0
        comments, _, _ = read_csv(first)
        options = {f.name for f in cli._OPTIONS}
        lines = [f"{key}={value}" for key, value in comments.items() if key in options]
        lines.insert(lines.index("t_final=1.0") + 1, "oracle_cap=4096")
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text("\n".join(lines) + "\n")
        again = tmp_path / "again.csv"
        assert main(f"evolve --config {cfg_file} --out {again}".split()) == 1
        assert "unknown config key 'oracle_cap'" in capsys.readouterr().err
        assert not again.exists()

    def test_unknown_model_names_it(self, capsys):
        assert main(["regimes", "--model", "nope"]) == 1
        assert "unknown model 'nope'" in capsys.readouterr().err

    def test_cli_overrides_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n=4\nkrylov_n=16\npoints=12\nt_max=2.0\nseed=9\n")
        out = tmp_path / "a.csv"
        rc = main(
            ["regimes", "--config", str(cfg_file), "--seed", "2", "--out", str(out)]
        )
        assert rc == 0
        comments, _, _ = read_csv(out)
        assert comments["seed"] == "2"
        assert comments["n"] == "4"

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="points"):
            ExperimentConfig(points=1).validate()
        with pytest.raises(ValueError, match="t_min"):
            ExperimentConfig(t_min=3.0, t_max=1.0).validate()
        with pytest.raises(ValueError, match="unknown model"):
            ExperimentConfig(model="random").validate()

    @pytest.mark.parametrize(
        "args",
        [
            "regimes --model ising --n 6 --t-max inf",
            "bounds --model ising --n 6 --t-max inf",
            "toeplitz --n 10 --t-max inf",
            "snapshots --model ising --n 6 --krylov-n 8 --times 0,nan",
        ],
        ids=["regimes", "bounds", "toeplitz", "snapshots"],
    )
    def test_non_finite_times_rejected(self, tmp_path, capsys, args):
        out = tmp_path / "never.csv"
        assert main(f"{args} --out {out}".split()) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "given, resolved",
        [
            (dict(command="regimes", model="ising", n=4), {"krylov_n": 16}),
            (dict(command="bounds", model="goe", n=20, krylov_n=8), {"krylov_n": 8}),
            (
                dict(command="snapshots", model="ising", n=4, times=(1.0,)),
                {"krylov_n": 16, "profile_m": 16},
            ),
            (
                dict(command="snapshots", model="gue", n=40, krylov_n=6, times=(1.0,)),
                {"krylov_n": 6, "profile_m": 12},
            ),
            # toeplitz reads no model: its n is a chain size, not a spin count.
            (dict(command="toeplitz", n=1), {"n_prime": 2, "krylov_n": 30}),
            (dict(command="toeplitz", n=10, n_prime=13), {"n_prime": 13}),
            (
                dict(command="evolve", model="toeplitz", n=1, out="run.csv",
                     estimators=("park_light", "extra_site_exact")),
                {"krylov_n": 1, "estimators": ("park_light",), "state_out": "run.csv.kryv"},
            ),
            (dict(command="evolve", state_out="final.kryv"), {"state_out": "final.kryv"}),
        ],
    )
    def test_validate_returns_the_resolved_request(self, given, resolved):
        cfg = ExperimentConfig(**given)
        ran = cfg.validate()
        assert {key: getattr(ran, key) for key in resolved} == resolved
        assert ran.validate() == ran
        assert cfg == ExperimentConfig(**given)

    @pytest.mark.parametrize("key", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_chain_coefficient_named(self, tmp_path, capsys, key, bad):
        out = tmp_path / "never.csv"
        assert main(f"toeplitz --n 10 --points 5 --t-max 5 --{key}={bad} --out {out}".split()) == 1
        assert f"{key}={float(bad)} must be finite" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match=f"{key}="):
            ExperimentConfig(**{key: float(bad)}).validate()


class TestStateFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        state = rng.standard_normal(37) + 1j * rng.standard_normal(37)
        path = tmp_path / "state.kryv"
        write_state(path, state)
        back = read_state(path)
        assert np.array_equal(back, state)
        assert back.dtype == np.complex128

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "state.kryv"
        write_state(path, np.array([1.0 + 2.0j]))
        raw = path.read_bytes()
        assert raw[:5] == b"KRYV1"
        assert int.from_bytes(raw[5:13], "little") == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_state_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "never.kryv"
        state = np.array([1.0, bad, 0.0], dtype=complex)
        with pytest.raises(ValueError, match="NaN or inf"):
            write_state(path, state)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.kryv"
        path.write_bytes(b"NOPE!" + b"\x00" * 24)
        with pytest.raises(ValueError, match="magic"):
            read_state(path)

    def test_two_dimensional_state_rejected_before_writing(self, tmp_path):
        path = tmp_path / "never.kryv"
        with pytest.raises(ValueError, match="1-D"):
            write_state(path, np.ones((2, 2), dtype=complex))
        assert not path.exists()

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.kryv"
        write_state(path, np.ones(4, dtype=complex))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_state(path)
        path.write_bytes(b"KRYV1\x01\x02")
        with pytest.raises(ValueError, match="truncated"):
            read_state(path)


class TestRegimesCommand:
    def test_full_subspace_echo_is_unity(self, tmp_path):
        out = tmp_path / "regimes.csv"
        rc = main(
            "regimes --model ising --n 4 --krylov-n 16 --t-min 0 --t-max 20 "
            f"--points 21 --seed 1 --out {out}".split()
        )
        assert rc == 0
        comments, header, rows = read_csv(out)
        echo = column(header, rows, "echo")
        assert (np.abs(echo - 1.0) <= 1e-10).all()
        assert comments["command"] == "regimes"

    def test_regime_times_in_summary(self, tmp_path):
        out = tmp_path / "regimes.csv"
        rc = main(
            "regimes --model ising --n 8 --krylov-n 16 --t-min 0 --t-max 4 "
            f"--points 81 --seed 1 --out {out}".split()
        )
        assert rc == 0
        comments, header, rows = read_csv(out)
        t_exp, t_col = float(comments["t_exp"]), float(comments["t_col"])
        assert t_exp < t_col
        errors = column(header, rows, "error")
        assert errors.max() > 1e-4

    @pytest.mark.parametrize(
        "command",
        ["regimes --points 5 --t-max 1", "bounds --points 5 --t-max 1", "snapshots --times 0,1"],
        ids=["regimes", "bounds", "snapshots"],
    )
    def test_sweep_above_the_dense_cap_runs(self, tmp_path, command):
        # The sweeps' oracle is matrix-free, so Ising n=13 (D=8192, twice
        # MAX_DENSE_DIM) runs and echoes no cap.
        out = tmp_path / "big.csv"
        assert main(f"{command} --model ising --n 13 --krylov-n 8 --out {out}".split()) == 0
        comments, _, rows = read_csv(out)
        assert "oracle_cap" not in comments
        assert rows

    @pytest.mark.parametrize(
        "model, builder",
        [("goe", "goe_sample"), ("gue", "gue_sample"), ("toeplitz", "_homogeneous")],
        ids=["goe", "gue", "toeplitz"],
    )
    @pytest.mark.parametrize(
        "command",
        ["regimes", "bounds", "snapshots --times 0,1", "evolve"],
        ids=["regimes", "bounds", "snapshots", "evolve"],
    )
    def test_dense_model_above_the_size_cap_refused_before_building(
        self, tmp_path, capsys, monkeypatch, command, model, builder
    ):
        def never(*args):
            raise AssertionError("the dense model was built before its size was checked")

        monkeypatch.setattr(cli, builder, never)
        out = tmp_path / "never.csv"
        n = cli.MAX_DENSE_DIM + 1
        assert main(f"{command} --model {model} --n {n} --out {out}".split()) == 1
        assert f"{model} dimension {n} exceeds cap {cli.MAX_DENSE_DIM}" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_model_size_cap_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_DENSE_DIM", 8)
        args = "regimes --model toeplitz --krylov-n 4 --points 5 --t-max 1 --out {}"
        assert main(f"{args} --n 8".format(tmp_path / "at.csv").split()) == 0
        assert main(f"{args} --n 9".format(tmp_path / "above.csv").split()) == 1
        assert not (tmp_path / "above.csv").exists()

    def test_no_collapse_without_error_growth(self, tmp_path):
        # A full-size basis is exact: no error leaves the plateau, so neither
        # regime time is defined.
        out = tmp_path / "exact.csv"
        rc = main(
            f"regimes --model toeplitz --n 10 --krylov-n 10 --points 21 --t-max 5 --out {out}".split()
        )
        assert rc == 0
        comments, header, rows = read_csv(out)
        assert column(header, rows, "error").max() <= cli.PLATEAU_LEVEL
        assert (comments["t_exp"], comments["t_col"]) == ("nan", "nan")

    @pytest.mark.parametrize(
        "args",
        [
            "regimes --model goe --n 48 --krylov-n 10 --t-min 0 --t-max 3 "
            "--points 7 --seed 5 --out {}",
            "bounds --model goe --n 48 --krylov-n 10 --t-min 0 --t-max 3 --points 7 "
            "--estimator extra_site_exact --estimator extra_site_averaged "
            "--estimator extra_site_hybrid --estimator toeplitz_analytic "
            "--estimator park_light --band --seed 5 --out {}",
            "toeplitz --n 20 --n-prime 21 --alpha 0.5 --beta 1 --t-min 0 --t-max 30 "
            "--points 7 --out {}",
            "snapshots --model ising --n 6 --krylov-n 10 --times 0,1.5,3 "
            "--profile-m 20 --seed 5 --out {}",
        ],
        ids=["regimes", "bounds", "toeplitz", "snapshots"],
    )
    def test_deterministic_output_bytes(self, tmp_path, args):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args.format(out_a).split()) == 0
        assert main(args.format(out_b).split()) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_deterministic_evolve_outputs(self, tmp_path):
        # Every byte of the state file and every CSV byte outside the
        # measured wall_time column repeat between identical runs.
        outputs = []
        for run in ("a", "b"):
            out, state_out = tmp_path / f"{run}.csv", tmp_path / f"{run}.kryv"
            args = (
                "evolve --model ising --n 6 --krylov-n 10 --tol 1e-8 --t-final 5 --seed 5 "
                f"--estimator extra_site_hybrid --out {out} --state-out {state_out}"
            )
            assert main(args.split()) == 0
            comments, header, rows = read_csv(out)
            comments.pop("state_out")
            wall = header.index("wall_time")
            rows = [row[:wall] + row[wall + 1 :] for row in rows]
            outputs.append((comments, rows, state_out.read_bytes()))
        assert len(outputs[0][1]) >= 2
        assert outputs[0] == outputs[1]

    def test_scientific_notation_digits(self, tmp_path):
        out = tmp_path / "fmt.csv"
        main(
            "regimes --model ising --n 4 --krylov-n 8 --t-min 0 --t-max 1 "
            f"--points 3 --seed 1 --out {out}".split()
        )
        _, header, rows = read_csv(out)
        sample = rows[1][header.index("t")]
        mantissa = sample.split("e")[0]
        assert len(mantissa.split(".")[1]) >= 12


class TestSnapshotsCommand:
    def test_initial_snapshot_localized(self, tmp_path):
        out = tmp_path / "snap.csv"
        rc = main(
            "snapshots --model ising --n 8 --krylov-n 16 --times 0 "
            f"--profile-m 24 --seed 1 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        exact = column(header, rows, "pop_exact")
        krylov = column(header, rows, "pop_krylov")
        sites = column(header, rows, "site", dtype=int)
        assert exact[sites == 0][0] == pytest.approx(1.0, abs=1e-12)
        assert krylov[sites == 0][0] == pytest.approx(1.0, abs=1e-12)
        assert exact[sites > 0].max() <= 1e-12

    def test_profiles_agree_before_error_onset(self, tmp_path):
        out = tmp_path / "snap.csv"
        rc = main(
            "snapshots --model ising --n 8 --krylov-n 16 --times 0.5 "
            f"--profile-m 24 --seed 1 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        exact = column(header, rows, "pop_exact")
        krylov = column(header, rows, "pop_krylov")
        sites = column(header, rows, "site", dtype=int)
        inside = sites < 16
        assert np.abs(exact[inside] - krylov[inside]).max() <= 1e-8

    def test_truncated_packet_reflects(self, tmp_path):
        # Post-collapse the truncated packet's center moves backwards while
        # the full packet keeps advancing.
        out = tmp_path / "snap.csv"
        rc = main(
            "snapshots --model ising --n 10 --krylov-n 30 --times 2.6,3.2 "
            f"--profile-m 60 --seed 1 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        ts = column(header, rows, "t")
        sites = column(header, rows, "site")
        exact = column(header, rows, "pop_exact")
        krylov = column(header, rows, "pop_krylov")

        def com(pops, mask):
            return (pops[mask] * sites[mask]).sum() / pops[mask].sum()

        early, late = ts == 2.6, ts == 3.2
        assert com(exact, late) > com(exact, early)
        assert com(krylov, late) < com(krylov, early)

    def test_times_required(self, tmp_path, capsys):
        rc = main(f"snapshots --model ising --n 4 --out {tmp_path/'x.csv'}".split())
        assert rc == 1
        assert "times" in capsys.readouterr().err

    def test_profile_m_bounds(self, tmp_path, capsys):
        rc = main(
            "snapshots --model ising --n 4 --krylov-n 8 --times 1 --profile-m 4 "
            f"--out {tmp_path/'x.csv'}".split()
        )
        assert rc == 1
        assert "profile_m" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            ("--profile-m 5000 --times 1", "profile_m 5000 must lie in [krylov_n 30, dim 2048]"),
            ("", "snapshots needs --times (comma-separated list)"),
        ],
        ids=["profile_m", "times"],
    )
    @pytest.mark.usefixtures("no_model_build")
    def test_refused_before_the_model_is_built(self, tmp_path, capsys, args, message):
        out = tmp_path / "x.csv"
        assert main(f"snapshots --model goe --n 2048 {args} --out {out}".split()) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_default_krylov_n_clamped_to_dimension(self, tmp_path):
        # The default krylov_n of 30 exceeds dim 16: it spans the whole space,
        # as in regimes, bounds and evolve, so both profiles are exact.
        out = tmp_path / "snap.csv"
        assert main(f"snapshots --model ising --n 4 --times 1 --out {out}".split()) == 0
        _, header, rows = read_csv(out)
        assert column(header, rows, "site", dtype=int).tolist() == list(range(16))
        exact = column(header, rows, "pop_exact")
        assert np.abs(column(header, rows, "pop_krylov") - exact).max() <= 1e-12
        assert exact.sum() == pytest.approx(1.0, abs=1e-12)


class TestBoundsCommand:
    @pytest.mark.parametrize(
        "extra", ["", "--estimator extra_site_exact --band"], ids=["estimators", "band"]
    )
    def test_refused_basis_is_refused_before_the_oracle(self, tmp_path, capsys, monkeypatch, extra):
        # A one-vector basis that does not break down: the Chebyshev oracle
        # to t = 60 would take about 4000 GOE applies before the refusal.
        def never(*args):
            raise AssertionError("the oracle ran before the estimators checked the basis")

        monkeypatch.setattr(cli, "oracle_infidelities", never)
        out = tmp_path / "never.csv"
        argv = f"bounds --model goe --n 1024 --krylov-n 1 --points 2 --t-max 60 {extra} --out {out}"
        assert main(argv.split()) == 1
        assert "basis of size >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_homogeneous_estimators_coincide(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(
            "bounds --model toeplitz --n 40 --alpha 0 --beta 1 --krylov-n 30 "
            "--t-min 0 --t-max 12 --points 25 "
            "--estimator extra_site_exact --estimator extra_site_averaged "
            f"--estimator toeplitz_analytic --seed 1 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        exact = column(header, rows, "extra_site_exact")
        averaged = column(header, rows, "extra_site_averaged")
        analytic = column(header, rows, "toeplitz_analytic")
        assert np.abs(exact - averaged).max() <= 1e-8
        assert np.abs(exact - analytic).max() <= 1e-8

    def test_zero_time_rows_vanish(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(
            "bounds --model ising --n 8 --krylov-n 16 --t-min 0 --t-max 2 "
            "--points 5 --estimator extra_site_exact --estimator park_light "
            f"--seed 1 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        for name in ("oracle", "extra_site_exact", "park_light"):
            assert column(header, rows, name)[0] <= 1e-12

    @pytest.mark.parametrize(
        "args",
        [
            "--model toeplitz --n 40 --estimator extra_site_exact --estimator park_light",
            "--model ising --n 6 --seed 3 --estimator extra_site_exact",
        ],
        ids=["toeplitz", "ising"],
    )
    def test_ratio_empty_where_oracle_exactly_zero(self, tmp_path, args):
        # Both runs have an oracle of exactly 0 at t = 0; a 0/0 there would
        # print nan, and the RuntimeWarning filter turns numpy's warning into an error.
        out = tmp_path / "bounds.csv"
        rc = main(f"bounds {args} --krylov-n 10 --t-min 0 --t-max 2 --points 3 --out {out}".split())
        assert rc == 0
        _, header, rows = read_csv(out)
        assert column(header, rows, "oracle")[0] == 0.0
        ratios = [name for name in header if name.startswith("ratio_")]
        assert ratios
        for name in ratios:
            cells = [row[header.index(name)] for row in rows]
            assert cells[0] == ""
            assert np.isfinite([float(cell) for cell in cells[1:]]).all()

    def test_exact_estimate_on_invariant_extension(self, tmp_path):
        # N=10 on the 11-site chain: the one-site extension spans the whole
        # space, so the exact kind must equal the oracle, not read 0.
        out = tmp_path / "bounds.csv"
        rc = main(
            "bounds --model toeplitz --n 11 --krylov-n 10 --t-max 5 --points 6 "
            f"--estimator extra_site_exact --estimator extra_site_hybrid --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        ts = column(header, rows, "t")
        assert ts[0] == 0.0 and (ts[1:] > 0.0).all()
        # Against the dense point oracle, whose rounding follows the
        # estimator's on this chain; the CSV oracle meets it within the
        # Chebyshev propagator's stated bound.
        ham, psi = build_model(ExperimentConfig(model="toeplitz", n=11))
        basis = lanczos_iterate(ham, psi, 10)
        dense = np.array(
            [true_infidelity(krylov_evolve(basis, t), exact_evolve_dense(ham, psi, t)) for t in ts]
        )
        estimates = column(header, rows, "extra_site_exact")
        assert np.abs(estimates[1:] / dense[1:] - 1.0).max() <= 1e-12
        exact = _exact_propagator(basis, ham)
        delta = 2 * _chebyshev_error((abs(exact.centre) + exact.radius) * ts)
        oracle = column(header, rows, "oracle")
        # The cells carry 15 significant digits.
        printed = 1e-14 * dense
        assert (np.abs(oracle - dense) <= infidelity_allowance(dense, delta) + printed).all()

    def test_band_columns(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(
            "bounds --model ising --n 8 --krylov-n 16 --t-min 0.5 --t-max 1.5 "
            "--points 5 --estimator extra_site_averaged --band "
            f"--seed 1 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        low = column(header, rows, "band_low")
        high = column(header, rows, "band_high")
        assert (low <= high).all()

    @pytest.mark.parametrize("n", [1, 6], ids=["one-site", "full-chain"])
    def test_band_reads_zero_on_a_breakdown_basis(self, tmp_path, n):
        # A basis spanning the whole chain evolves exactly: the band, like
        # every estimator, reads exact zeros.
        out = tmp_path / "bounds.csv"
        rc = main(
            f"bounds --model toeplitz --n {n} --krylov-n {n} --points 3 --t-max 1 --band "
            f"--estimator extra_site_exact --estimator park_light --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        for name in ("band_low", "band_high", "extra_site_exact", "park_light"):
            assert column(header, rows, name).tolist() == [0.0] * 3

    def test_ratios_resolved_at_short_times(self, tmp_path):
        # At these times the error lies far below 1e-16, yet above the
        # oracle floor; the oracle and the echo estimators resolve it with
        # the same residual form.
        out = tmp_path / "bounds.csv"
        rc = main(
            "bounds --model ising --n 8 --krylov-n 16 --t-min 0.25 --t-max 0.4 "
            "--points 5 --estimator extra_site_exact --estimator extra_site_hybrid "
            f"--estimator park_light --seed 1 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        oracle = column(header, rows, "oracle")
        assert (oracle > ORACLE_FLOOR).all() and (oracle < 1e-16).all()
        for name in header:
            if name.startswith("ratio_"):
                assert np.isfinite(column(header, rows, name)).all(), name
        assert 0.5 <= column(header, rows, "ratio_extra_site_exact")[-1] <= 2.0

    @pytest.mark.parametrize(
        "command",
        [
            # The benchmark's grid: 31 times, one block at D = 1024.
            "--model goe --n 1024 --krylov-n 30 --t-max 1 --points 31 --band",
            # Four blocks, every time below the restart phase (t < 0.56 here).
            "--model ising --n 10 --krylov-n 30 --t-max 0.5 --points 200",
        ],
        ids=["one-block", "short-phases"],
    )
    def test_no_row_below_the_restart_phase_moves(self, tmp_path, monkeypatch, command):
        estimators = "--estimator extra_site_exact --estimator park_light"
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(f"bounds {command} {estimators} --out {first}".split()) == 0

        def from_psi(self, ts):
            # Every block from psi, as before blocks could restart.
            return self.psi, ts, 0.0

        monkeypatch.setattr(linalg._ChebyshevPropagator, "_start", from_psi)
        assert main(f"bounds {command} {estimators} --out {second}".split()) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_ratio_empty_at_the_oracle_floor(self, tmp_path):
        # Below t = 0.25 the oracle of this 16-site basis is roundoff of the
        # states it compares; the echoed floor splits the rows.
        out = tmp_path / "bounds.csv"
        rc = main(
            "bounds --model ising --n 8 --krylov-n 16 --t-min 0 --t-max 0.4 --points 9 "
            f"--estimator extra_site_exact --estimator park_light --seed 1 --out {out}".split()
        )
        assert rc == 0
        comments, header, rows = read_csv(out)
        assert comments["oracle_floor"] == _fmt(ORACLE_FLOOR)
        assert ORACLE_FLOOR == (20 * _chebyshev_error(10.0)) ** 2
        oracle = column(header, rows, "oracle")
        at_floor = oracle <= float(comments["oracle_floor"])
        assert at_floor.sum() == 5 and (~at_floor).sum() == 4
        for name in ("ratio_extra_site_exact", "ratio_park_light"):
            cells = np.array([row[header.index(name)] for row in rows])
            assert (cells[at_floor] == "").all()
            assert np.isfinite(cells[~at_floor].astype(float)).all()

    def test_ratio_columns_track(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(
            "bounds --model ising --n 10 --krylov-n 30 --t-min 1.5 --t-max 2.0 "
            "--points 6 --estimator extra_site_exact "
            f"--seed 1 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        ratio = column(header, rows, "ratio_extra_site_exact")
        assert (ratio > 0.1).all()
        assert (ratio < 10.0).all()


class TestToeplitzCommand:
    def test_equal_chains_all_unity(self, tmp_path):
        out = tmp_path / "toep.csv"
        rc = main(
            f"toeplitz --n 20 --n-prime 20 --alpha 0 --beta 1 --t-min 0 --t-max 30 "
            f"--points 31 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        assert np.abs(column(header, rows, "echo2_analytic") - 1.0).max() <= 1e-10
        assert np.abs(column(header, rows, "echo2_numeric") - 1.0).max() <= 1e-10

    def test_analytic_matches_numeric(self, tmp_path):
        out = tmp_path / "toep.csv"
        rc = main(
            "toeplitz --n 30 --n-prime 31 --alpha 0 --beta 1 --t-min 0 --t-max 100 "
            f"--points 101 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        assert column(header, rows, "abs_diff").max() <= 1e-8

    @pytest.mark.parametrize("n_prime, written", [("", "11"), ("--n-prime 13", "13")])
    def test_header_names_the_chain_used(self, tmp_path, n_prime, written):
        out = tmp_path / "toep.csv"
        assert main(f"toeplitz --n 10 {n_prime} --points 5 --t-max 5 --out {out}".split()) == 0
        comments, _, _ = read_csv(out)
        assert comments["n_prime"] == written

    def test_rescaling_between_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(
            "toeplitz --n 12 --n-prime 13 --alpha 5 --beta 2 --t-min 0 --t-max 10 "
            f"--points 21 --out {out_a}".split()
        ) == 0
        assert main(
            "toeplitz --n 12 --n-prime 13 --alpha 0 --beta 1 --t-min 0 --t-max 20 "
            f"--points 21 --out {out_b}".split()
        ) == 0
        _, header_a, rows_a = read_csv(out_a)
        _, header_b, rows_b = read_csv(out_b)
        echo_a = column(header_a, rows_a, "echo2_analytic")
        echo_b = column(header_b, rows_b, "echo2_analytic")
        assert np.abs(echo_a - echo_b).max() <= 1e-10


class TestEvolveCommand:
    def test_step_log_and_state_file(self, tmp_path):
        out = tmp_path / "evolve.csv"
        state_out = tmp_path / "final.kryv"
        rc = main(
            "evolve --model ising --n 6 --krylov-n 12 --tol 1e-8 --t-final 20 "
            f"--seed 1 --out {out} --state-out {state_out}".split()
        )
        assert rc == 0
        comments, header, rows = read_csv(out)
        assert float(comments["true_infidelity"]) <= 1e-7
        total = float(comments["total_estimated_error"])
        estimates = column(header, rows, "estimated_error")
        assert total == pytest.approx(estimates.sum(), rel=1e-12)
        dts = column(header, rows, "dt")
        assert dts.sum() == pytest.approx(20.0, rel=1e-12)
        state = read_state(state_out)
        assert state.size == 64
        assert abs(np.linalg.norm(state) - 1.0) <= 1e-12

    def test_krylov_n_echo_is_the_basis_that_ran(self, tmp_path):
        # dim 4 is below the requested 30: the echo names the size that ran.
        out = tmp_path / "evolve.csv"
        assert main(f"evolve --model ising --n 2 --krylov-n 30 --t-final 1 --out {out}".split()) == 0
        comments, header, rows = read_csv(out)
        assert comments["krylov_n"] == "4"
        assert column(header, rows, "basis_size").max() == 4

    def test_one_site_chain_runs_on_a_basis_of_one(self, tmp_path):
        # The clamped size 1 spans the one-site space; a requested 1 that
        # does not span the space is still refused.
        out = tmp_path / "evolve.csv"
        assert main(f"evolve --model toeplitz --n 1 --out {out}".split()) == 0
        comments, header, rows = read_csv(out)
        assert comments["krylov_n"] == "1"
        assert column(header, rows, "basis_size").tolist() == [1]
        assert main(f"evolve --krylov-n 1 --t-final 1 --out {tmp_path / 'one.csv'}".split()) == 1

    @pytest.mark.parametrize("state_out", ["same.csv", "sub/../same.csv", "link.csv"])
    @pytest.mark.usefixtures("no_model_build")
    def test_state_out_naming_the_csv_is_refused_before_any_work(
        self, tmp_path, monkeypatch, capsys, state_out
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.csv").symlink_to(tmp_path / "same.csv")
        args = f"evolve --model ising --n 4 --t-final 1 --out same.csv --state-out {state_out}"
        assert main(args.split()) == 1
        assert f"state_out {state_out!r} names the same file as out" in capsys.readouterr().err
        assert not (tmp_path / "same.csv").exists()

    def test_infidelity_bound_line(self, tmp_path):
        out = tmp_path / "evolve.csv"
        rc = main(
            "evolve --model ising --n 6 --krylov-n 12 --tol 1e-8 --t-final 20 "
            f"--seed 1 --out {out}".split()
        )
        assert rc == 0
        comments, header, rows = read_csv(out)
        bound = float(comments["infidelity_bound"])
        amplitudes = np.sqrt(column(header, rows, "estimated_error")).sum()
        assert bound == pytest.approx(amplitudes**2, rel=1e-12)
        assert float(comments["total_estimated_error"]) <= bound <= 1e-8
        assert float(comments["true_infidelity"]) <= bound

    def test_tighter_tolerance_never_fewer_steps(self, tmp_path):
        counts = {}
        for tol, name in ((1e-6, "loose"), (5e-7, "tight")):
            out = tmp_path / f"{name}.csv"
            rc = main(
                f"evolve --model ising --n 6 --krylov-n 12 --tol {tol} --t-final 20 "
                f"--seed 1 --out {out}".split()
            )
            assert rc == 0
            _, header, rows = read_csv(out)
            counts[name] = len(rows)
        assert counts["tight"] >= counts["loose"]

    def test_eigenvector_start_single_row(self, tmp_path):
        out = tmp_path / "evolve.csv"
        cfg_file = tmp_path / "toep.cfg"
        # Toeplitz model starts at chain site 1; with beta = 0 that state is
        # an eigenvector, so the run is one exact step.
        cfg_file.write_text("model=toeplitz\nn=8\nalpha=0.5\nbeta=0.0\nkrylov_n=4\n")
        rc = main(
            f"evolve --config {cfg_file} --tol 1e-8 --t-final 30 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 1
        assert column(header, rows, "estimated_error")[0] == 0.0


MODEL_FLAGS = {
    "--model": "model",
    "--n": "n",
    "--j": "J",
    "--hx": "h_x",
    "--hz": "h_z",
    "--alpha": "alpha",
    "--beta": "beta",
    "--krylov-n": "krylov_n",
    "--seed": "seed",
}
GRID_FLAGS = {"--t-min": "t_min", "--t-max": "t_max", "--points": "points"}
ESTIMATOR_FLAGS = {"--estimator": "estimators"}
COMMAND_FLAGS = {
    "regimes": {**MODEL_FLAGS, **GRID_FLAGS},
    "snapshots": {**MODEL_FLAGS, "--times": "times", "--profile-m": "profile_m"},
    "bounds": {**MODEL_FLAGS, **GRID_FLAGS, **ESTIMATOR_FLAGS, "--band": "band"},
    "toeplitz": {
        "--n": "n", "--alpha": "alpha", "--beta": "beta", **GRID_FLAGS, "--n-prime": "n_prime"
    },
    "evolve": {
        **MODEL_FLAGS, **ESTIMATOR_FLAGS,
        "--tol": "tol", "--t-final": "t_final", "--state-out": "state_out",
    },
}


class TestMainEntry:
    def test_unknown_estimator_exits_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(f"bounds --model ising --n 4 --estimator bogus --out {tmp_path/'x.csv'}".split())

    def test_flags_per_subcommand(self):
        # The parser is generated from the config fields; this pins the
        # spelling and destination of every flag each subcommand accepts,
        # which is every option it reads and no other.
        (sub,) = [
            action
            for action in cli._build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {
            name: {
                option: action.dest
                for action in parser._actions
                for option in action.option_strings
                if option not in ("-h", "--help")
            }
            for name, parser in sub.choices.items()
        }
        common = {"--config": "config", "--out": "out"}
        assert flags == {name: {**common, **extra} for name, extra in COMMAND_FLAGS.items()}

    @pytest.mark.parametrize(
        "args",
        [
            "regimes --times 1",
            "regimes --band",
            "evolve --n-prime 3",
            "bounds --tol 1",
            "toeplitz --model goe",
            "toeplitz --seed 9",
            "toeplitz --krylov-n 3",
            "toeplitz --estimator park_light",
            "evolve --points 5",
            "snapshots --t-max 3",
            "regimes --estimator park_light",
            # The dense size rule is not an option of any subcommand.
            "regimes --oracle-cap 64",
            "bounds --oracle-cap 64",
            "snapshots --oracle-cap 64",
            "toeplitz --oracle-cap 64",
            "evolve --oracle-cap 64",
        ],
    )
    def test_flag_of_another_subcommand_exits_via_argparse(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_build_model_dispatch(self):
        ham, psi = build_model(ExperimentConfig(model="gue", n=24, seed=3))
        assert ham.dim == 24
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "args, sizes",
        [
            ("regimes --model ising --n 6 --krylov-n 10 --t-max 4 --points 300", []),
            ("bounds --model goe --n 64 --krylov-n 10 --t-max 2 --points 200 --band", []),
            ("evolve --model ising --n 6 --krylov-n 10 --t-final 5", [36, 28]),
            # Three oracle blocks of times at this dimension.
            (
                "snapshots --model ising --n 8 --krylov-n 10 --profile-m 20 --times "
                + ",".join(f"{0.01 * k:g}" for k in range(600)),
                [],
            ),
        ],
        ids=["regimes", "bounds", "evolve", "snapshots"],
    )
    def test_one_dense_eigensolve_per_run(self, tmp_path, monkeypatch, args, sizes):
        # The sweeps take their exact states from the Chebyshev propagator,
        # with no dense solve. evolve makes one decomposition of the whole
        # space, in real arithmetic: the Ising chain as its two reflection
        # sectors, whose sizes sum to its dimension (64 = 36 + 28 at n=6).
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(matrix, *rest, **kwargs):
            calls.append((matrix.dtype, matrix.shape))
            return eigh(matrix, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        out = tmp_path / "run.csv"
        assert main(f"{args} --out {out}".split()) == 0
        assert calls == [(np.float64, (size, size)) for size in sizes]

    @pytest.mark.parametrize(
        "args, solves, dense_dim",
        [
            ("regimes --model ising --n 6 --points 21 --t-max 3", 0, None),
            ("bounds --model goe --n 64 --krylov-n 10 --points 5 --t-max 1 --band", 0, None),
            ("snapshots --model ising --n 6 --times 0,1,2", 0, None),
            ("evolve --model ising --n 6 --t-final 5", 1, None),
            # Above MAX_DENSE_DIM, evolve still runs and leaves its oracle line out.
            ("evolve --model ising --n 6 --t-final 5", 0, 32),
        ],
        ids=["regimes", "bounds", "snapshots", "evolve", "evolve-above-cap"],
    )
    def test_oracle_solved_once_on_the_calling_thread(
        self, tmp_path, monkeypatch, args, solves, dense_dim
    ):
        if dense_dim is not None:
            monkeypatch.setattr(cli, "MAX_DENSE_DIM", dense_dim)
        threads = []
        for cls in (IsingOperator, LinearOperator):
            def recording(self, eigh=cls._eigh):
                threads.append(threading.current_thread())
                return eigh(self)

            monkeypatch.setattr(cls, "_eigh", recording)
        out = tmp_path / "run.csv"
        assert main(f"{args} --out {out}".split()) == 0
        assert threads == [threading.main_thread()] * solves
        if args.startswith("evolve"):
            comments, _, _ = read_csv(out)
            assert ("true_infidelity" in comments) == bool(solves)

    @pytest.mark.parametrize(
        "args, echoed",
        [
            ("regimes --model ising --n 4 --points 5 --t-max 1", {"krylov_n": "16"}),
            ("bounds --model ising --n 4 --points 5 --t-max 1", {"krylov_n": "16"}),
            ("snapshots --model ising --n 4 --times 1", {"krylov_n": "16", "profile_m": "16"}),
            ("snapshots --model ising --n 4 --krylov-n 6 --times 1", {"krylov_n": "6", "profile_m": "12"}),
        ],
        ids=["regimes", "bounds", "snapshots", "snapshots-default-profile"],
    )
    def test_config_echo_names_the_sizes_that_ran(self, tmp_path, args, echoed):
        # The default krylov_n of 30 exceeds dim 16; the echo states what ran.
        out = tmp_path / "run.csv"
        assert main(f"{args} --out {out}".split()) == 0
        comments, _, _ = read_csv(out)
        assert {key: comments[key] for key in echoed} == echoed

    # Each command's echo: every option it reads except out, in field order,
    # with the value that ran, then its result lines.
    ECHOES = {
        "regimes": (
            "regimes --model toeplitz --n 12 --alpha 0.3 --beta 2.0 --krylov-n 6 "
            "--t-min 0.5 --t-max 2.0 --points 5 --seed 3",
            {
                "model": "toeplitz", "n": "12", "J": "1.0", "h_x": "1.0", "h_z": "0.5",
                "alpha": "0.3", "beta": "2.0", "krylov_n": "6", "t_min": "0.5", "t_max": "2.0",
                "points": "5", "seed": "3",
            },
            ["t_exp", "t_col"],
        ),
        "snapshots": (
            "snapshots --model ising --n 4 --j 0.5 --hx 2.0 --hz 0.1 --krylov-n 5 "
            "--times 0.5,1.0 --profile-m 10 --seed 2",
            {
                "model": "ising", "n": "4", "J": "0.5", "h_x": "2.0", "h_z": "0.1",
                "alpha": "0.0", "beta": "1.0", "krylov_n": "5", "times": "0.5,1.0",
                "seed": "2", "profile_m": "10",
            },
            [],
        ),
        "bounds": (
            "bounds --model toeplitz --n 20 --alpha 0.3 --beta 2.0 --krylov-n 6 --t-max 1.0 "
            "--points 5 --estimator park_light --estimator extra_site_exact --band",
            {
                "model": "toeplitz", "n": "20", "J": "1.0", "h_x": "1.0", "h_z": "0.5",
                "alpha": "0.3", "beta": "2.0", "krylov_n": "6", "t_min": "0.0", "t_max": "1.0",
                "points": "5", "seed": "1", "estimators": "park_light,extra_site_exact",
                "band": "True",
            },
            ["oracle_floor"],
        ),
        "toeplitz": (
            "toeplitz --n 10 --alpha 0.5 --beta 1.5 --t-max 5.0 --points 5",
            {
                "n": "10", "alpha": "0.5", "beta": "1.5", "n_prime": "11", "t_min": "0.0",
                "t_max": "5.0", "points": "5",
            },
            [],
        ),
        "evolve": (
            "evolve --model goe --n 32 --krylov-n 8 --seed 4 --estimator extra_site_hybrid "
            "--estimator park_light --tol 1e-06 --t-final 2.0",
            {
                "model": "goe", "n": "32", "J": "1.0", "h_x": "1.0", "h_z": "0.5",
                "alpha": "0.0", "beta": "1.0", "krylov_n": "8", "seed": "4",
                "estimators": "extra_site_hybrid", "tol": "1e-06", "t_final": "2.0",
                "state_out": "{out}.kryv",
            },
            ["total_estimated_error", "infidelity_bound", "true_infidelity"],
        ),
    }

    @pytest.mark.parametrize("command", list(ECHOES))
    def test_echo_is_every_option_read_then_the_results(self, tmp_path, command):
        args, options, results = self.ECHOES[command]
        out = tmp_path / "run.csv"
        assert main(f"{args} --out {out}".split()) == 0
        comments, header, _ = read_csv(out)
        echoed = {key: value.format(out=out) for key, value in options.items()}
        assert list(comments) == ["command", *echoed, *results]
        assert {key: comments[key] for key in ["command", *echoed]} == {"command": command, **echoed}
        if command == "evolve":
            # The kind is stated once, in the header, and the state is where it says.
            assert "estimator_kind" not in header
            assert Path(comments["state_out"]).is_file()

    @pytest.mark.parametrize("command", list(ECHOES))
    def test_echo_options_rerun_as_a_config_file(self, tmp_path, command):
        # The echo's option lines, saved as a config file, rerun the same
        # experiment: the same echo and data rows, and for evolve the same
        # state (wall_time, a measurement, aside).
        args, _, results = self.ECHOES[command]
        first, again, cfg_file = tmp_path / "first.csv", tmp_path / "again.csv", tmp_path / "run.cfg"
        assert main(f"{args} --out {first}".split()) == 0
        comments, header, rows = read_csv(first)
        options = {key: value for key, value in comments.items() if key not in ("command", *results)}
        cfg_file.write_text("".join(f"{key}={value}\n" for key, value in options.items()))
        state = Path(comments["state_out"]).read_bytes() if command == "evolve" else None
        assert main(f"{command} --config {cfg_file} --out {again}".split()) == 0
        comments_again, header_again, rows_again = read_csv(again)
        assert (comments_again, header_again) == (comments, header)
        if command == "evolve":
            assert Path(comments["state_out"]).read_bytes() == state
            wall = header.index("wall_time")
            rows, rows_again = ([row[:wall] + row[wall + 1 :] for row in r] for r in (rows, rows_again))
        assert rows_again == rows

    # A failure before the oracle is needed: the estimate exceeds its budget
    # at the minimum step.
    UNREACHABLE = "evolve --model ising --n 6 --krylov-n 2 --tol 1e-14 --t-final 5"

    def test_failure_after_the_solve_starts_returns_at_once(self, tmp_path, monkeypatch, capsys):
        # The failing evolve neither waits for nor runs the oracle solve.
        def never(self):
            raise AssertionError("the oracle was solved for a failing evolution")

        monkeypatch.setattr(IsingOperator, "_eigh", never)
        assert main(f"{self.UNREACHABLE} --out {tmp_path / 'e.csv'}".split()) == 1
        assert "minimum step" in capsys.readouterr().err

    def test_failing_process_exits_after_the_solve(self, tmp_path):
        # The whole process exits with the error and leaves no solve behind:
        # the slow solve is never started.
        done = tmp_path / "solved"
        script = (
            "import sys, time\n"
            "from krylov_echo import cli, models\n"
            "def slow(self):\n"
            "    time.sleep(0.5)\n"
            f"    open({str(done)!r}, 'w').close()\n"
            "models.IsingOperator._eigh = slow\n"
            f"sys.exit(cli.main({self.UNREACHABLE.split()!r} + ['--out', {str(tmp_path / 'e.csv')!r}]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(krylov_echo.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 1
        assert "minimum step" in proc.stderr
        assert not done.exists()

    def test_measure_regime_times_shapes(self):
        ts = np.linspace(0, 1, 11)
        errors = np.full(11, 1e-16)
        echoes = np.ones(11)
        t_exp, _ = measure_regime_times(ts, errors, echoes)
        assert np.isnan(t_exp)

    def test_collapse_needs_an_error_above_the_plateau(self):
        # A rounding-sized dip has a steepest drop but no collapse; the same
        # dip with one error above the plateau level has its onset.
        ts = np.linspace(0, 1, 11)
        echoes = np.ones(11)
        echoes[6:] -= 1e-13
        errors = 1.0 - echoes
        assert np.isnan(measure_regime_times(ts, errors, echoes)[1])
        errors[-1] = 2 * cli.PLATEAU_LEVEL
        assert measure_regime_times(ts, errors, echoes)[1] == ts[5]
