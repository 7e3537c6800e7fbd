"""CLI harness: config handling, CSV outputs, state files, exit codes."""

import numpy as np
import pytest

from krylov_echo import cli
from krylov_echo.cli import (
    ExperimentConfig,
    build_model,
    load_config_file,
    main,
    measure_regime_times,
)
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

    def test_malformed_number_on_command_line_names_key(self, capsys):
        assert main(["snapshots", "--times", "1,abc"]) == 1
        assert "times='1,abc'" in capsys.readouterr().err

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
        "command", ["regimes", "bounds", "snapshots --times 0,1"], ids=["regimes", "bounds", "snapshots"]
    )
    def test_oracle_cap_enforced(self, tmp_path, capsys, command):
        out = tmp_path / "never.csv"
        rc = main(
            f"{command} --model ising --n 8 --krylov-n 16 --oracle-cap 64 "
            f"--out {out}".split()
        )
        assert rc == 1
        assert "oracle_cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, n, dim, builder",
        [
            ("goe", 3000, 3000, "goe_sample"),
            ("gue", 3000, 3000, "gue_sample"),
            ("ising", 20, 2**20, "ising_operator"),
        ],
        ids=["goe", "gue", "ising"],
    )
    @pytest.mark.parametrize(
        "command", ["regimes", "bounds", "snapshots --times 0,1"], ids=["regimes", "bounds", "snapshots"]
    )
    def test_oracle_cap_refuses_before_sampling(
        self, tmp_path, capsys, monkeypatch, command, model, n, dim, builder
    ):
        def never(*args):
            raise AssertionError("the operator was built before the oracle cap was checked")

        monkeypatch.setattr(cli, builder, never)
        out = tmp_path / "never.csv"
        rc = main(f"{command} --model {model} --n {n} --oracle-cap 2048 --out {out}".split())
        assert rc == 1
        err = capsys.readouterr().err
        assert (
            f"this experiment needs the dense oracle, but dimension {dim} exceeds oracle_cap 2048"
            in err
        )
        assert not out.exists()

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


class TestBoundsCommand:
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
        ratios = column(header, rows[1:], "ratio_extra_site_exact")
        assert ts[0] == 0.0 and (ts[1:] > 0.0).all()
        assert np.abs(ratios - 1.0).max() <= 1e-12

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

    def test_ratios_resolved_at_short_times(self, tmp_path):
        # At these times the error lies far below 1e-16; the oracle and the
        # echo estimators resolve it with the same residual form.
        out = tmp_path / "bounds.csv"
        rc = main(
            "bounds --model ising --n 8 --krylov-n 16 --t-min 0.01 --t-max 0.2 "
            "--points 5 --estimator extra_site_exact --estimator extra_site_hybrid "
            f"--estimator park_light --seed 1 --out {out}".split()
        )
        assert rc == 0
        _, header, rows = read_csv(out)
        for name in header:
            if name.startswith("ratio_"):
                assert np.isfinite(column(header, rows, name)).all(), name
        assert 0.5 <= column(header, rows, "ratio_extra_site_exact")[-1] <= 2.0

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


class TestMainEntry:
    def test_unknown_estimator_exits_via_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(f"bounds --model ising --n 4 --estimator bogus --out {tmp_path/'x.csv'}".split())

    def test_build_model_dispatch(self):
        ham, psi = build_model(ExperimentConfig(model="gue", n=24, seed=3))
        assert ham.dim == 24
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "args, sizes",
        [
            ("regimes --model ising --n 6 --krylov-n 10 --t-max 4 --points 300", [36, 28]),
            ("bounds --model goe --n 64 --krylov-n 10 --t-max 2 --points 200 --band", [64]),
            ("evolve --model ising --n 6 --krylov-n 10 --t-final 5", [36, 28]),
            # Three oracle blocks of times at this dimension.
            (
                "snapshots --model ising --n 8 --krylov-n 10 --profile-m 20 --times "
                + ",".join(f"{0.01 * k:g}" for k in range(600)),
                [136, 120],
            ),
        ],
        ids=["regimes", "bounds", "evolve", "snapshots"],
    )
    def test_one_dense_eigensolve_per_run(self, tmp_path, monkeypatch, args, sizes):
        # One decomposition of the whole space per run, in real arithmetic:
        # a GOE matrix in one piece, the Ising chain as its two reflection
        # sectors, whose sizes sum to its dimension (64 = 36 + 28 at n=6,
        # 256 = 136 + 120 at n=8).
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(matrix, *rest, **kwargs):
            calls.append((matrix.dtype, matrix.shape))
            return eigh(matrix, *rest, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        out = tmp_path / "run.csv"
        assert main(f"{args} --out {out}".split()) == 0
        assert calls == [(np.float64, (size, size)) for size in sizes]

    def test_measure_regime_times_shapes(self):
        ts = np.linspace(0, 1, 11)
        errors = np.full(11, 1e-16)
        echoes = np.ones(11)
        t_exp, _ = measure_regime_times(ts, errors, echoes)
        assert np.isnan(t_exp)
