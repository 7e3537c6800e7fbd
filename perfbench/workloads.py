"""The benchmark's workloads: inputs made from a seed, the operations of one pass, and their checks.

Each workload is a closed loop: one caller runs its operations one after
another, each starting only when the previous one has returned. Every check
compares an output with a computation from ``references`` (which does not
import krylov_echo) or with a property the method must have, never with a
stored copy of an earlier output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ClassVar

import numpy as np

import krylov_echo as ke
from krylov_echo import cli

import references as ref

TOL = 1e-8
N_KRYLOV = 30
# Krylov dimension of the ``evolve`` sweep.
EVOLVE_N_KRYLOV = 20
ALL_ESTIMATORS = (
    "extra_site_exact",
    "extra_site_averaged",
    "extra_site_hybrid",
    "toeplitz_analytic",
    "park_light",
)
# Grid points at which a sweep's oracle column is recomputed independently.
CHECKED_POINTS = 5


@dataclass
class Operation:
    """One timed call into the program; ``collect`` gathers its output untimed."""

    name: str
    run: Callable[[], Any]
    collect: Callable[[Any], Any] = lambda result: result


@dataclass
class Workload:
    """Base: subclasses set ``name``, ``required_layers`` and the methods below."""

    name: ClassVar[str] = ""
    # Layers whose traced calls must be nonzero on this workload.
    required_layers: ClassVar[tuple[str, ...]] = ()
    seed: int

    def warm_up(self) -> None:
        """One small call of each operation kind, so lazy set-up is paid before timing."""

    def build_references(self) -> list[str]:
        """Compute the independent references into ``self.refs``; returns problems found on the way."""
        raise NotImplementedError

    def operations(self) -> list[Operation]:
        raise NotImplementedError

    def check(self, name: str, output: Any) -> list[str]:
        """Problems in one operation's output; empty when it is correct."""
        raise NotImplementedError


EVOLVE_LAYERS = (
    "models.apply",
    "lanczos.iterate",
    "lanczos.extend",
    "linalg.eigensolve",
    "estimators",
    "stepper",
    "propagator.evolve",
)


@dataclass
class EvolveLarge(Workload):
    """The production path: ``evolve_adaptive`` on a large Ising chain, checked against ``expm_multiply``."""

    name = "evolve-large"
    required_layers = EVOLVE_LAYERS
    n_spins: int = 14
    t_final: float = 10.0

    def __post_init__(self):
        self.op = ke.ising_operator(ke.IsingParams(self.n_spins))
        self.psi = ref.normal_state(self.op.dim, self.seed)

    def warm_up(self) -> None:
        ke.evolve_adaptive(self.op, self.psi, 0.05, TOL, N_KRYLOV)

    def build_references(self) -> list[str]:
        matrix = ref.ising_sparse(self.n_spins)
        probe = ref.normal_state(self.op.dim, self.seed + 1)
        gap = float(np.abs(matrix @ probe - self.op.apply(probe)).max())
        self.refs = {"exact": ref.expm_reference(matrix, self.psi, self.t_final)}
        if gap > 1e-12:
            return [f"reference Ising matrix differs from the operator's apply by {gap:.3e}"]
        return []

    def operations(self) -> list[Operation]:
        return [
            Operation(
                "evolve.extra_site_exact",
                lambda: ke.evolve_adaptive(self.op, self.psi, self.t_final, TOL, N_KRYLOV),
            )
        ]

    def check(self, name: str, output) -> list[str]:
        """An adaptive evolution must end on a unit state within ``TOL`` of the reference."""
        problems = []
        norm = float(np.linalg.norm(output.final_state))
        if abs(norm - 1.0) > 1e-12:
            problems.append(f"final state norm {norm!r} is not 1 to 1e-12")
        infid = ref.infidelity(output.final_state / norm, self.refs["exact"])
        if not infid <= TOL:
            problems.append(f"infidelity {infid:.3e} against the reference exceeds tol {TOL}")
        total_dt = sum(step.dt for step in output.steps)
        if abs(total_dt - self.t_final) > 1e-9 * self.t_final:
            problems.append(f"steps cover {total_dt!r}, not t_final {self.t_final}")
        if not output.total_estimated_error <= TOL:
            problems.append(f"total_estimated_error {output.total_estimated_error:.3e} exceeds tol")
        return problems


def _drop_column(data: bytes, column: str) -> bytes:
    """The CSV without one column (the evolve log's wall times differ between runs)."""
    lines = data.decode("utf-8").split("\n")
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            idx = line.split(",").index(column)
            break
    else:
        return data
    kept = lines[:i]
    for line in lines[i:]:
        cells = line.split(",")
        kept.append(",".join(cells[:idx] + cells[idx + 1 :]) if len(cells) > idx else line)
    return "\n".join(kept).encode("utf-8")


def _checked_indices(points: int) -> np.ndarray:
    return np.linspace(0, points - 1, CHECKED_POINTS).round().astype(int)


@dataclass
class CliSweeps(Workload):
    """The CLI subcommands, writing CSVs and a KRYV1 state into ``workdir``."""

    name = "cli-sweeps"
    required_layers = (
        *EVOLVE_LAYERS,
        "cli",
        "linalg.oracle",
        "linalg.dense_eigh",
        "toeplitz.echo",
        "stateio.write",
    )
    workdir: Path = Path(".")
    goe_dim: int = 1024
    ising_spins: int = 10
    toeplitz_sites: int = 200
    bounds_points: int = 31
    regimes_points: int = 481
    toeplitz_points: int = 2000
    evolve_t_final: float = 50.0

    def __post_init__(self):
        self.workdir = Path(self.workdir)
        self._first: dict[str, bytes] = {}
        seed = str(self.seed)
        estimators = [arg for kind in ALL_ESTIMATORS for arg in ("--estimator", kind)]
        self.argv = {
            "bounds": [
                "bounds", "--model", "goe", "--n", str(self.goe_dim),
                "--krylov-n", str(N_KRYLOV), "--t-min", "0", "--t-max", "1",
                "--points", str(self.bounds_points), "--seed", seed, *estimators, "--band",
            ],
            "regimes": [
                "regimes", "--model", "ising", "--n", str(self.ising_spins),
                "--krylov-n", str(N_KRYLOV), "--t-min", "0", "--t-max", "6",
                "--points", str(self.regimes_points), "--seed", seed,
            ],
            "toeplitz": [
                "toeplitz", "--n", str(self.toeplitz_sites),
                "--n-prime", str(self.toeplitz_sites + 1), "--alpha", "0", "--beta", "1",
                "--t-min", "0", "--t-max", "100", "--points", str(self.toeplitz_points),
            ],
            "evolve": [
                "evolve", "--model", "ising", "--n", str(self.ising_spins),
                "--krylov-n", str(EVOLVE_N_KRYLOV), "--tol", str(TOL),
                "--t-final", str(self.evolve_t_final), "--seed", seed,
                "--state-out", str(self.workdir / "evolve.kryv"),
            ],
        }

    def _run(self, sub: str, argv: list[str], out: Path) -> None:
        code = cli.main([*argv, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"krylov-echo {sub} exited with code {code}")

    def warm_up(self) -> None:
        tiny = {
            "bounds": ["bounds", "--model", "goe", "--n", "64", "--points", "5", "--t-max", "1",
                       "--estimator", "extra_site_exact", "--band"],
            "regimes": ["regimes", "--model", "ising", "--n", "6", "--points", "21", "--t-max", "3"],
            "toeplitz": ["toeplitz", "--n", "10", "--points", "5", "--t-max", "5"],
            "evolve": ["evolve", "--model", "ising", "--n", "6", "--t-final", "1",
                       "--state-out", str(self.workdir / "warm-up.kryv")],
        }
        for sub, argv in tiny.items():
            self._run(sub, argv, self.workdir / f"warm-up-{sub}.csv")

    def build_references(self) -> list[str]:
        goe = ref.goe_matrix(self.goe_dim, self.seed)
        psi_goe = ref.normal_state(self.goe_dim, self.seed + ref.STATE_SEED_OFFSET)
        ising = ref.ising_sparse(self.ising_spins)
        ising_dense = ref.DenseEvolution(ising.toarray())
        psi_ising = ref.normal_state(ising.shape[0], self.seed)
        self.refs = {
            "bounds_oracle": self._oracle_reference(
                goe, psi_goe, self.bounds_points, 1.0, ref.DenseEvolution(goe)
            ),
            "regimes_error": self._oracle_reference(
                ising, psi_ising, self.regimes_points, 6.0, ising_dense
            ),
            "evolve_exact": ising_dense(psi_ising, self.evolve_t_final),
            "toeplitz_echo2": self._toeplitz_reference(),
        }
        return []

    def _oracle_reference(self, matrix, psi, points, t_max, dense) -> dict[int, float]:
        """True infidelity of the N-site Krylov approximation at the checked grid points."""
        idx = _checked_indices(points)
        ts = np.linspace(0.0, t_max, points)[idx]
        approx = ref.krylov_states(lambda v: matrix @ v, psi, N_KRYLOV, ts)
        return {
            int(i): ref.infidelity(a, dense(psi, t)) for i, t, a in zip(idx, ts, approx)
        }

    def _toeplitz_reference(self) -> dict[int, float]:
        """``|<0| exp(+i A t) exp(-i B t) |0>|^2`` for homogeneous chains of n and n+1 sites."""
        n = self.toeplitz_sites

        def chain(size):
            return ref.DenseEvolution(np.eye(size, k=1) + np.eye(size, k=-1))

        small, large = chain(n), chain(n + 1)
        idx = _checked_indices(self.toeplitz_points)
        ts = np.linspace(0.0, 100.0, self.toeplitz_points)[idx]
        out = {}
        for i, t in zip(idx, ts):
            a = small(np.eye(n)[0], t)
            b = large(np.eye(n + 1)[0], t)
            out[int(i)] = abs(np.vdot(a, b[:n])) ** 2
        return out

    def operations(self) -> list[Operation]:
        ops = []
        for sub, argv in self.argv.items():
            out = self.workdir / f"{sub}.csv"
            ops.append(
                Operation(
                    f"sweep.{sub}",
                    lambda sub=sub, argv=argv, out=out: self._run(sub, argv, out),
                    lambda _, sub=sub, out=out: self._collect(sub, out),
                )
            )
        return ops

    def _collect(self, sub: str, out: Path) -> dict[str, bytes]:
        files = {"csv": out.read_bytes()}
        if sub == "evolve":
            files["state"] = (self.workdir / "evolve.kryv").read_bytes()
        return files

    def check(self, name: str, output: dict[str, bytes]) -> list[str]:
        sub = name.split(".", 1)[1]
        problems = getattr(self, f"_check_{sub}")(output)
        stable = output["csv"]
        if sub == "evolve":
            stable = _drop_column(stable, "wall_time") + output["state"]
        first = self._first.setdefault(sub, stable)
        if stable != first:
            problems.append("output bytes differ from the first pass")
        return [f"{sub}: {p}" for p in problems]

    @staticmethod
    def _oracle_mismatch(column: np.ndarray, expected: dict[int, float], label: str) -> list[str]:
        problems = []
        for i, want in expected.items():
            if not abs(column[i] - want) <= 1e-9 + 1e-6 * want:
                problems.append(f"{label} at row {i} is {column[i]!r}, reference {want!r}")
        return problems

    def _check_bounds(self, output) -> list[str]:
        _, header, rows = ref.read_csv(output["csv"])
        problems = []
        if len(rows) != self.bounds_points:
            return [f"{len(rows)} rows, expected {self.bounds_points}"]
        oracle = ref.csv_column(header, rows, "oracle")
        problems += self._oracle_mismatch(oracle, self.refs["bounds_oracle"], "oracle")
        for name in (*ALL_ESTIMATORS, "band_low", "band_high"):
            values = ref.csv_column(header, rows, name)
            if not np.all((values >= 0.0) & (values <= 1.0)):
                problems.append(f"{name} leaves [0, 1]")
        return problems

    def _check_regimes(self, output) -> list[str]:
        comments, header, rows = ref.read_csv(output["csv"])
        if len(rows) != self.regimes_points:
            return [f"{len(rows)} rows, expected {self.regimes_points}"]
        echo = ref.csv_column(header, rows, "echo")
        error = ref.csv_column(header, rows, "error")
        problems = self._oracle_mismatch(error, self.refs["regimes_error"], "error")
        if np.abs(echo + error - 1.0).max() > 1e-14:
            problems.append("echo + error differs from 1")
        t_exp, t_col = float(comments["t_exp"]), float(comments["t_col"])
        if not 0.0 < t_exp < t_col:
            problems.append(f"regime times t_exp={t_exp} t_col={t_col} are not 0 < t_exp < t_col")
        return problems

    def _check_toeplitz(self, output) -> list[str]:
        _, header, rows = ref.read_csv(output["csv"])
        if len(rows) != self.toeplitz_points:
            return [f"{len(rows)} rows, expected {self.toeplitz_points}"]
        problems = []
        if ref.csv_column(header, rows, "abs_diff").max() > 1e-8:
            problems.append("abs_diff exceeds 1e-8")
        numeric = ref.csv_column(header, rows, "echo2_numeric")
        for i, want in self.refs["toeplitz_echo2"].items():
            if abs(numeric[i] - want) > 1e-10:
                problems.append(f"echo2_numeric at row {i} is {numeric[i]!r}, reference {want!r}")
        return problems

    def _check_evolve(self, output) -> list[str]:
        comments, header, rows = ref.read_csv(output["csv"])
        state = ref.read_kryv1(output["state"])
        problems = []
        norm = float(np.linalg.norm(state))
        if abs(norm - 1.0) > 1e-12:
            problems.append(f"state norm {norm!r} is not 1 to 1e-12")
        infid = ref.infidelity(state / norm, self.refs["evolve_exact"])
        if not infid <= TOL:
            problems.append(f"state infidelity {infid:.3e} exceeds tol {TOL}")
        total_dt = ref.csv_column(header, rows, "dt").sum()
        if abs(total_dt - self.evolve_t_final) > 1e-9 * self.evolve_t_final:
            problems.append(f"steps cover {total_dt!r}, not t_final {self.evolve_t_final}")
        if not float(comments["total_estimated_error"]) <= TOL:
            problems.append("total_estimated_error exceeds tol")
        return problems


def make(name: str, seed: int, workdir: Path) -> Workload:
    """The named workload at its benchmark size."""
    if name == "cli-sweeps":
        return CliSweeps(seed, workdir=workdir)
    if name == "evolve-large":
        return EvolveLarge(seed)
    raise ValueError(f"unknown workload {name!r}")
