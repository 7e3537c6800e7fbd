"""Experiment harness: CSV-producing subcommands over the evolution engine.

Subcommands: ``regimes`` (echo/error time regimes against the dense oracle),
``snapshots`` (chain wave-packet profiles), ``bounds`` (estimators vs the
true error), ``toeplitz`` (closed-form vs numeric echo), ``evolve``
(adaptive time stepping). Configuration comes from an optional flat
``key=value`` file plus command-line overrides; every output embeds a
config echo in ``#`` comment lines so it is self-describing.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .estimators import (
    ESTIMATOR_NAMES,
    bind_estimator,
    echo_general,
    extra_site_band,
    oracle_infidelities,
)
from .lanczos import lanczos_iterate
from .linalg import (
    DEFAULT_ORACLE_CAP,
    DenseOperator,
    LinearOperator,
    SymmetricTridiagonal,
    _end_states,
    _over_times,
    basis_state,
    exact_evolve_dense,
)
from .models import IsingParams, goe_sample, gue_sample, ising_operator, random_state
from .propagator import project_profile, true_infidelity
from .stateio import write_state
from .stepper import StepRecord, evolve_adaptive
from .toeplitz import toeplitz_echo

__all__ = [
    "ExperimentConfig",
    "build_model",
    "cmd_bounds",
    "cmd_evolve",
    "cmd_regimes",
    "cmd_snapshots",
    "cmd_toeplitz",
    "load_config_file",
    "main",
    "measure_regime_times",
]

MODELS = ("ising", "goe", "gue", "toeplitz")

# Decorrelates the random initial state from a random matrix drawn with the
# same user-facing seed.
STATE_SEED_OFFSET = 1_000_003

# Error threshold and sustained-crossing length defining the measured onset
# of exponential error growth, and the plateau level it must sit below.
PLATEAU_LEVEL = 1e-10
SUSTAIN_POINTS = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description shared by all subcommands."""

    command: str = "regimes"
    model: str = "ising"
    n: int = 10
    J: float = 1.0
    h_x: float = 1.0
    h_z: float = 0.5
    alpha: float = 0.0
    beta: float = 1.0
    krylov_n: int = 30
    n_prime: int = 0
    t_min: float = 0.0
    t_max: float = 60.0
    points: int = 200
    times: tuple[float, ...] = ()
    seed: int = 1
    estimators: tuple[str, ...] = ("extra_site_exact", "extra_site_averaged")
    band: bool = False
    profile_m: int = 0
    tol: float = 1e-8
    t_final: float = 100.0
    oracle_cap: int = DEFAULT_ORACLE_CAP
    out: str = "out.csv"
    state_out: str = ""

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not np.isfinite([self.t_min, self.t_max, *self.times]).all():
            raise ValueError("t_min, t_max and times must be finite")
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be smaller than t_max")
        for name in self.estimators:
            if name not in ESTIMATOR_NAMES:
                raise ValueError(
                    f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}"
                )


def _coerce(key: str, raw: str):
    """Parse a raw string into the type ``ExperimentConfig`` declares for ``key``.

    Tuples are comma-separated lists of their item type (string items are
    stripped); booleans accept 1/true/yes/on and 0/false/no/off,
    case-insensitively. Any other value raises a ``ValueError`` naming
    ``key`` and ``raw``.
    """
    kind = typing.get_type_hints(ExperimentConfig)[key]
    if kind is bool:
        word = raw.strip().lower()
        if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ValueError(f"{key}={raw!r} is not a boolean (1/true/yes/on or 0/false/no/off)")
        return word in ("1", "true", "yes", "on")
    try:
        if typing.get_origin(kind) is tuple:
            item = typing.get_args(kind)[0]
            parse = str.strip if item is str else item
            return tuple(parse(tok) for tok in raw.split(",") if tok.strip())
        return kind(raw)
    except ValueError as exc:
        raise ValueError(f"{key}={raw!r}: {exc}") from None


def load_config_file(path) -> dict:
    """Parse a flat ``key=value`` file; ``#`` comments and blank lines ignored."""
    known = {f.name for f in fields(ExperimentConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (tok.strip() for tok in line.split("=", 1))
            if key not in known or key == "command":
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def build_model(cfg: ExperimentConfig, oracle: bool = False) -> tuple[LinearOperator, np.ndarray]:
    """Instantiate (H, initial state) for the configured model.

    Random-matrix models draw the state with an offset seed so it is
    independent of the matrix entries. The toeplitz model starts at chain
    site 1, where the recurrence reproduces the homogeneous chain exactly.
    With ``oracle``, a dimension above ``cfg.oracle_cap`` is refused before
    any dense matrix is drawn or filled.
    """

    def dim(value: int) -> int:
        if oracle and value > cfg.oracle_cap:
            raise ValueError(
                f"this experiment needs the dense oracle, but dimension {value} exceeds "
                f"oracle_cap {cfg.oracle_cap}"
            )
        return value

    if cfg.model == "ising":
        params = IsingParams(cfg.n, J=cfg.J, h_x=cfg.h_x, h_z=cfg.h_z)
        dim(params.dim)
        op = ising_operator(params)
        return op, random_state(op.dim, cfg.seed)
    if cfg.model == "goe":
        return goe_sample(dim(cfg.n), cfg.seed), random_state(cfg.n, cfg.seed + STATE_SEED_OFFSET)
    if cfg.model == "gue":
        return gue_sample(dim(cfg.n), cfg.seed), random_state(cfg.n, cfg.seed + STATE_SEED_OFFSET)
    if cfg.model == "toeplitz":
        tri = SymmetricTridiagonal(
            np.full(dim(cfg.n), cfg.alpha), np.full(cfg.n - 1, cfg.beta)
        )
        return DenseOperator(tri.to_dense()), basis_state(cfg.n)
    raise ValueError(f"unknown model {cfg.model!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{value:.14e}"
    return str(value)


def _config_comments(cfg: ExperimentConfig, keys: tuple[str, ...]) -> list[str]:
    lines = [f"command={cfg.command}"]
    lines += [f"{key}={getattr(cfg, key)}" for key in keys]
    return lines


def _write_csv(path, comments, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(value) for value in row) + "\n")


def measure_regime_times(ts, errors, echoes) -> tuple[float, float]:
    """Measured (t_exp, t_col) from a sampled error/echo pair of curves.

    t_exp: first grid time where the error exceeds the plateau level for
    SUSTAIN_POINTS consecutive points. t_col: onset of the steepest echo
    drop, found by locating the steepest single-interval fall and walking
    back to where that collapse begins (falls below 1% of the steepest
    rate); on fine grids the cliff spans several intervals and the onset,
    not the mid-cliff point, marks the regime boundary. Either time is NaN
    when undefined.
    """
    ts = np.asarray(ts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    echoes = np.asarray(echoes, dtype=float)
    above = errors > PLATEAU_LEVEL
    t_exp = float("nan")
    for i in range(len(ts) - SUSTAIN_POINTS + 1):
        if above[i : i + SUSTAIN_POINTS].all():
            t_exp = float(ts[i])
            break
    t_col = float("nan")
    if len(ts) > 1:
        drops = np.diff(echoes)
        steepest = int(np.argmin(drops))
        threshold = 0.01 * abs(drops[steepest])
        onset = steepest
        while onset > 0 and drops[onset - 1] < -threshold:
            onset -= 1
        t_col = float(ts[onset])
    return t_exp, t_col


def _grid(cfg: ExperimentConfig) -> np.ndarray:
    return np.linspace(cfg.t_min, cfg.t_max, cfg.points)


def cmd_regimes(cfg: ExperimentConfig) -> None:
    """Echo and true error across a time grid, with measured regime times."""
    hamiltonian, psi = build_model(cfg, oracle=True)
    basis = lanczos_iterate(hamiltonian, psi, min(cfg.krylov_n, hamiltonian.dim))
    ts = _grid(cfg)
    errors = oracle_infidelities(basis, hamiltonian, ts, cap=cfg.oracle_cap)
    echoes = 1.0 - errors
    t_exp, t_col = measure_regime_times(ts, errors, echoes)
    comments = _config_comments(
        cfg, ("model", "n", "J", "h_x", "h_z", "krylov_n", "t_min", "t_max", "points", "seed")
    )
    comments.append(f"t_exp={_fmt(t_exp)}")
    comments.append(f"t_col={_fmt(t_col)}")
    rows = [(float(t), float(e), float(r)) for t, e, r in zip(ts, echoes, errors)]
    _write_csv(cfg.out, comments, ["t", "echo", "error"], rows)


def cmd_snapshots(cfg: ExperimentConfig) -> None:
    """Exact vs Krylov wave-packet profiles on the chain at requested times."""
    if not cfg.times:
        raise ValueError("snapshots needs --times (comma-separated list)")
    hamiltonian, psi = build_model(cfg, oracle=True)
    profile_m = cfg.profile_m or min(2 * cfg.krylov_n, hamiltonian.dim)
    if not cfg.krylov_n <= profile_m <= hamiltonian.dim:
        raise ValueError(
            f"profile_m {profile_m} must lie in [krylov_n {cfg.krylov_n}, dim {hamiltonian.dim}]"
        )
    basis = lanczos_iterate(hamiltonian, psi, profile_m)
    reduced = basis.tridiag.prefix(min(cfg.krylov_n, basis.size))
    times = np.asarray(cfg.times, dtype=float)
    pop_krylov = np.zeros((times.size, basis.size))
    pop_krylov[:, : reduced.n] = np.abs(_end_states(reduced.eigen(), times)) ** 2

    def exact_profiles(block):
        states = exact_evolve_dense(hamiltonian, psi, block, cap=cfg.oracle_cap)
        return project_profile(basis, states)

    pop_exact = _over_times(exact_profiles, times, hamiltonian.dim)
    rows = zip(
        np.repeat(times, basis.size),
        np.tile(np.arange(basis.size), times.size),
        pop_exact.ravel(),
        pop_krylov.ravel(),
    )
    comments = _config_comments(
        cfg, ("model", "n", "krylov_n", "profile_m", "times", "seed")
    )
    _write_csv(cfg.out, comments, ["t", "site", "pop_exact", "pop_krylov"], rows)


def cmd_bounds(cfg: ExperimentConfig) -> None:
    """Cheap estimators against the oracle error, with per-time ratios."""
    hamiltonian, psi = build_model(cfg, oracle=True)
    basis = lanczos_iterate(hamiltonian, psi, min(cfg.krylov_n, hamiltonian.dim))
    estimator_fns = {
        name: bind_estimator(name, basis, hamiltonian) for name in cfg.estimators
    }
    ts = _grid(cfg)
    header = ["t", "oracle"]
    header += list(cfg.estimators)
    header += [f"ratio_{name}" for name in cfg.estimators]
    if cfg.band:
        header += ["band_low", "band_high"]
    oracles = oracle_infidelities(basis, hamiltonian, ts, cap=cfg.oracle_cap)
    estimates = [estimator_fns[name](ts) for name in cfg.estimators]
    # A ratio over an oracle of exactly 0 is undefined: its cell is left empty.
    undefined = oracles == 0.0
    ratios = [np.where(undefined, None, est / np.where(undefined, 1.0, oracles)) for est in estimates]
    columns = [ts, oracles, *estimates, *ratios]
    if cfg.band:
        columns += extra_site_band(basis, ts)
    rows = zip(*columns)
    comments = _config_comments(
        cfg,
        ("model", "n", "J", "h_x", "h_z", "krylov_n", "t_min", "t_max", "points", "seed", "estimators", "band"),
    )
    _write_csv(cfg.out, comments, header, rows)


def cmd_toeplitz(cfg: ExperimentConfig) -> None:
    """Closed-form vs numerically propagated homogeneous-chain echo."""
    cfg = replace(cfg, n_prime=cfg.n_prime or cfg.n + 1)
    tri_a = SymmetricTridiagonal(np.full(cfg.n, cfg.alpha), np.full(cfg.n - 1, cfg.beta))
    tri_b = SymmetricTridiagonal(np.full(cfg.n_prime, cfg.alpha), np.full(cfg.n_prime - 1, cfg.beta))
    ts = _grid(cfg)
    analytic = np.abs(toeplitz_echo(cfg.n, cfg.n_prime, cfg.alpha, cfg.beta, ts)) ** 2
    numeric = np.abs(echo_general(tri_a, tri_b, ts)) ** 2
    rows = zip(ts, analytic, numeric, np.abs(analytic - numeric))
    comments = _config_comments(cfg, ("n", "n_prime", "alpha", "beta", "t_min", "t_max", "points"))
    _write_csv(cfg.out, comments, ["t", "echo2_analytic", "echo2_numeric", "abs_diff"], rows)


def cmd_evolve(cfg: ExperimentConfig) -> None:
    """Adaptive evolution: step log CSV plus the final state as a KRYV1 file."""
    hamiltonian, psi = build_model(cfg)
    kind = cfg.estimators[0] if cfg.estimators else "extra_site_exact"
    report = evolve_adaptive(
        hamiltonian, psi, cfg.t_final, cfg.tol, min(cfg.krylov_n, hamiltonian.dim), kind=kind
    )
    state_path = cfg.state_out or f"{cfg.out}.kryv"
    write_state(state_path, report.final_state)
    comments = _config_comments(
        cfg, ("model", "n", "J", "h_x", "h_z", "krylov_n", "seed", "tol", "t_final")
    )
    comments.append(f"estimator={kind}")
    comments.append(f"state_out={state_path}")
    comments.append(f"total_estimated_error={_fmt(report.total_estimated_error)}")
    comments.append(f"infidelity_bound={_fmt(report.infidelity_bound)}")
    if hamiltonian.dim <= cfg.oracle_cap:
        exact = exact_evolve_dense(hamiltonian, psi, cfg.t_final, cap=cfg.oracle_cap)
        final_infidelity = true_infidelity(report.final_state, exact)
        comments.append(f"true_infidelity={_fmt(final_infidelity)}")
    rows = [(i, *astuple(step)) for i, step in enumerate(report.steps)]
    header = ["step", *(f.name for f in fields(StepRecord))]
    _write_csv(cfg.out, comments, header, rows)


COMMANDS = {
    "regimes": cmd_regimes,
    "snapshots": cmd_snapshots,
    "bounds": cmd_bounds,
    "toeplitz": cmd_toeplitz,
    "evolve": cmd_evolve,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--out", help="output CSV path")
    common.add_argument("--model", choices=MODELS)
    common.add_argument("--n", type=int, help="spins (ising), dimension (goe/gue), sites (toeplitz)")
    common.add_argument("--j", dest="J", type=float, help="Ising coupling J")
    common.add_argument("--hx", dest="h_x", type=float, help="transverse field")
    common.add_argument("--hz", dest="h_z", type=float, help="parallel field")
    common.add_argument("--alpha", type=float, help="homogeneous onsite energy")
    common.add_argument("--beta", type=float, help="homogeneous hopping")
    common.add_argument("--krylov-n", dest="krylov_n", type=int, help="Krylov basis size")
    common.add_argument("--t-min", dest="t_min", type=float)
    common.add_argument("--t-max", dest="t_max", type=float)
    common.add_argument("--points", type=int, help="grid points")
    common.add_argument("--seed", type=int)
    common.add_argument(
        "--estimator",
        dest="estimators",
        action="append",
        choices=list(ESTIMATOR_NAMES),
        help="estimator kind (repeatable)",
    )
    common.add_argument("--oracle-cap", dest="oracle_cap", type=int)

    parser = argparse.ArgumentParser(
        prog="krylov-echo",
        description="Krylov-subspace evolution with echo-based error certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("regimes", parents=[common], help="echo/error time regimes vs the dense oracle")
    snap = sub.add_parser("snapshots", parents=[common], help="chain wave-packet profiles")
    snap.add_argument("--times", help="comma-separated snapshot times")
    snap.add_argument("--profile-m", dest="profile_m", type=int, help="profile basis length (>= krylov size)")
    bounds = sub.add_parser("bounds", parents=[common], help="estimators vs oracle error")
    bounds.add_argument("--band", action="store_true", default=None, help="add min/max coefficient envelope")
    toep = sub.add_parser("toeplitz", parents=[common], help="analytic vs numeric homogeneous echo")
    toep.add_argument("--n-prime", dest="n_prime", type=int, help="second chain size (default n+1)")
    evolve = sub.add_parser("evolve", parents=[common], help="adaptive time stepping")
    evolve.add_argument("--tol", type=float, help="total infidelity budget")
    evolve.add_argument("--t-final", dest="t_final", type=float)
    evolve.add_argument("--state-out", dest="state_out", help="final state path (KRYV1)")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file, and command-line overrides (in that order)."""
    cfg = ExperimentConfig(command=args.command)
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if isinstance(value, str):
            value = _coerce(f.name, value)
        elif isinstance(value, list):
            value = tuple(value)
        if value is not None:
            overrides[f.name] = value
    cfg = replace(cfg, **overrides)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        COMMANDS[cfg.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
