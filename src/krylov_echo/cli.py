"""Experiment harness: CSV-producing subcommands over the evolution engine.

Subcommands: ``regimes`` (echo/error time regimes against the exact
evolution), ``snapshots`` (chain wave-packet profiles, exact and Krylov),
``bounds`` (estimators vs the true error), ``toeplitz`` (closed-form vs
numeric echo), ``evolve`` (adaptive time stepping). The exact evolution of
``regimes``, ``snapshots`` and ``bounds`` comes from the Chebyshev
propagator on the Ritz interval of the basis each command builds; ``evolve``
checks its final state against the dense oracle, solved after the stepper
has succeeded, within ``linalg.MAX_DENSE_DIM``, which is not an option.
Each option is declared once, as a field of ``ExperimentConfig``, and the
parser is built from those fields. Values come from an optional flat
``key=value`` file plus command-line overrides, and ``_coerce`` parses every
one of them. ``ExperimentConfig.validate`` checks the request before any
model is built and returns it resolved; a subcommand runs it as it is. Every
CSV opens with ``#`` lines: the command, every option it reads except
``out`` with its resolved value, as ``_coerce`` reads it, then its results:
the CSV is self-describing, and its option lines are a config file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import typing
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from .estimators import (
    ESTIMATOR_NAMES,
    _exact_propagator,
    bind_estimator,
    echo_general,
    extra_site_band,
    oracle_infidelities,
)
from .lanczos import lanczos_iterate
from .linalg import (
    MAX_DENSE_DIM,
    ORACLE_FLOOR,
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


# The subcommands that read a shared option: those that build a model, those
# that also build a homogeneous chain, and those that sweep a time grid. An
# option without a list is read by all five.
_MODEL = ("regimes", "snapshots", "bounds", "evolve")
_CHAIN = (*_MODEL, "toeplitz")
_GRID = ("regimes", "bounds", "toeplitz")


def _option(default, help=None, **meta):
    """A field declaring its option: help, flag, the commands reading it, argparse keywords."""
    return field(default=default, metadata={"help": help, **meta})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description shared by all subcommands.

    A config file may set any field; a flag is taken only by the subcommands
    that read its field (``commands`` in the field metadata, all when absent).
    """

    command: str = "regimes"
    model: str = _option("ising", help=f"one of {', '.join(MODELS)}", commands=_MODEL)
    n: int = _option(10, help="spins (ising), dimension (goe/gue), sites (toeplitz)", commands=_CHAIN)
    J: float = _option(1.0, help="Ising coupling J", flag="--j", commands=_MODEL)
    h_x: float = _option(1.0, help="transverse field", flag="--hx", commands=_MODEL)
    h_z: float = _option(0.5, help="parallel field", flag="--hz", commands=_MODEL)
    alpha: float = _option(0.0, help="homogeneous onsite energy", commands=_CHAIN)
    beta: float = _option(1.0, help="homogeneous hopping", commands=_CHAIN)
    krylov_n: int = _option(30, help="Krylov basis size", commands=_MODEL)
    n_prime: int = _option(0, help="second chain size (default n+1)", commands=("toeplitz",))
    t_min: float = _option(0.0, commands=_GRID)
    t_max: float = _option(60.0, commands=_GRID)
    points: int = _option(200, help="grid points", commands=_GRID)
    times: tuple[float, ...] = _option(
        (), help="comma-separated snapshot times", commands=("snapshots",)
    )
    seed: int = _option(1, commands=_MODEL)
    estimators: tuple[str, ...] = _option(
        ("extra_site_exact", "extra_site_averaged"), help="estimator kind (repeatable)",
        flag="--estimator", commands=("bounds", "evolve"), action="append", choices=ESTIMATOR_NAMES,
    )
    band: bool = _option(
        False, help="add min/max coefficient envelope", commands=("bounds",),
        action="store_const", const="true",
    )
    profile_m: int = _option(
        0, help="profile basis length (>= krylov size)", commands=("snapshots",)
    )
    tol: float = _option(1e-8, help="total infidelity budget", commands=("evolve",))
    t_final: float = _option(100.0, commands=("evolve",))
    out: str = _option("out.csv", help="output CSV path")
    state_out: str = _option("", help="final state path (KRYV1)", commands=("evolve",))

    def validate(self) -> ExperimentConfig:
        """Check every option and return the config that runs.

        For the commands reading each: ``krylov_n`` clamped to the model dimension, the
        ``profile_m``, ``n_prime`` and ``state_out`` defaults, and ``evolve``'s first estimator.
        """
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.points < 2:
            raise ValueError("points must be >= 2")
        if not np.isfinite([self.t_min, self.t_max, *self.times]).all():
            raise ValueError("t_min, t_max and times must be finite")
        for key in ("alpha", "beta"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key}={getattr(self, key)} must be finite")
        if not self.t_min < self.t_max:
            raise ValueError("t_min must be smaller than t_max")
        if not self.estimators:
            raise ValueError("estimators must name at least one estimator kind")
        for name in self.estimators:
            if name not in ESTIMATOR_NAMES:
                raise ValueError(
                    f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}"
                )
        resolved = {}
        if self.command in _MODEL:
            dim = IsingParams(self.n).dim if self.model == "ising" else self.n
            resolved["krylov_n"] = krylov_n = min(self.krylov_n, dim)
        if self.command == "snapshots":
            if not self.times:
                raise ValueError("snapshots needs --times (comma-separated list)")
            profile_m = self.profile_m or min(2 * krylov_n, dim)
            if not krylov_n <= profile_m <= dim:
                raise ValueError(f"profile_m {profile_m} must lie in [krylov_n {krylov_n}, dim {dim}]")
            resolved["profile_m"] = profile_m
        if self.command == "toeplitz":
            resolved["n_prime"] = self.n_prime or self.n + 1
        if self.command == "evolve":
            state_out = self.state_out or f"{self.out}.kryv"
            if os.path.realpath(state_out) == os.path.realpath(self.out):
                raise ValueError(f"state_out {state_out!r} names the same file as out")
            resolved.update(estimators=self.estimators[:1], state_out=state_out)
        return replace(self, **resolved)


# Looked up once: resolving the annotations per value costs more than the parse.
_KINDS = typing.get_type_hints(ExperimentConfig)
_OPTIONS = tuple(f for f in fields(ExperimentConfig) if f.name != "command")


def _reads(option, command: str) -> bool:
    """Whether ``command`` reads the option declared by field ``option``."""
    return command in option.metadata.get("commands", COMMANDS)


def _coerce(key: str, raw: str):
    """Parse a raw string into the type ``ExperimentConfig`` declares for ``key``.

    Tuples are comma-separated lists of their item type (string items are
    stripped); booleans accept 1/true/yes/on and 0/false/no/off,
    case-insensitively. Any other value raises a ``ValueError`` naming
    ``key`` and ``raw``.
    """
    kind = _KINDS[key]
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
    known = {f.name for f in _OPTIONS}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (tok.strip() for tok in line.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _coerce(key, raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return values


def _homogeneous(n: int, cfg: ExperimentConfig) -> SymmetricTridiagonal:
    return SymmetricTridiagonal(np.full(n, cfg.alpha), np.full(n - 1, cfg.beta))


def build_model(cfg: ExperimentConfig) -> tuple[LinearOperator, np.ndarray]:
    """Instantiate (H, initial state) for the configured model.

    Random-matrix models draw the state with an offset seed so it is
    independent of the matrix entries. The toeplitz model starts at chain
    site 1, where the recurrence reproduces the homogeneous chain exactly.
    A dense model (goe, gue, toeplitz) above ``MAX_DENSE_DIM`` is refused
    before its matrix is drawn or filled.
    """
    if cfg.model == "ising":
        params = IsingParams(cfg.n, J=cfg.J, h_x=cfg.h_x, h_z=cfg.h_z)
        return ising_operator(params), random_state(params.dim, cfg.seed)
    if cfg.n > MAX_DENSE_DIM:
        raise ValueError(f"{cfg.model} dimension {cfg.n} exceeds cap {MAX_DENSE_DIM}")
    if cfg.model == "goe":
        return goe_sample(cfg.n, cfg.seed), random_state(cfg.n, cfg.seed + STATE_SEED_OFFSET)
    if cfg.model == "gue":
        return gue_sample(cfg.n, cfg.seed), random_state(cfg.n, cfg.seed + STATE_SEED_OFFSET)
    if cfg.model == "toeplitz":
        return DenseOperator(_homogeneous(cfg.n, cfg).to_dense()), basis_state(cfg.n)
    raise ValueError(f"unknown model {cfg.model!r}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{value:.14e}"
    return str(value)


def _echo(value) -> str:
    """An option value as ``_coerce`` reads it: a tuple comma-separated."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _write_csv(cfg: ExperimentConfig, header, rows, *results: str) -> None:
    """Write ``cfg.out``: ``#`` lines, the header, then the rows.

    The ``#`` lines are ``command=``, every option the command reads except
    ``out`` in field order (``_echo``), then the command's ``key=value`` results.
    """
    keys = [f.name for f in _OPTIONS if f.name != "out" and _reads(f, cfg.command)]
    lines = [f"command={cfg.command}", *(f"{key}={_echo(getattr(cfg, key))}" for key in keys), *results]
    with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
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
    when undefined, and both are when no error exceeds the plateau level.
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
    if len(ts) > 1 and above.any():
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
    hamiltonian, psi = build_model(cfg)
    basis = lanczos_iterate(hamiltonian, psi, cfg.krylov_n)
    ts = _grid(cfg)
    errors = oracle_infidelities(basis, hamiltonian, ts)
    echoes = 1.0 - errors
    t_exp, t_col = measure_regime_times(ts, errors, echoes)
    rows = [(float(t), float(e), float(r)) for t, e, r in zip(ts, echoes, errors)]
    _write_csv(cfg, ["t", "echo", "error"], rows, f"t_exp={_fmt(t_exp)}", f"t_col={_fmt(t_col)}")


def cmd_snapshots(cfg: ExperimentConfig) -> None:
    """Exact vs Krylov wave-packet profiles on the chain at requested times."""
    hamiltonian, psi = build_model(cfg)
    basis = lanczos_iterate(hamiltonian, psi, cfg.profile_m)
    reduced = basis.tridiag.prefix(min(cfg.krylov_n, basis.size))
    times = np.asarray(cfg.times, dtype=float)
    pop_krylov = np.zeros((times.size, basis.size))
    pop_krylov[:, : reduced.n] = np.abs(_end_states(reduced.eigen(), times)) ** 2
    exact = _exact_propagator(basis, hamiltonian)
    pop_exact = _over_times(lambda block: project_profile(basis, exact(block)), times, hamiltonian.dim)
    rows = zip(
        np.repeat(times, basis.size),
        np.tile(np.arange(basis.size), times.size),
        pop_exact.ravel(),
        pop_krylov.ravel(),
    )
    _write_csv(cfg, ["t", "site", "pop_exact", "pop_krylov"], rows)


def cmd_bounds(cfg: ExperimentConfig) -> None:
    """Cheap estimators against the oracle error, with per-time ratios."""
    hamiltonian, psi = build_model(cfg)
    basis = lanczos_iterate(hamiltonian, psi, cfg.krylov_n)
    estimator_fns = [bind_estimator(name, basis, hamiltonian) for name in cfg.estimators]
    ts = _grid(cfg)
    header = ["t", "oracle"]
    header += list(cfg.estimators)
    header += [f"ratio_{name}" for name in cfg.estimators]
    if cfg.band:
        header += ["band_low", "band_high"]
    # The estimators and the band run first: one that refuses the basis
    # does so before the oracle's applies.
    estimates = [estimate(ts) for estimate in estimator_fns]
    band = extra_site_band(basis, ts) if cfg.band else []
    oracles = oracle_infidelities(basis, hamiltonian, ts)
    # A ratio over an oracle at its floor is roundoff, not a measurement: its cell is left empty.
    undefined = oracles <= ORACLE_FLOOR
    ratios = [np.where(undefined, None, est / np.where(undefined, 1.0, oracles)) for est in estimates]
    columns = [ts, oracles, *estimates, *ratios, *band]
    _write_csv(cfg, header, zip(*columns), f"oracle_floor={_fmt(ORACLE_FLOOR)}")


def cmd_toeplitz(cfg: ExperimentConfig) -> None:
    """Closed-form vs numerically propagated homogeneous-chain echo."""
    ts = _grid(cfg)
    analytic = np.abs(toeplitz_echo(cfg.n, cfg.n_prime, cfg.alpha, cfg.beta, ts)) ** 2
    numeric = np.abs(echo_general(_homogeneous(cfg.n, cfg), _homogeneous(cfg.n_prime, cfg), ts)) ** 2
    rows = zip(ts, analytic, numeric, np.abs(analytic - numeric))
    _write_csv(cfg, ["t", "echo2_analytic", "echo2_numeric", "abs_diff"], rows)


def cmd_evolve(cfg: ExperimentConfig) -> None:
    """Adaptive evolution: step log CSV plus the final state as a KRYV1 file."""
    hamiltonian, psi = build_model(cfg)
    report = evolve_adaptive(hamiltonian, psi, cfg.t_final, cfg.tol, cfg.krylov_n, kind=cfg.estimators[0])
    write_state(cfg.state_out, report.final_state)
    results = [
        f"total_estimated_error={_fmt(report.total_estimated_error)}",
        f"infidelity_bound={_fmt(report.infidelity_bound)}",
    ]
    # The dense oracle is solved only once the evolution has succeeded, and
    # only within MAX_DENSE_DIM; above it the line is left out, not refused.
    if hamiltonian.dim <= MAX_DENSE_DIM:
        exact = exact_evolve_dense(hamiltonian, psi, cfg.t_final)
        results.append(f"true_infidelity={_fmt(true_infidelity(report.final_state, exact))}")
    rows = [(i, *astuple(step)) for i, step in enumerate(report.steps)]
    _write_csv(cfg, ["step", *(f.name for f in fields(StepRecord))], rows, *results)


COMMANDS = {
    "regimes": cmd_regimes,
    "snapshots": cmd_snapshots,
    "bounds": cmd_bounds,
    "toeplitz": cmd_toeplitz,
    "evolve": cmd_evolve,
}


# Built once: each build leaves ~0.1 MB of argparse reference cycles for the collector.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krylov-echo",
        description="Krylov-subspace evolution with echo-based error certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sub_parser = sub.add_parser(name, help=command.__doc__)
        sub_parser.add_argument("--config", help="flat key=value config file")
        for f in _OPTIONS:
            if _reads(f, name):
                meta = {key: value for key, value in f.metadata.items() if key != "commands"}
                flag = meta.pop("flag", "--" + f.name.replace("_", "-"))
                sub_parser.add_argument(flag, dest=f.name, **meta)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file and flags (in that order), each parsed by ``_coerce``, and validate."""
    cfg = ExperimentConfig(command=args.command)
    if args.config:
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for f in _OPTIONS:
        raw = getattr(args, f.name, None)
        if raw is not None:
            overrides[f.name] = _coerce(f.name, raw if isinstance(raw, str) else ",".join(raw))
    return replace(cfg, **overrides).validate()


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
