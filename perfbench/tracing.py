"""Per-layer tracing from outside the program: spans around the calls into each krylov_echo layer.

While a :class:`Tracer` is active, each traced public function is replaced by
a wrapper at every place a loaded ``krylov_echo`` module refers to it (the
stepper and the CLI import names such as ``lanczos_iterate`` into their own
namespaces), and each traced operator method is replaced on its class, so
the operators the benchmark builds and those the CLI builds are both seen.
A name that no longer exists raises ``AttributeError`` or ``KeyError``
instead of reading as zero calls. Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One traced call: its layer, callee, parent span index (-1 at top) and wall interval."""

    layer: str
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    amount: int = 0


def _basis_size(args, result) -> int:
    return result.size


def _one(args, result) -> int:
    return 1


def _apply_bytes(args, result) -> int:
    # Least traffic an apply can have: read the input vector, write the
    # output vector, and read the stored matrix of a dense operator.
    op = args[0]
    matrix = getattr(op, "matrix", None)
    return 32 * op.dim + (matrix.nbytes if matrix is not None else 0)


def _steps(args, result) -> int:
    return len(result.steps)


def _out_file_bytes(args, result) -> int:
    argv = args[0]
    return os.path.getsize(argv[argv.index("--out") + 1])


def _state_file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


# (module, public function, layer, amount recorded per call). Estimator
# evaluations carry amount 1; the helpers they call carry none.
FUNCTIONS = (
    ("krylov_echo.lanczos", "lanczos_iterate", "lanczos.iterate", _basis_size),
    ("krylov_echo.lanczos", "extend_one", "lanczos.extend", _one),
    ("krylov_echo.linalg", "eig_sym_tridiagonal", "linalg.eigensolve", None),
    ("krylov_echo.linalg", "exact_evolve_dense", "linalg.oracle", None),
    ("krylov_echo.estimators", "estimate_extra_site_exact", "estimators", _one),
    ("krylov_echo.estimators", "estimate_extra_site_averaged", "estimators", _one),
    ("krylov_echo.estimators", "estimate_toeplitz_analytic", "estimators", _one),
    ("krylov_echo.estimators", "estimate_park_light", "estimators", _one),
    ("krylov_echo.estimators", "estimate_oracle", "estimators", _one),
    ("krylov_echo.estimators", "extra_site_band", "estimators", _one),
    ("krylov_echo.estimators", "echo_general", "estimators", None),
    ("krylov_echo.estimators", "averaged_coefficients", "estimators", None),
    ("krylov_echo.estimators", "bind_estimator", "estimators", None),
    ("krylov_echo.stepper", "evolve_adaptive", "stepper", _steps),
    ("krylov_echo.stepper", "max_step_for_tolerance", "stepper", None),
    ("krylov_echo.toeplitz", "toeplitz_echo", "toeplitz.echo", None),
    ("krylov_echo.propagator", "krylov_evolve", "propagator.evolve", None),
    ("krylov_echo.cli", "main", "cli", _out_file_bytes),
    ("krylov_echo.stateio", "write_state", "stateio.write", _state_file_bytes),
)

# (module, class, method, layer, amount): wrapped on the class itself.
METHODS = (
    ("krylov_echo.models", "IsingOperator", "apply", "models.apply", _apply_bytes),
    ("krylov_echo.linalg", "DenseOperator", "apply", "models.apply", _apply_bytes),
    ("krylov_echo.linalg", "LinearOperator", "dense_eigh", "linalg.dense_eigh", None),
)


class Tracer:
    """Context manager that records a :class:`Span` for every traced call made inside it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, amount):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, fn.__qualname__, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if amount is not None:
                span.amount = amount(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            modules = [
                module
                for name, module in list(sys.modules.items())
                if name == "krylov_echo" or name.startswith("krylov_echo.")
            ]
            for module_name, attr, layer, amount in FUNCTIONS:
                original = getattr(importlib.import_module(module_name), attr)
                traced = self._wrap(original, layer, amount)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, traced)
            for module_name, cls_name, attr, layer, amount in METHODS:
                cls = getattr(importlib.import_module(module_name), cls_name)
                original = vars(cls)[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, layer, amount))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans: list[Span], pass_s: float) -> dict[str, float]:
    """Per-layer calls, seconds, self seconds and amounts of one traced pass.

    A span's self time is its duration minus the durations of its child
    spans (calls run one at a time, so children never overlap). Layers that
    some workload never calls report their busy time as a share of the pass
    (``pct``), so that an unused layer reads 0 % rather than a time.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    amount = defaultdict(int)
    child_s = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.end - span.start
    evals_in_stepper = 0
    for i, span in enumerate(spans):
        duration = span.end - span.start
        calls[span.layer] += 1
        total[span.layer] += duration
        self_s[span.layer] += duration - child_s[i]
        amount[span.layer] += span.amount
        if span.layer == "estimators" and span.amount:
            parent = span.parent
            while parent >= 0 and spans[parent].layer != "stepper":
                parent = spans[parent].parent
            evals_in_stepper += parent >= 0

    def pct(seconds: float) -> float:
        return 100.0 * seconds / pass_s

    apply_s = total["models.apply"]
    steps = amount["stepper"]
    return {
        "models.apply.calls": calls["models.apply"],
        "models.apply.s": apply_s,
        "models.apply.gbps_computed": amount["models.apply"] / apply_s / 1e9 if apply_s else 0.0,
        "lanczos.iterate.calls": calls["lanczos.iterate"],
        "lanczos.iterate.self_s": self_s["lanczos.iterate"],
        "lanczos.extend.calls": calls["lanczos.extend"],
        "lanczos.extend.self_s": self_s["lanczos.extend"],
        "lanczos.vectors": amount["lanczos.iterate"] + amount["lanczos.extend"],
        "linalg.eigensolve.calls": calls["linalg.eigensolve"],
        "linalg.eigensolve.s": total["linalg.eigensolve"],
        "linalg.oracle.calls": calls["linalg.oracle"],
        "linalg.oracle.pct": pct(total["linalg.oracle"]),
        "linalg.dense_eigh.pct": pct(total["linalg.dense_eigh"]),
        "estimators.evals": amount["estimators"],
        "estimators.self_s": self_s["estimators"],
        "stepper.steps": steps,
        "stepper.evals_per_step": evals_in_stepper / steps if steps else 0.0,
        "stepper.self_s": self_s["stepper"],
        "toeplitz.echo.calls": calls["toeplitz.echo"],
        "toeplitz.echo.pct": pct(total["toeplitz.echo"]),
        "propagator.evolve.calls": calls["propagator.evolve"],
        "propagator.evolve.s": total["propagator.evolve"],
        "cli.self_pct": pct(self_s["cli"]),
        "cli.csv_bytes": amount["cli"],
        "stateio.write.pct": pct(total["stateio.write"]),
        "stateio.bytes": amount["stateio.write"],
    }


def layer_calls(spans: list[Span]) -> dict[str, int]:
    """Number of calls recorded per layer."""
    calls = defaultdict(int)
    for span in spans:
        calls[span.layer] += 1
    return dict(calls)
