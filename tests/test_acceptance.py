"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (visible with ``pytest -s``)
and asserts the same condition, so the suite doubles as a checklist.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from krylov_echo.estimators import (
    echo_general,
    estimate_extra_site_averaged,
    estimate_extra_site_exact,
)
from krylov_echo.lanczos import extend_one, lanczos_iterate
from krylov_echo.linalg import exact_evolve_dense
from krylov_echo.models import IsingParams, goe_sample, ising_operator, random_state
from krylov_echo.propagator import krylov_evolve, true_infidelity
from krylov_echo.stepper import evolve_adaptive
from krylov_echo.toeplitz import rescaling_check, toeplitz_echo
from krylov_echo.linalg import SymmetricTridiagonal

from krylov_echo.cli import measure_regime_times

WINDOW_LOW, WINDOW_HIGH = 1e-12, 1e-3


def report(number: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name} ({detail})")
    return ok


@pytest.fixture(scope="module")
def ising10_sweeps():
    """Oracle error sweeps for the n=10 chain, shared by criteria 3, 4, 6."""
    ham = ising_operator(IsingParams(10))
    ts = np.linspace(0.0, 6.0, 481)
    runs = {}
    for seed in (1, 2, 3, 4, 5):
        psi = random_state(ham.dim, seed)
        basis = lanczos_iterate(ham, psi, 30)
        extended = extend_one(basis, ham)
        errors = np.array(
            [
                true_infidelity(krylov_evolve(basis, t), exact_evolve_dense(ham, psi, t))
                for t in ts
            ]
        )
        runs[seed] = SimpleNamespace(basis=basis, extended=extended, errors=errors)
    return ham, ts, runs


def test_criterion_1_full_subspace_exactness():
    start = time.perf_counter()
    ham = ising_operator(IsingParams(8))
    psi = random_state(ham.dim, 1)
    basis = lanczos_iterate(ham, psi, 256)
    worst = max(
        true_infidelity(krylov_evolve(basis, t), exact_evolve_dense(ham, psi, t))
        for t in (1.0, 5.0, 20.0)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report(
        1,
        "full-subspace exactness",
        ok,
        f"worst infidelity {worst:.2e} <= 1e-10, runtime {elapsed:.1f}s < 10s",
    )


def test_criterion_2_echo_identity():
    start = time.perf_counter()
    ham = ising_operator(IsingParams(8))
    psi = random_state(ham.dim, 1)
    basis_n = lanczos_iterate(ham, psi, 20)
    basis_full = lanczos_iterate(ham, psi, 256)
    worst = 0.0
    for t in np.linspace(0.0, 60.0, 50):
        exact = exact_evolve_dense(ham, psi, t)
        fidelity = 1.0 - true_infidelity(krylov_evolve(basis_n, t), exact)
        echo = abs(echo_general(basis_n.tridiag, basis_full.tridiag, t)) ** 2
        worst = max(worst, abs(fidelity - echo))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    assert report(
        2,
        "echo identity",
        ok,
        f"max |fidelity - echo| {worst:.2e} <= 1e-8, runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_3_extra_site_tracking(ising10_sweeps):
    start = time.perf_counter()
    ham, ts, runs = ising10_sweeps
    worst_fraction = 1.0
    for seed, run in runs.items():
        window = (run.errors >= WINDOW_LOW) & (run.errors <= WINDOW_HIGH)
        deviations = []
        for t, eps in zip(ts[window], run.errors[window]):
            est = estimate_extra_site_exact(run.extended, t).value
            deviations.append(abs(np.log10(max(est, 1e-300)) - np.log10(eps)))
        fraction = float(np.mean(np.asarray(deviations) <= 1.0))
        worst_fraction = min(worst_fraction, fraction)
    elapsed = time.perf_counter() - start
    ok = worst_fraction >= 0.95 and elapsed < 120.0
    assert report(
        3,
        "extra-site estimator tracks oracle",
        ok,
        f"worst seed fraction within 1 decade {worst_fraction:.3f} >= 0.95, "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_4_averaged_bound_constancy(ising10_sweeps):
    start = time.perf_counter()
    ham, ts, runs = ising10_sweeps
    worst_std = 0.0
    for seed, run in runs.items():
        window = (run.errors >= WINDOW_LOW) & (run.errors <= WINDOW_HIGH)
        log_ratios = [
            np.log10(estimate_extra_site_averaged(run.basis, t).value / eps)
            for t, eps in zip(ts[window], run.errors[window])
        ]
        worst_std = max(worst_std, float(np.std(log_ratios)))
    elapsed = time.perf_counter() - start
    ok = worst_std <= 1.0
    assert report(
        4,
        "averaged-bound overestimation constancy",
        ok,
        f"worst per-seed stddev of log10 ratio {worst_std:.3f} <= 1.0, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_5_toeplitz_closed_form():
    start = time.perf_counter()
    tri_a = SymmetricTridiagonal(np.zeros(30), np.ones(29))
    tri_b = SymmetricTridiagonal(np.zeros(31), np.ones(30))
    worst = 0.0
    for t in np.linspace(0.0, 100.0, 200):
        analytic = abs(toeplitz_echo(30, 31, 0.0, 1.0, t))
        numeric = abs(echo_general(tri_a, tri_b, t))
        worst = max(worst, abs(analytic - numeric))
    rng = np.random.default_rng(5)
    worst_law = 0.0
    for _ in range(100):
        alpha = rng.uniform(-5.0, 5.0)
        beta = rng.uniform(0.05, 4.0)
        t = rng.uniform(0.0, 40.0)
        direct, rescaled = rescaling_check(30, 31, alpha, beta, t)
        worst_law = max(worst_law, abs(direct - rescaled))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and worst_law <= 1e-10 and elapsed < 30.0
    assert report(
        5,
        "analytic homogeneous echo",
        ok,
        f"max |analytic - numeric| {worst:.2e} <= 1e-8, "
        f"max rescaling defect {worst_law:.2e} <= 1e-10, runtime {elapsed:.1f}s < 30s",
    )


def test_criterion_6_regime_structure(ising10_sweeps):
    start = time.perf_counter()
    ham, ts, runs = ising10_sweeps
    errors = runs[1].errors
    echoes = 1.0 - errors
    t_exp, t_col = measure_regime_times(ts, errors, echoes)
    ok = t_exp < t_col
    # Plateau: at the round-off floor before the sustained crossing.
    plateau = errors[ts < t_exp]
    ok &= plateau.max() <= 1e-10
    # Growth: the error climbs at least six decades above the plateau level
    # before the collapse, never dipping a decade below its running maximum.
    growth = errors[(ts >= t_exp) & (ts <= t_col)]
    ok &= np.log10(growth.max() / 1e-10) >= 6.0
    running = np.maximum.accumulate(growth)
    ok &= bool((growth >= running / 10.0).all())
    # Echo: flat at unity until the collapse onset, then a fast drop.
    ok &= bool((echoes[ts < t_col] >= 0.99).all())
    within = echoes[(ts >= t_col) & (ts <= 1.2 * t_col)]
    ok &= bool((within < 0.9).any())
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    assert report(
        6,
        "regime structure",
        ok,
        f"t_exp {t_exp:.3f} < t_col {t_col:.3f}, plateau max {plateau.max():.1e}, "
        f"growth {np.log10(growth.max() / 1e-10):.1f} decades, runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_7_adaptive_stepper_guarantee():
    start = time.perf_counter()
    ham = ising_operator(IsingParams(8))
    tol, t_final = 1e-8, 100.0
    passes = 0
    books_exact = True
    bounded = True
    worst = 0.0
    for seed in range(1, 11):
        psi = random_state(ham.dim, seed)
        report_ = evolve_adaptive(ham, psi, t_final, tol, 20)
        books_exact &= report_.total_estimated_error == sum(
            s.estimated_error for s in report_.steps
        )
        infidelity = true_infidelity(
            report_.final_state, exact_evolve_dense(ham, psi, t_final)
        )
        worst = max(worst, infidelity)
        passes += infidelity <= 10 * tol
        bounded &= infidelity <= report_.infidelity_bound
    elapsed = time.perf_counter() - start
    ok = passes >= 9 and books_exact and bounded and elapsed < 300.0
    assert report(
        7,
        "adaptive stepper guarantee",
        ok,
        f"{passes}/10 runs within 10x tol (worst {worst:.2e}), exact bookkeeping "
        f"{books_exact}, within infidelity_bound {bounded}, runtime {elapsed:.1f}s < 300s",
    )


def test_criterion_8_lanczos_invariant_suite():
    start = time.perf_counter()
    ok = True
    details = []
    for label, ham, size in (
        ("ising n=10", ising_operator(IsingParams(10)), 60),
        ("goe d=256", goe_sample(256, 1), 40),
    ):
        psi = random_state(ham.dim, 2)
        basis = lanczos_iterate(ham, psi, size)
        gram = basis.vectors.conj() @ basis.vectors.T
        ortho = np.abs(gram - np.eye(basis.size)).max()
        applied = np.array([ham.apply(v) for v in basis.vectors])
        reduced = basis.vectors.conj() @ applied.T
        scale = max(np.abs(basis.tridiag.diag).max(), basis.tridiag.offdiag.max())
        reduction = np.abs(reduced - basis.tridiag.to_dense()).max() / scale
        ok &= ortho <= 1e-10 and reduction <= 1e-10
        details.append(f"{label}: ortho {ortho:.1e}, reduction {reduction:.1e}")
    ham = goe_sample(256, 1)
    psi = random_state(256, 2)
    big = lanczos_iterate(ham, psi, 40)
    for n in (10, 20):
        small = lanczos_iterate(ham, psi, n)
        ok &= np.abs(small.tridiag.diag - big.tridiag.diag[:n]).max() <= 1e-10
        ok &= np.abs(small.tridiag.offdiag - big.tridiag.offdiag[: n - 1]).max() <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    assert report(
        8,
        "lanczos invariant suite",
        ok,
        "; ".join(details) + f"; prefix stable; runtime {elapsed:.1f}s < 60s",
    )
