"""Core kernel: tridiagonal spectra, propagators, the dense and Chebyshev oracles."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from conftest import eigh_evolution, infidelity_allowance, ising_dense_oracle
from krylov_echo import linalg
from krylov_echo.cli import ExperimentConfig, build_model
from krylov_echo.estimators import _exact_propagator, oracle_infidelities
from krylov_echo.lanczos import lanczos_iterate
from krylov_echo.linalg import (
    _CHEB_TAIL,
    DenseOperator,
    LinearOperator,
    SymmetricTridiagonal,
    _bessel_coefficients,
    _chebyshev_error,
    _chebyshev_terms,
    _ChebyshevPropagator,
    _end_states,
    basis_state,
    eig_sym_tridiagonal,
    exact_evolve_dense,
)
from krylov_echo.models import IsingParams, goe_sample, gue_sample, ising_operator, random_state
from krylov_echo.propagator import krylov_evolve, true_infidelity

UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def random_tridiagonal(n, rng):
    return SymmetricTridiagonal(rng.standard_normal(n), np.abs(rng.standard_normal(n - 1)) + 0.1)


class TestEigSymTridiagonal:
    def test_two_by_two(self):
        eig = eig_sym_tridiagonal(SymmetricTridiagonal([0.0, 0.0], [1.0]))
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_homogeneous_closed_form(self):
        # Constant diagonal alpha and hopping beta: E_k = alpha + 2 beta cos(k pi / (n+1)).
        alpha, beta, n = 0.7, 1.3, 5
        eig = eig_sym_tridiagonal(SymmetricTridiagonal(np.full(n, alpha), np.full(n - 1, beta)))
        expected = np.sort(alpha + 2 * beta * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        assert np.allclose(eig.eigenvalues, expected, atol=1e-12)

    def test_against_dense_eigensolver(self, rng):
        tri = random_tridiagonal(50, rng)
        eig = eig_sym_tridiagonal(tri)
        dense_evals = np.linalg.eigvalsh(tri.to_dense())
        assert np.allclose(eig.eigenvalues, dense_evals, atol=1e-10)

    def test_eigenvector_invariants(self, rng):
        tri = random_tridiagonal(60, rng)
        eig = eig_sym_tridiagonal(tri)
        q = eig.eigenvectors
        assert np.abs(q.T @ q - np.eye(60)).max() <= 1e-12
        residual = tri.to_dense() @ q - q * eig.eigenvalues
        assert np.abs(residual).max() <= 1e-10 * np.abs(eig.eigenvalues).max()

    def test_spectral_reconstruction(self, rng):
        tri = random_tridiagonal(200, rng)
        eig = eig_sym_tridiagonal(tri)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        assert np.abs(rebuilt - tri.to_dense()).max() <= 1e-10

    def test_size_one(self):
        eig = eig_sym_tridiagonal(SymmetricTridiagonal([3.5], []))
        assert eig.eigenvalues[0] == 3.5
        assert eig.eigenvectors[0, 0] == 1.0

    def test_deterministic(self, rng):
        tri = random_tridiagonal(20, rng)
        a = eig_sym_tridiagonal(tri)
        b = eig_sym_tridiagonal(SymmetricTridiagonal(tri.diag.copy(), tri.offdiag.copy()))
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestExpiTridiagonal:
    """``exp(-i T t)|1>`` on a tridiagonal chain: the end states every estimator uses."""

    def test_identity_at_zero(self, rng):
        tri = random_tridiagonal(7, rng)
        assert np.array_equal(_end_states(tri.eigen(), 0.0)[0], basis_state(7))

    def test_single_bond_rabi(self):
        ts = np.array([0.3, 1.7, 4.0])
        out = _end_states(SymmetricTridiagonal([0.0, 0.0], [1.0]).eigen(), ts)
        assert np.allclose(out, np.stack([np.cos(ts), -1j * np.sin(ts)], axis=1), atol=1e-14)

    def test_against_dense_expm(self, rng):
        # Scaling-and-squaring oracle on the dense embedding.
        tri = random_tridiagonal(8, rng)
        t = 3.7
        expected = expm(-1j * t * tri.to_dense())[:, 0]
        assert np.abs(_end_states(tri.eigen(), t)[0] - expected).max() <= 1e-10

    def test_norm_preserved(self, rng):
        out = _end_states(random_tridiagonal(25, rng).eigen(), [0.5, 12.0, 250.0])
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-12

    def test_time_composition(self, rng):
        tri = random_tridiagonal(12, rng)
        t1, t2 = 1.3, 2.9
        once = _end_states(tri.eigen(), t1 + t2)[0]
        twice = exact_evolve_dense(DenseOperator(tri.to_dense()), _end_states(tri.eigen(), t1)[0], t2)
        assert np.abs(once - twice).max() <= 1e-10


class TestExactEvolveDense:
    def test_identity_at_zero(self):
        op = DenseOperator(np.diag([1.0, 2.0, 3.0]))
        psi = random_state(3, 1)
        assert np.allclose(exact_evolve_dense(op, psi, 0.0), psi, atol=1e-15)

    def test_two_level_analytic(self):
        op = DenseOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for t in (0.4, 2.0):
            out = exact_evolve_dense(op, basis_state(2), t)
            assert np.allclose(out, [np.cos(t), -1j * np.sin(t)], atol=1e-13)

    def test_unitary(self, rng):
        g = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        op = DenseOperator((g + g.conj().T) / 2)
        psi = random_state(40, 2)
        out = exact_evolve_dense(op, psi, 17.0)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-11

    def test_cap_refusal(self, monkeypatch):
        # The one size rule, refused before the eigensolve.
        monkeypatch.setattr(linalg, "MAX_DENSE_DIM", 4)
        op = DenseOperator(np.eye(8))
        with pytest.raises(ValueError, match="exact oracle refused: dimension 8 exceeds cap 4"):
            exact_evolve_dense(op, basis_state(8), 1.0)
        assert op._dense_eigh is None
        assert exact_evolve_dense(DenseOperator(np.eye(4)), basis_state(4), 1.0).shape == (4,)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, t):
        op = DenseOperator(np.eye(4))
        with pytest.raises(ValueError, match="finite"):
            exact_evolve_dense(op, basis_state(4), t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_state_rejected_before_the_solve(self, bad):
        ham = goe_sample(8, 1)
        psi = random_state(8, 2)
        psi[3] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            exact_evolve_dense(ham, psi, [1.0])
        with pytest.raises(ValueError, match="NaN or inf"):
            exact_evolve_dense(ham, np.full(8, np.nan + 0j), [1.0])
        assert ham._dense_eigh is None


MODELS = {
    "ising": lambda: ising_operator(IsingParams(8)),
    "goe": lambda: goe_sample(256, 5),
    "gue": lambda: gue_sample(256, 6),
}
# Their dense matrices, built on the test side.
DENSE = {
    "ising": lambda: ising_dense_oracle(IsingParams(8)),
    "goe": lambda: goe_sample(256, 5).matrix,
    "gue": lambda: gue_sample(256, 6).matrix,
}


class CountingOperator(DenseOperator):
    """A dense operator that counts its applies."""

    applies = 0

    def apply(self, vec, out=None):
        self.applies += 1
        return super().apply(vec, out)


class TestChebyshevPropagator:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_within_stated_bound_of_eigh_reference(self, name):
        ham = MODELS[name]()
        basis = lanczos_iterate(ham, random_state(ham.dim, 7), 30)
        psi = basis.vectors[0]
        prop = _exact_propagator(basis, ham)
        radius = prop.radius
        # Scaled times r t up to 700, about 1000 terms, in one block.
        ts = np.array([0.05, 0.5, 5.0, 50.0, 200.0, 700.0]) / radius
        states = prop(ts)
        assert prop.radius == radius
        assert _chebyshev_terms(700.0) > 900
        reference = eigh_evolution(DENSE[name]())
        for t, state in zip(ts, states):
            bound = _chebyshev_error((abs(prop.centre) + prop.radius) * t)
            assert np.linalg.norm(state - reference(psi, t)) <= bound

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_restarted_blocks_within_summed_bound(self, name):
        # Six blocks to t = 600: each after the first starts from the last
        # state of the one before, so its rows carry that state's stated
        # error plus their own span's.
        ham = MODELS[name]()
        basis = lanczos_iterate(ham, random_state(ham.dim, 7), 30)
        psi = basis.vectors[0]
        prop = _exact_propagator(basis, ham)
        reference = eigh_evolution(DENSE[name]())
        for block in np.array_split(np.linspace(0.0, 600.0, 301), 6):
            states = prop(block)
            assert prop.errors.shape == block.shape
            for t, state, bound in zip(block, states, prop.errors):
                assert np.linalg.norm(state - reference(psi, t)) <= bound
        # Five restarts: five more start-up terms than one run from psi.
        single = _chebyshev_error((abs(prop.centre) + prop.radius) * 600.0)
        assert prop.errors[-1] == pytest.approx(single + 5 * _chebyshev_error(0.0))

    def test_restart_only_past_the_phase_and_when_shorter(self):
        ham = CountingOperator(goe_sample(64, 3).matrix)
        basis = lanczos_iterate(ham, random_state(64, 4), 20)
        prop = _exact_propagator(basis, ham)
        rate = abs(prop.centre) + prop.radius
        # Below the restart phase a block runs from psi, though its anchor
        # is nearer; past it, it runs from the anchor only if that is nearer.
        near = linalg._CHEB_RESTART_PHASE / rate
        prop(np.array([0.5 * near]))
        for block, restarted in [
            ([0.6 * near, 0.9 * near], False),
            ([1.0 * near, 1.1 * near], True),
            ([3.0 * near], True),
            ([1.0 * near], False),
        ]:
            block = np.array(block)
            before = prop._anchor[2]
            prop(block)
            single = _chebyshev_error(rate * np.abs(block))
            if restarted:
                assert (prop.errors > single).all() and prop.errors[0] > before
            else:
                assert np.array_equal(prop.errors, single)

    def test_rows_at_zero_are_the_start_state_bit_for_bit(self):
        ham = MODELS["gue"]()
        basis = lanczos_iterate(ham, random_state(ham.dim, 7), 20)
        states = _exact_propagator(basis, ham)(np.array([0.0, 0.7, -0.0, 0.0]))
        for row in (0, 2, 3):
            assert np.array_equal(states[row], basis.vectors[0])
        assert not np.array_equal(states[1], basis.vectors[0])

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_narrowed_interval_is_widened(self, name):
        ham = MODELS[name]()
        basis = lanczos_iterate(ham, random_state(ham.dim, 7), 30)
        psi = basis.vectors[0]
        ritz = basis.tridiag.eigen().eigenvalues
        centre, half = 0.5 * (ritz[0] + ritz[-1]), 0.5 * (ritz[-1] - ritz[0])
        # The Ritz interval shrunk by 20 % about its centre.
        prop = _ChebyshevPropagator(ham, psi, centre - 0.8 * half, centre + 0.8 * half)
        narrow = prop.radius
        ts = np.array([0.1, 1.0, 10.0])
        states = prop(ts)
        radius = prop.radius
        assert radius > narrow
        reference = eigh_evolution(DENSE[name]())
        for t, state in zip(ts, states):
            bound = _chebyshev_error((abs(prop.centre) + prop.radius) * t)
            assert np.linalg.norm(state - reference(psi, t)) <= bound
        # The widened radius is kept: a later block, below the restart phase
        # and so run from psi, runs at once.
        assert (abs(prop.centre) + prop.radius) * ts[0] < linalg._CHEB_RESTART_PHASE
        again = prop(ts[:1])[0]
        assert prop.radius == radius and np.linalg.norm(again - states[0]) <= 2 * prop.errors[0]

    def test_eigenvector_start_evolves_exactly(self):
        op = CountingOperator(np.diag([1.0, 2.0, 3.0]))
        psi = basis_state(3)
        basis = lanczos_iterate(op, psi, 2)
        assert basis.breakdown and basis.size == 1
        applies = op.applies
        ts = np.array([0.0, 0.5, 7.0, 1e3])
        states = _exact_propagator(basis, op)(ts)
        assert np.array_equal(states, np.exp(-1j * ts)[:, None] * psi)
        assert np.array_equal(states, krylov_evolve(basis, ts))
        # Only the residual form's rounding of |phase|^2 is left.
        assert oracle_infidelities(basis, op, ts).max() <= 1e-31
        assert op.applies == applies

    def test_one_vector_basis_without_breakdown_is_checked(self):
        # Width 0 but a nonzero residual: the interval is the Ritz value plus
        # or minus that coupling, and the moments check it.
        ham = MODELS["goe"]()
        basis = lanczos_iterate(ham, random_state(ham.dim, 7), 1)
        assert basis.size == 1 and not basis.breakdown
        prop = _exact_propagator(basis, ham)
        t = 0.3
        state = prop(t)[0]
        bound = _chebyshev_error((abs(prop.centre) + prop.radius) * t)
        assert np.linalg.norm(state - eigh_evolution(DENSE["goe"]())(basis.vectors[0], t)) <= bound

    @pytest.mark.parametrize("bad", [[0.0, np.nan], [np.inf], [1.0, -np.inf], [[1.0]]])
    def test_bad_times_raise_before_any_apply(self, bad):
        op = CountingOperator(goe_sample(16, 1).matrix)
        basis = lanczos_iterate(op, random_state(16, 2), 4)
        applies = op.applies
        prop = _exact_propagator(basis, op)
        for call in (prop, lambda t: oracle_infidelities(basis, op, t)):
            with pytest.raises(ValueError, match="finite|1-D"):
                call(bad)
        assert op.applies == applies

    @pytest.mark.parametrize("tau", [1e-3, 0.3, 2.0, 10.0, 50.0, 700.0, 2000.0])
    def test_terms_are_the_first_to_meet_the_tail_bound(self, tau):
        def tail_bound(k):
            # 4 (tau/2)^(k+1) / (k+1)!, valid once k + 2 >= tau.
            return 4 * math.exp((k + 1) * math.log(tau / 2) - math.lgamma(k + 2))

        terms = _chebyshev_terms(tau)
        assert terms + 2 >= tau and tail_bound(terms) <= _CHEB_TAIL
        assert terms == 0 or terms + 1 < tau or tail_bound(terms - 1) > _CHEB_TAIL
        discarded = 2 * np.abs(jv(np.arange(terms + 1, terms + 200), tau)).sum()
        assert discarded <= _CHEB_TAIL

    def test_coefficients_are_bessel_values(self):
        taus = np.array([0.0, 1e-3, 0.3, 7.0, -7.0, 120.0, 700.0])
        terms = _chebyshev_terms(700.0)
        coeffs = _bessel_coefficients(taus, terms)
        k = np.arange(terms + 1)
        for tau, row in zip(taus, coeffs):
            expected = np.where(k == 0, 1.0, 2.0) * jv(k, tau)
            assert np.abs(row - expected).max() <= 8 * UNIT_ROUNDOFF * (1 + abs(tau))
        # No terms past the first: J_0(0) = 1 exactly.
        assert np.array_equal(_bessel_coefficients(np.zeros(2), 0), np.ones((2, 1)))

    def test_coefficient_work_arrays_stay_within_a_block(self):
        # A block of 64 times at r t up to 2000: the FFT work arrays of all
        # rows at once would take about 50 MB.
        taus = np.linspace(0.0, 2000.0, 64)
        terms = _chebyshev_terms(2000.0)
        tracemalloc.start()
        try:
            coeffs = _bessel_coefficients(taus, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= coeffs.nbytes + 2 * linalg._ORACLE_BLOCK_BYTES


class TestDenseOracle:
    @pytest.mark.parametrize(
        "name, dtype", [("ising", np.float64), ("goe", np.float64), ("gue", np.complex128)]
    )
    def test_eigenvectors_real_for_real_operators(self, name, dtype):
        evals, evecs = MODELS[name]().dense_eigh()
        assert evals.dtype == np.float64
        assert evecs.dtype == dtype

    def test_real_matrix_stored_as_complex_gets_real_eigenvectors(self):
        op = DenseOperator(np.array([[1.0, 2.0], [2.0, -1.0]], dtype=np.complex128))
        assert op.matrix.dtype == np.float64
        assert op.dense_eigh()[1].dtype == np.float64

    def test_matrix_free_real_operator_builds_real_dense_form(self):
        assert ising_operator(IsingParams(4)).to_dense().dtype == np.float64

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_blocks_match_per_time_oracle(self, name, monkeypatch):
        ham = MODELS[name]()
        psi = random_state(ham.dim, 7)
        # t = 0 first, and more than two blocks of times at this dimension.
        ts = np.concatenate([[0.0], np.linspace(0.01, 30.0, 600)])
        states = exact_evolve_dense(ham, psi, ts)
        worst = max(
            np.abs(state - exact_evolve_dense(ham, psi, t)).max() for t, state in zip(ts, states)
        )
        assert states.shape == (ts.size, ham.dim)
        assert worst <= 1e-14
        assert np.abs(exact_evolve_dense(ham, psi, 0.0) - psi).max() <= 1e-14

        blocks, errors = [], []
        call = _ChebyshevPropagator.__call__

        def counting_kernel(self, t):
            blocks.append(np.asarray(t))
            states = call(self, t)
            errors.append(self.errors)
            return states

        basis = lanczos_iterate(ham, psi, 12)
        monkeypatch.setattr(_ChebyshevPropagator, "__call__", counting_kernel)
        batched = oracle_infidelities(basis, ham, ts)
        assert len(blocks) > 2
        assert np.array_equal(np.concatenate(blocks), ts)
        # Per time against the test-side eigh state, within twice the
        # kernel's stated bound for the row, restarted blocks included.
        reference = eigh_evolution(DENSE[name]())
        for t, value, error in zip(ts, batched, np.concatenate(errors)):
            per_time = true_infidelity(krylov_evolve(basis, t), reference(basis.vectors[0], t))
            assert abs(value - per_time) <= infidelity_allowance(per_time, 2 * error)
        assert batched[0] <= 1e-28

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_against_matrix_exponential(self, name):
        ham = MODELS[name]()
        psi = random_state(ham.dim, 8)
        ts = [0.3, 2.5]
        dense = DENSE[name]()
        for t, state in zip(ts, exact_evolve_dense(ham, psi, ts)):
            assert np.abs(state - expm(-1j * t * dense) @ psi).max() <= 1e-11

    def test_sweep_never_holds_a_times_by_dim_array(self):
        ham = ising_operator(IsingParams(10))
        psi = random_state(ham.dim, 1)
        basis = lanczos_iterate(ham, psi, 30)
        ts = np.linspace(0.0, 6.0, 481)
        tracemalloc.start()
        try:
            oracle_infidelities(basis, ham, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Not even half of one complex times-by-dim array.
        assert peak < ts.size * ham.dim * 16 / 2

    def test_long_sweep_stays_within_the_block_budget(self):
        # To t = 600 the last block of runs from psi took 13011 terms and a
        # 64 x 13012 coefficient matrix (7.96 MB); restarted blocks each span
        # an eighth of the grid (3.30 MB, as for t <= 6).
        ham = ising_operator(IsingParams(10))
        basis = lanczos_iterate(ham, random_state(ham.dim, 1), 30)
        ts = np.linspace(0.0, 600.0, 481)
        tracemalloc.start()
        try:
            oracle_infidelities(basis, ham, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ts.size * ham.dim * 16 / 2

    def test_restart_cuts_applies_and_moves_cells_within_the_bounds(self, monkeypatch):
        # The benchmark's regimes grid: 481 times to t = 6 in 8 blocks.
        ham = ising_operator(IsingParams(10))
        basis = lanczos_iterate(ham, random_state(ham.dim, 1), 30)
        ts = np.linspace(0.0, 6.0, 481)
        applies = []
        apply = ham.apply

        def counted(vec):
            applies.append(1)
            return apply(vec)

        monkeypatch.setattr(ham, "apply", counted)
        restarted = oracle_infidelities(basis, ham, ts)
        with_restart = len(applies)
        monkeypatch.setattr(_ChebyshevPropagator, "_start", lambda self, ts: (self.psi, ts, 0.0))
        applies.clear()
        fresh = oracle_infidelities(basis, ham, ts)
        # 315 against 841 measured.
        assert 2 * with_restart < len(applies)
        # Each state within its stated bound: at most 8 blocks' start-up
        # terms over one run's bound for the restarted, one run's for the other.
        exact = _exact_propagator(basis, ham)
        delta = 9 * _chebyshev_error((abs(exact.centre) + exact.radius) * ts)
        assert (np.abs(restarted - fresh) <= infidelity_allowance(fresh, delta)).all()

    def test_times_checked_before_any_work(self):
        ham = goe_sample(16, 1)
        psi = random_state(16, 2)
        basis = lanczos_iterate(ham, psi, 4)
        with pytest.raises(ValueError, match="finite"):
            oracle_infidelities(basis, ham, [0.0, 1.0, np.nan])
        with pytest.raises(ValueError, match="1-D"):
            oracle_infidelities(basis, ham, np.zeros((2, 2)))
        assert ham._dense_eigh is None

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_refused_before_any_apply(self, t):
        # The sweep oracle refuses no dimension; it checks the times before any apply.
        op = CountingOperator(goe_sample(16, 1).matrix)
        basis = lanczos_iterate(op, random_state(16, 2), 4)
        applies = op.applies
        with pytest.raises(ValueError, match="finite"):
            oracle_infidelities(basis, op, [0.5, t])
        assert op.applies == applies and op._dense_eigh is None


class MatrixFreeOperator(LinearOperator):
    """Defines ``apply`` alone, so the base ``to_dense`` builds the dense form from applies."""

    def __init__(self, matrix):
        super().__init__(matrix.shape[0])
        self.matrix = matrix

    def apply(self, vec, out=None):
        return np.matmul(self.matrix, vec, out=out)


class TestDenseEigh:
    @pytest.mark.parametrize(
        "sample, dtype", [(goe_sample, np.float64), (gue_sample, np.complex128)], ids=["goe", "gue"]
    )
    def test_base_dense_form_built_from_applies(self, sample, dtype):
        matrix = sample(24, 3).matrix
        op = MatrixFreeOperator(matrix)
        dense = op.to_dense()
        assert dense.dtype == dtype
        assert np.abs(dense - matrix).max() <= 1e-14
        evals, evecs = op.dense_eigh()
        ref_evals, ref_evecs = np.linalg.eigh(matrix)
        assert evecs.dtype == dtype
        assert np.abs(evals - ref_evals).max() <= 1e-12
        # Distinct eigenvalues: each eigenvector is the reference one up to a phase.
        assert np.abs(np.abs(np.vecdot(ref_evecs, evecs, axis=0)) - 1.0).max() <= 1e-12

    def test_solve_runs_once_on_the_calling_thread(self, monkeypatch):
        threads = []
        eigh = LinearOperator._eigh

        def recording(self):
            threads.append(threading.current_thread())
            return eigh(self)

        monkeypatch.setattr(LinearOperator, "_eigh", recording)
        op = goe_sample(32, 1)
        first = op.dense_eigh()
        assert op.dense_eigh() is first
        assert threads == [threading.main_thread()]

    def test_solve_error_raised_by_dense_eigh(self):
        class Failing(LinearOperator):
            def _eigh(self):
                raise np.linalg.LinAlgError("eigenvalues did not converge")

        op = Failing(4)
        for _ in range(2):
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                op.dense_eigh()
        assert op._dense_eigh is None


class TestOperators:
    def test_dense_operator_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dense_operator_shape_checks(self):
        with pytest.raises(ValueError, match="square"):
            DenseOperator(np.zeros((2, 3)))
        op = DenseOperator(np.eye(3))
        with pytest.raises(ValueError, match="does not match"):
            op.apply(np.zeros(2, dtype=complex))

    def test_dense_operator_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or inf"):
            DenseOperator(np.array([[0.0, np.nan], [np.nan, 1.0]]))

    def test_dense_operator_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty square"):
            DenseOperator(np.zeros((0, 0)))

    def test_real_apply_never_casts_the_matrix(self):
        # A complex product would cast the float64 matrix: 16.8 MB at D=1024.
        op = goe_sample(1024, 1)
        v = random_state(1024, 2)
        expected = op.matrix.astype(np.complex128) @ v
        tracemalloc.start()
        try:
            out = op.apply(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.abs(out - expected).max() <= 1e-13

    def test_to_dense_matches_apply(self, rng):
        g = rng.standard_normal((6, 6))
        op = DenseOperator((g + g.T) / 2)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.allclose(op.to_dense() @ v, op.apply(v), atol=1e-14)

    @pytest.mark.parametrize("model", ["goe", "toeplitz"])
    def test_real_apply_matches_the_full_product(self, model):
        op, _ = build_model(ExperimentConfig(command="bounds", model=model, n=1024, seed=1))
        assert op.matrix.dtype == np.float64
        v = random_state(1024, 2)
        expected = (op.matrix @ v.real) + 1j * (op.matrix @ v.imag)
        scale = np.abs(op.matrix).sum(axis=1).max()
        assert np.abs(op.apply(v) - expected).max() <= 64 * UNIT_ROUNDOFF * scale

    def test_real_apply_is_the_lower_triangle_operator(self, rng):
        # Hermitian only to about 1e-13: the upper triangle carries noise the
        # lower one does not, and the apply must read the lower one alone.
        dim = 64
        g = rng.standard_normal((dim, dim))
        sym = (g + g.T) / 2.0
        noise = np.triu(rng.uniform(0.5, 1.0, (dim, dim)), 1) * 1e-13 * np.abs(sym).max()
        matrix = sym + noise
        lower = np.tril(matrix) + np.tril(matrix, -1).T
        assert np.array_equal(lower, sym)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out = DenseOperator(matrix).apply(v)
        expected = lower @ v.real + 1j * (lower @ v.imag)
        error = np.abs(out - expected).max()
        assert error <= 1e-14
        assert np.abs((matrix @ v.real + 1j * (matrix @ v.imag)) - expected).max() > 100 * error

    @pytest.mark.parametrize("sample", [goe_sample, gue_sample])
    @pytest.mark.parametrize("dim", [100, 130])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("nan", "NaN or inf"),
            ("inf", "NaN or inf"),
            ("asymmetry", "not Hermitian"),
            ("asymmetry_then_nan", "NaN or inf"),
        ],
    )
    def test_check_reads_the_last_partial_panel(self, sample, dim, defect, message):
        # Each defect sits where only the last panel of rows reads it: rows and
        # columns dim-2 and dim-1 (128 and 129 at dim=130, past one full panel).
        assert dim % linalg._PANEL != 0
        matrix = sample(dim, 1).matrix.copy()
        if defect == "nan":
            matrix[-1, -1] = np.nan
        elif defect == "inf":
            matrix[-1, -2] = matrix[-2, -1] = np.inf
        else:
            matrix[-1, -2] += 1e-9 * np.abs(matrix).max()
        if defect == "asymmetry_then_nan":
            # An asymmetry in the first panel must not hide a NaN in the last.
            matrix[0, 1] += 1.0
            matrix[-1, -1] = np.nan
        with pytest.raises(ValueError, match=message):
            DenseOperator(matrix)


class TestSymmetricTridiagonal:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="offdiag"):
            SymmetricTridiagonal([1.0, 2.0], [1.0, 1.0])

    def test_prefix_and_append(self):
        tri = SymmetricTridiagonal([1.0, 2.0, 3.0], [0.5, 0.6])
        pre = tri.prefix(2)
        assert np.array_equal(pre.diag, [1.0, 2.0])
        assert np.array_equal(pre.offdiag, [0.5])
        ext = pre.append_site(3.0, 0.6)
        assert np.array_equal(ext.diag, tri.diag)
        assert np.array_equal(ext.offdiag, tri.offdiag)
        with pytest.raises(ValueError, match="prefix"):
            tri.prefix(4)

    def test_to_dense_layout(self):
        tri = SymmetricTridiagonal([1.0, 2.0], [0.25])
        assert np.array_equal(tri.to_dense(), [[1.0, 0.25], [0.25, 2.0]])

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("value", [-0.0, 0.0, -1.5])
    def test_to_dense_is_the_three_band_sum_bit_for_bit(self, n, value):
        # The sum of three diagonal matrices turns each -0.0 band entry into +0.0.
        tri = SymmetricTridiagonal(np.full(n, value), np.full(n - 1, value))
        summed = np.diag(tri.diag) + np.diag(tri.offdiag, 1) + np.diag(tri.offdiag, -1)
        assert tri.to_dense().tobytes() == summed.tobytes()

    def test_to_dense_peak_is_one_matrix(self):
        n = 512
        tri = SymmetricTridiagonal(np.full(n, 0.3), np.full(n - 1, 2.0))
        tracemalloc.start()
        try:
            tri.to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * n * 8


class TestStateHelpers:
    def test_basis_state_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            basis_state(3, 3)
        assert np.array_equal(basis_state(3, 1), [0, 1, 0])
