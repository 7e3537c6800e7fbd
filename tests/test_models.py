"""Model Hamiltonians: bitwise Ising, random-matrix ensembles, random states."""

import tracemalloc

import numpy as np
import pytest

from conftest import hermiticity_defect, ising_dense_oracle

from krylov_echo.linalg import LinearOperator, basis_state
from krylov_echo.models import (
    IsingOperator,
    IsingParams,
    goe_sample,
    gue_sample,
    ising_operator,
    random_state,
)


class TestIsingOperator:
    def test_classical_energies(self):
        # No fields: |00> has both spins up (zz energy -J), |01> one down (+J).
        ham = ising_operator(IsingParams(2, J=1.0, h_x=0.0, h_z=0.0))
        assert np.allclose(ham.apply(basis_state(4, 0)), -1.0 * basis_state(4, 0))
        assert np.allclose(ham.apply(basis_state(4, 1)), +1.0 * basis_state(4, 1))
        assert np.allclose(ham.apply(basis_state(4, 3)), -1.0 * basis_state(4, 3))

    def test_transverse_term_flips_bits(self):
        ham = ising_operator(IsingParams(2, J=0.0, h_x=0.7, h_z=0.0))
        out = ham.apply(basis_state(4, 0))
        expected = 0.7 * (basis_state(4, 1) + basis_state(4, 2))
        assert np.allclose(out, expected, atol=1e-15)

    def test_matches_kronecker_oracle(self, rng):
        params = IsingParams(4, J=0.8, h_x=1.1, h_z=0.4)
        ham = ising_operator(params)
        dense = ising_dense_oracle(params)
        assert np.abs(ham.to_dense() - dense).max() <= 1e-13

    def test_matrix_free_apply_matches_dense(self, rng):
        params = IsingParams(5, J=1.0, h_x=0.9, h_z=0.3)
        ham = ising_operator(params)
        dense = ising_dense_oracle(params)
        vec = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        assert np.abs(ham.apply(vec) - dense @ vec).max() <= 1e-13

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize(
        "fields",
        [(1.0, 1.0, 0.5), (1.0, 0.0, 0.5), (0.0, -0.7, 0.3), (0.8, 1.1, 0.0)],
        ids=["defaults", "h_x=0", "J=0", "h_z=0"],
    )
    def test_apply_matches_kronecker_oracle(self, rng, n, fields):
        # n = 2..9 covers every remainder of the three-site flip groups.
        params = IsingParams(n, *fields)
        vec = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
        expected = ising_dense_oracle(params) @ vec
        out = ising_operator(params).apply(vec)
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_apply_leaves_its_input_alone(self, rng):
        params = IsingParams(7)
        ham = ising_operator(params)
        real = rng.standard_normal(ham.dim)
        kept = real.copy()
        out = ham.apply(real)
        assert np.array_equal(real, kept)
        assert not np.shares_memory(out, real)
        assert np.abs(out - ising_dense_oracle(params) @ real).max() <= 1e-13 * np.abs(out).max()
        vec = real + 1j * rng.standard_normal(ham.dim)
        kept = vec.copy()
        out = ham.apply(vec)
        assert np.array_equal(vec, kept)
        assert not np.shares_memory(out, vec)

    def test_apply_peak_memory(self, rng):
        ham = ising_operator(IsingParams(12))
        vec = rng.standard_normal(ham.dim) + 1j * rng.standard_normal(ham.dim)
        ham.apply(vec)  # pay any lazy set-up outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ham.apply(vec)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # The output plus one work vector (2.02 measured); a copied flip per
        # site, with its scaled term, measured 3.01.
        assert peak <= 2.5 * ham.dim * 16

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize(
        "fields",
        [(1.0, 1.0, 0.5), (0.8, 1.1, 0.3), (1.0, 1.0, 0.0), (0.0, -0.7, 0.3)],
        ids=["defaults", "generic", "h_z=0", "J=0"],
    )
    def test_sector_eigensolve(self, n, fields):
        # Odd and even n: every count 2^ceil(n/2) of palindromes.
        ham = ising_operator(IsingParams(n, *fields))
        dense = ham.to_dense()
        idx = np.arange(ham.dim)
        rev = sum(((idx >> k) & 1) << (n - 1 - k) for k in range(n))
        assert np.array_equal(dense[np.ix_(rev, rev)], dense)
        evals, evecs = ham.dense_eigh()
        assert evals.dtype == evecs.dtype == np.float64
        assert np.all(np.diff(evals) >= 0.0)
        scale = np.linalg.norm(dense, 2)
        assert np.abs(evals - np.linalg.eigvalsh(dense)).max() <= 1e-12 * scale
        assert np.abs(evecs.T @ evecs - np.eye(ham.dim)).max() <= 1e-13
        assert np.abs(dense @ evecs - evecs * evals).max() <= 1e-12 * scale

    def test_dense_eigh_peak_memory(self):
        ham = ising_operator(IsingParams(10))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ham.dense_eigh()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # The dense form and the two sector blocks while they are built
        # (1.77 measured); one eigh of the whole dense form measured 2.0.
        assert peak <= 1.9 * ham.dim**2 * 8

    def test_hermiticity_probe(self, rng):
        ham = ising_operator(IsingParams(6))
        assert hermiticity_defect(ham, rng) <= 1e-12

    def test_linearity(self, rng):
        ham = ising_operator(IsingParams(4))
        u = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = ham.apply(a * u + b * v)
        rhs = a * ham.apply(u) + b * ham.apply(v)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max()

    @pytest.mark.parametrize("field", ["J", "h_x", "h_z"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            IsingParams(4, **{field: value})

    def test_caps(self):
        with pytest.raises(ValueError, match=">= 2"):
            IsingParams(1)
        with pytest.raises(ValueError, match="cap"):
            ising_operator(IsingParams(21))


class TestIsingDense:
    @pytest.mark.parametrize(
        "params",
        [
            IsingParams(6),
            IsingParams(6, h_z=0.0),
            IsingParams(6, h_x=0.0),
            IsingParams(6, J=-0.8, h_x=-0.7, h_z=-0.3),
            IsingParams(2),
            IsingParams(10),
        ],
        ids=["defaults", "h_z=0", "h_x=0", "negative", "n=2", "n=10"],
    )
    def test_matches_column_by_column_build(self, params):
        ham = IsingOperator(params)
        dense = ham.to_dense()
        reference = LinearOperator.to_dense(ham)
        assert dense.dtype == reference.dtype == np.float64
        assert np.array_equal(dense, reference)

    def test_applies_nothing(self, monkeypatch):
        calls = []
        original = IsingOperator.apply

        def counted(self, vec):
            calls.append(1)
            return original(self, vec)

        monkeypatch.setattr(IsingOperator, "apply", counted)
        IsingOperator(IsingParams(8)).to_dense()
        assert calls == []

    def test_peak_is_one_real_matrix(self):
        ham = IsingOperator(IsingParams(8))
        tracemalloc.start()
        try:
            ham.to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The float64 matrix plus index vectors; no complex or second D x D array.
        assert peak <= 1.25 * ham.dim * ham.dim * 8


class TestEnsembles:
    def test_goe_deterministic(self):
        a = goe_sample(32, 7)
        b = goe_sample(32, 7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_samples_match_the_textbook_formula_bit_for_bit(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((48, 48))
        assert goe_sample(48, 9).matrix.tobytes() == ((g + g.T) / 2.0).tobytes()
        rng = np.random.default_rng(9)
        g = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        assert gue_sample(48, 9).matrix.tobytes() == ((g + g.conj().T) / 2.0).tobytes()

    @pytest.mark.parametrize("sample, itemsize", [(goe_sample, 8), (gue_sample, 16)])
    def test_construction_peak_is_two_matrices(self, sample, itemsize):
        dim = 256
        tracemalloc.start()
        try:
            sample(dim, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The sample plus one draw or check buffer; no full-size temporaries.
        assert peak <= 2.25 * dim * dim * itemsize

    def test_goe_exactly_symmetric(self):
        mat = goe_sample(64, 1).matrix
        assert np.array_equal(mat, mat.T)

    def test_goe_semicircle_support(self):
        # Off-diagonal variance 1/2 puts the spectral edge near sqrt(2 D).
        dim = 256
        evals = np.linalg.eigvalsh(goe_sample(dim, 11).matrix)
        edge = np.sqrt(2.0 * dim)
        assert np.abs(evals).max() <= 1.2 * edge
        assert np.abs(evals).max() >= 0.8 * edge

    def test_gue_deterministic(self):
        assert np.array_equal(gue_sample(32, 3).matrix, gue_sample(32, 3).matrix)

    def test_gue_exactly_hermitian(self):
        mat = gue_sample(64, 2).matrix
        assert np.array_equal(mat, mat.conj().T)

    def test_gue_semicircle_support(self):
        # Off-diagonal variance 1 puts the spectral edge near 2 sqrt(D).
        dim = 256
        evals = np.linalg.eigvalsh(gue_sample(dim, 12).matrix)
        edge = 2.0 * np.sqrt(dim)
        assert np.abs(evals).max() <= 1.2 * edge
        assert np.abs(evals).max() >= 0.8 * edge

    def test_dimension_caps(self):
        with pytest.raises(ValueError, match=">= 2"):
            goe_sample(1, 0)
        with pytest.raises(ValueError, match="cap"):
            gue_sample(5000, 0)


class TestRandomState:
    def test_normalized(self):
        assert abs(np.linalg.norm(random_state(512, 9)) - 1.0) <= 1e-14

    def test_deterministic(self):
        assert np.array_equal(random_state(64, 5), random_state(64, 5))

    def test_population_concentration(self):
        dim = 1024
        pops = np.abs(random_state(dim, 42)) ** 2
        assert pops.mean() == pytest.approx(1.0 / dim, abs=1e-18)
        assert pops.max() <= 15.0 / dim

    def test_dimension_check(self):
        with pytest.raises(ValueError, match=">= 1"):
            random_state(0, 1)
