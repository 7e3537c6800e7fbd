"""Model Hamiltonians: bitwise Ising, random-matrix ensembles, random states."""

import tracemalloc

import numpy as np
import pytest

from conftest import hermiticity_defect, ising_dense_oracle

from krylov_echo import models
from krylov_echo.linalg import _PANEL, LinearOperator, basis_state
from krylov_echo.models import (
    IsingOperator,
    IsingParams,
    goe_sample,
    gue_sample,
    ising_operator,
    random_state,
)


def sector_gather_eigh(dense: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Test-side reflection-sector eigendecomposition of a dense Ising matrix: gather, solve, scatter.

    Over the palindromes ``m`` and the pairs ``l < rev(l)``, the even block
    is ``dense[m, m']``, ``sqrt(2) dense[m, l]`` and ``dense[l, l'] + dense[l,
    rev l']``, the odd one ``dense[l, l'] - dense[l, rev l']``. Each block's
    eigenvectors go, mapped back to the spin basis, into the columns of the
    ascending eigenvalues.
    """
    dim = dense.shape[0]
    idx = np.arange(dim)
    rev = sum(((idx >> k) & 1) << (n - 1 - k) for k in range(n))
    mid, low = np.flatnonzero(idx == rev), np.flatnonzero(idx < rev)
    high = rev[low]
    cross = np.sqrt(2.0) * dense[np.ix_(mid, low)]
    pairs = dense[np.ix_(low, low)] + dense[np.ix_(low, high)]
    even = np.block([[dense[np.ix_(mid, mid)], cross], [cross.T, pairs]])
    odd = dense[np.ix_(low, low)] - dense[np.ix_(low, high)]
    even_vals, even_vecs = np.linalg.eigh(even)
    odd_vals, odd_vecs = np.linalg.eigh(odd)
    evecs = np.zeros((dim, dim))
    even_cols, odd_cols = slice(0, even_vals.size), slice(even_vals.size, dim)
    evecs[mid, even_cols] = even_vecs[: mid.size]
    evecs[low, even_cols] = evecs[high, even_cols] = even_vecs[mid.size :] * np.sqrt(0.5)
    evecs[low, odd_cols] = odd_vecs * np.sqrt(0.5)
    evecs[high, odd_cols] = -(odd_vecs * np.sqrt(0.5))
    evals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(evals, kind="stable")
    return evals[order], evecs[:, order]


def with_operator_diagonal(dense: np.ndarray, ham: IsingOperator) -> np.ndarray:
    """``dense`` with the operator's own diagonal written in.

    The operator's diagonal comes from exact spin counts, so it survives
    reversing the chain bit for bit, -0.0 included; a float sum over sites,
    or the ``0.0 + d`` of an apply, can differ in a last bit or in the sign
    of a zero. The rest of a dense Ising matrix is exact: ``h_x`` at each
    flip and +0.0 elsewhere.
    """
    diag = ham._diag_pairs[::2]
    assert np.abs(np.diag(dense) - diag).max() <= 1e-13 * max(np.abs(diag).max(), 1.0)
    dense = dense.copy()
    np.fill_diagonal(dense, diag)
    return dense


def assert_bit_identical(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


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

    def test_apply_is_the_two_part_formula(self, rng):
        # The diagonal multiplies the float64 view in one pass: each real and
        # imaginary part must get the product it gets on its own. With h_x = 0
        # the flip term is zero, so the diagonal term comes out alone and
        # exactly; with h_z = J = 0 the flip term comes out alone.
        n, h_x = 12, 0.7
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        flips = ising_operator(IsingParams(n, J=0.0, h_x=h_x, h_z=0.0)).apply(vec)
        diag = ising_operator(IsingParams(n, h_x=0.0)).apply(np.ones(2**n, complex)).real
        expected = np.empty_like(vec)
        np.multiply(vec.real, diag, out=expected.real)
        np.multiply(vec.imag, diag, out=expected.imag)
        alone = ising_operator(IsingParams(n, h_x=0.0)).apply(vec)
        assert np.array_equal(alone.view(np.float64), expected.view(np.float64))
        expected += flips
        out = ising_operator(IsingParams(n, h_x=h_x)).apply(vec)
        # The terms are summed in another order: the diagonal first, then one group at a time.
        assert np.abs(out - expected).max() <= 1e-14 * np.abs(expected).max()

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
        params = IsingParams(n, *fields)
        ham = ising_operator(params)
        dense = ising_dense_oracle(params)
        idx = np.arange(ham.dim)
        rev = sum(((idx >> k) & 1) << (n - 1 - k) for k in range(n))
        # The Kronecker diagonal is a float sum over sites, which the reversal
        # may reorder: the symmetry holds to rounding there, exactly elsewhere.
        assert np.abs(dense[np.ix_(rev, rev)] - dense).max() <= 1e-14 * n
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
        # The eigenvector array and the two sectors' eigenvectors (1.53
        # measured); cutting the blocks from a dense form measured 1.77, and
        # one eigh of the whole dense form 2.0.
        assert peak <= 1.6 * ham.dim**2 * 8

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
    """The dense oracle of the Ising chain, solved per reflection sector with no dense matrix."""

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
        # The sector solve against the sectors cut from the dense form that
        # the base class builds one apply per column.
        ham = IsingOperator(params)
        dense = LinearOperator.to_dense(ham)
        assert dense.dtype == np.float64
        want = sector_gather_eigh(with_operator_diagonal(dense, ham), params.n_spins)
        assert_bit_identical(ham.dense_eigh(), want)

    @pytest.mark.parametrize("n", range(2, 12))
    @pytest.mark.parametrize(
        "fields",
        [(1.0, 1.0, 0.5), (1.0, 1.0, 0.0), (-0.8, -0.7, 0.3)],
        ids=["defaults", "h_z=0", "negative"],
    )
    def test_matches_kronecker_sector_gather(self, n, fields):
        # n = 2 and 3 have sectors of one or two pairs; an odd n has the
        # palindromic middle-bit flip; h_z = 0 puts -0.0 on an odd n's diagonal.
        params = IsingParams(n, *fields)
        ham = IsingOperator(params)
        want = sector_gather_eigh(with_operator_diagonal(ising_dense_oracle(params), ham), n)
        assert_bit_identical(ham.dense_eigh(), want)

    def test_applies_nothing(self, monkeypatch):
        calls = []
        original = IsingOperator.apply

        def counted(self, vec):
            calls.append(1)
            return original(self, vec)

        monkeypatch.setattr(IsingOperator, "apply", counted)
        IsingOperator(IsingParams(8)).dense_eigh()
        assert calls == []

    def test_blocks_hold_half_a_real_matrix(self, monkeypatch):
        ham = IsingOperator(IsingParams(8))
        held = []
        eigh = np.linalg.eigh

        def recording(matrix):
            held.append(tracemalloc.get_traced_memory()[1])
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        tracemalloc.start()
        try:
            ham.dense_eigh()
        finally:
            tracemalloc.stop()
        # Up to the first solve: the two blocks, about half of one D x D
        # float64 matrix, and index vectors (0.54 measured); cutting them from
        # a dense form held 1.5.
        assert len(held) == 2
        assert held[0] <= 0.6 * ham.dim * ham.dim * 8


class TestEnsembles:
    def test_goe_deterministic(self):
        a = goe_sample(32, 7)
        b = goe_sample(32, 7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_samples_match_the_textbook_formula_bit_for_bit(self):
        # Within one panel (48, 100) and past one (130); none fills its last panel.
        for dim in (48, 100, 130):
            rng = np.random.default_rng(9)
            g = rng.standard_normal((dim, dim))
            assert goe_sample(dim, 9).matrix.tobytes() == ((g + g.T) / 2.0).tobytes()
            rng = np.random.default_rng(9)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            assert gue_sample(dim, 9).matrix.tobytes() == ((g + g.conj().T) / 2.0).tobytes()

    @pytest.mark.parametrize("sample, itemsize", [(goe_sample, 8), (gue_sample, 16)])
    def test_construction_peak_is_one_matrix_and_a_panel(self, sample, itemsize):
        dim = 1024
        tracemalloc.start()
        try:
            sample(dim, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The sample plus the check's one panel of rows, and a quarter panel
        # for the symmetrizing blocks and the draw; no second matrix.
        assert peak <= (dim + 1.25 * _PANEL) * dim * itemsize

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

    @pytest.mark.parametrize("sample", [goe_sample, gue_sample])
    def test_dimension_cap_is_the_dense_rule_and_inclusive(self, monkeypatch, sample):
        monkeypatch.setattr(models, "MAX_DENSE_DIM", 8)
        assert sample(8, 0).dim == 8
        with pytest.raises(ValueError, match="ensemble dimension 9 exceeds cap 8"):
            sample(9, 0)


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


def contract_operator(model: str, n: int, h_x: float = 1.0):
    """A package operator with its dense matrix: the Kronecker oracle for Ising, the sample for GOE and GUE."""
    if model == "ising":
        params = IsingParams(n, h_x=h_x)
        return ising_operator(params), ising_dense_oracle(params)
    op = {"goe": goe_sample, "gue": gue_sample}[model](n, 3)
    return op, op.matrix


# Ising at every group layout from one lone low group (n <= 3) to 3,4,4,1
# (n = 12), including a lone top bit with no middle group (n = 4); GOE is
# applied in real arithmetic, GUE in complex.
ISING_CASES = [("ising", n, h_x) for n in range(2, 13) for h_x in (1.0, 0.7, 0.0)]
DENSE_CASES = [("goe", 64), ("gue", 64)]


def case_id(case) -> str:
    return "-".join(map(str, case))


class TestApplyContract:
    """``apply(vec, out=row)`` writes ``H vec`` into ``row`` alone and returns it; a bad ``out`` raises."""

    @pytest.mark.parametrize("case", ISING_CASES + DENSE_CASES, ids=case_id)
    def test_apply_into_a_buffer_row(self, case, rng):
        op, matrix = contract_operator(*case)
        vec = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        buffer = np.full((3, op.dim), np.nan, dtype=complex)
        buffer[0] = vec
        row = buffer[1]
        assert op.apply(buffer[0], out=row) is row
        assert np.array_equal(buffer[0], vec) and np.isnan(buffer[2]).all()
        expected = matrix @ vec
        scale = np.abs(expected).max()
        assert np.abs(row - expected).max() <= 1e-13 * scale
        assert np.abs(row - op.apply(vec)).max() <= 1e-13 * scale

    @pytest.mark.parametrize("case", [("ising", 4), ("ising", 12)] + DENSE_CASES, ids=case_id)
    def test_bad_out_raises(self, case):
        op, _ = contract_operator(*case)
        vec = np.ones(op.dim, dtype=complex)
        read_only = np.zeros(op.dim, dtype=complex)
        read_only.flags.writeable = False
        bad = [
            np.zeros(op.dim + 1, dtype=complex),  # shape
            np.zeros(op.dim),  # dtype
            np.zeros((op.dim, 2), dtype=complex)[:, 0],  # order: a strided column
            read_only,
        ]
        for out in bad:
            with pytest.raises(ValueError, match="out must be"):
                op.apply(vec, out=out)
        with pytest.raises(ValueError, match="share memory"):
            op.apply(vec, out=vec)
        overlapping = np.zeros(op.dim + 1, dtype=complex)
        with pytest.raises(ValueError, match="share memory"):
            op.apply(overlapping[1:], out=overlapping[:-1])
