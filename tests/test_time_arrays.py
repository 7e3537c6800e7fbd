"""Functions of time: a 1-D array of times against one call per time, and finite-time checks."""

import tracemalloc

import numpy as np
import pytest

from krylov_echo.cli import main
from krylov_echo.estimators import (
    bind_estimator,
    echo_general,
    estimate_extra_site_averaged,
    estimate_extra_site_exact,
    estimate_park_light,
    estimate_toeplitz_analytic,
    extra_site_band,
)
from krylov_echo.lanczos import extend_one, lanczos_iterate
from krylov_echo.linalg import _end_states, _per_time, exact_evolve_dense
from krylov_echo.models import IsingParams, ising_operator, random_state
from krylov_echo.propagator import krylov_evolve, reduced_coefficients
from krylov_echo.toeplitz import _toeplitz_eigen, toeplitz_echo

# t = 0 first, then the plateau, the build-up window and the collapse.
TIMES = np.concatenate([[0.0], np.linspace(0.05, 4.0, 80)])


@pytest.fixture(scope="module")
def setup():
    ham = ising_operator(IsingParams(8))
    basis = lanczos_iterate(ham, random_state(ham.dim, 3), 16)
    return ham, basis, extend_one(basis, ham)


@pytest.fixture(scope="module")
def eps_functions(setup):
    ham, basis, extended = setup
    band = lambda t: extra_site_band(basis, t)
    return {
        "extra_site_exact": lambda t: estimate_extra_site_exact(extended, t),
        "extra_site_averaged": lambda t: estimate_extra_site_averaged(basis, t),
        "extra_site_hybrid": lambda t: estimate_extra_site_averaged(basis, t, "hybrid"),
        "toeplitz_analytic": lambda t: estimate_toeplitz_analytic(basis, t),
        "park_light": lambda t: estimate_park_light(basis, t),
        "band_low": lambda t: band(t)[0],
        "band_high": lambda t: band(t)[1],
        "bound_hybrid": bind_estimator("extra_site_hybrid", basis),
        "bound_exact": bind_estimator("extra_site_exact", basis, ham),
    }


@pytest.fixture(scope="module")
def state_functions(setup):
    ham, basis, extended = setup
    tri = basis.tridiag
    return {
        "reduced_coefficients": lambda t: reduced_coefficients(basis, t),
        "krylov_evolve": lambda t: krylov_evolve(basis, t),
        "exact_evolve_dense": lambda t: exact_evolve_dense(ham, basis.vectors[0], t),
        "echo_general": lambda t: echo_general(tri, extended.tridiag, t),
        "toeplitz_echo": lambda t: toeplitz_echo(12, 13, 0.3, 0.8, t),
        "toeplitz_end_state": lambda t: _per_time(t, _end_states(_toeplitz_eigen(12, 0.3, 0.8), t)),
    }


EPS_NAMES = [
    "extra_site_exact",
    "extra_site_averaged",
    "extra_site_hybrid",
    "toeplitz_analytic",
    "park_light",
    "band_low",
    "band_high",
    "bound_hybrid",
    "bound_exact",
]
STATE_NAMES = [
    "reduced_coefficients",
    "krylov_evolve",
    "exact_evolve_dense",
    "echo_general",
    "toeplitz_echo",
    "toeplitz_end_state",
]


def gamma(m):
    """Higham's ``gamma_m = m u / (1 - m u)``: the relative error bound of a sum of m products."""
    u = np.finfo(np.float64).eps / 2
    return m * u / (1 - m * u)


@pytest.mark.parametrize("name", EPS_NAMES)
def test_eps_array_matches_per_time_calls(setup, eps_functions, name):
    fn = eps_functions[name]
    batched = fn(TIMES)
    looped = np.array([fn(float(t)) for t in TIMES])
    assert batched.shape == TIMES.shape
    # Batched and looped states agree to about 2u, not to the bit, which moves
    # a residual's squared norm by about 2 sqrt(eps) u. Each evaluation then
    # sums the 2n real squares of an n-site residual with a relative error of
    # at most gamma_2n (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., eq. 3.5), so the two sums differ by up to 2 gamma_2n eps. The
    # longest chain here has one site more than the basis.
    _, basis, _ = setup
    eps = np.maximum(batched, looped)
    allowance = 4 * np.sqrt(eps) * 1e-16 + 2 * gamma(2 * (basis.size + 1)) * eps + 1e-30
    assert (np.abs(batched - looped) <= allowance).all()
    assert looped[0] == batched[0] == 0.0


@pytest.mark.parametrize("name", STATE_NAMES)
def test_state_array_matches_per_time_calls(state_functions, name):
    fn = state_functions[name]
    batched = fn(TIMES)
    looped = np.array([fn(float(t)) for t in TIMES])
    assert batched.shape == looped.shape and batched.shape[0] == TIMES.size
    assert np.abs(batched - looped).max() <= 1e-14


def test_estimate_has_the_shape_of_its_times(setup):
    _, basis, _ = setup
    assert estimate_park_light(basis, TIMES).shape == TIMES.shape
    assert np.ndim(estimate_park_light(basis, 1.5)) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize(
    "name",
    [
        "krylov_evolve",
        "extra_site_exact",
        "park_light",
        "echo_general",
        "toeplitz_echo",
        "bound_hybrid",
    ],
)
def test_non_finite_times_rejected(eps_functions, state_functions, name, as_array, bad):
    functions = {**eps_functions, **state_functions}
    t = np.array([0.5, bad, 1.0]) if as_array else bad
    with pytest.raises(ValueError, match="finite"):
        functions[name](t)


def test_two_dimensional_times_rejected(setup):
    _, basis, _ = setup
    with pytest.raises(ValueError, match="1-D"):
        krylov_evolve(basis, np.zeros((2, 2)))


def test_toeplitz_sweep_never_holds_a_times_by_sites_array(tmp_path):
    n, points = 200, 2000
    args = (
        f"toeplitz --n {n} --n-prime {n + 1} --alpha 0 --beta 1 --t-min 0 --t-max 100 "
        f"--points {points} --out {tmp_path / 'toeplitz.csv'}"
    ).split()
    assert main(args) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < points * n * 16
