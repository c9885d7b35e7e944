"""Eigenvalue closed forms, the rotated-coordinate SDE integrator, and the
vector off-diagonal reduction."""

import numpy as np
import pytest

from besqlab import besq, dyson, stattest
from besqlab.besq import BesqParams
from besqlab.errors import DomainError

# hand evaluation for b1=3, b2=1, xi=2, c=0.5: discriminant 4 + 4 = 8,
# trace 4, so the pair is 2 +- sqrt(2)
LAM1_312 = 3.4142135623730951
LAM2_312 = 0.5857864376269049

# One-path streams at default_rng(0) on FROZEN_GRID, recorded once the
# samplers of dimension 1 and more took the Gaussian split; a one-path draw
# must keep its random stream, so these values pin it
FROZEN_GRID = (0.25, 0.5, 1.0, 2.0)
FROZEN_BESQ_25_X4 = [4.959589857316727, 5.000808633727549, 7.762834925495633, 11.777406389114502]
FROZEN_BESQ_1_X0 = [0.00395202212404839, 1.0159015787839222e-05, 0.20796748347984328, 0.3146476672173155]
FROZEN_BESSEL_15_X2 = [2.117721319611641, 2.0681053621094874, 2.5382156511117837, 2.871053425873291]
FROZEN_SDE_1 = (
    [1.0947508807168906, 0.4899840734360346, 2.0458116765472636, 2.960168361987325],
    [-0.07390721671216527, -0.1026698849104693, -0.9225418178446603, -1.8285871130372227],
)
FROZEN_MATRIX_05_2 = (
    [0.8597424813494945, 0.3450438278493023, 0.9676697420992768, 1.3053924832335098],
    [0.26464773218668597, -0.6246562112511854, -3.199387275453481, -2.597453284923721],
)


def test_eigenvalues_diagonal_matrix_gives_order_statistics():
    assert dyson.eigenvalues(1.0, 0.0, 0.0, 0.7) == (1.0, 0.0)


def test_eigenvalues_hand_evaluated_point():
    lam1, lam2 = dyson.eigenvalues(3.0, 1.0, 2.0, 0.5)
    assert lam1 == pytest.approx(LAM1_312, rel=1e-15)
    assert lam2 == pytest.approx(LAM2_312, rel=1e-15)
    # rotated coordinates: the trace, and the gap sqrt(8)
    assert lam1 + lam2 == pytest.approx(4.0, abs=1e-15)
    assert lam1 - lam2 == pytest.approx(2.8284271247461903, rel=1e-15)


def test_eigenvalues_scalar_matrix_degenerate():
    for c in (0.0, 0.3, 2.0):
        lam1, lam2 = dyson.eigenvalues(1.7, 1.7, 0.0, c)
        assert lam1 == lam2 == 1.7


def test_eigenvalues_rejects_negative_coupling():
    with pytest.raises(DomainError):
        dyson.eigenvalues(1.0, 0.0, 1.0, -0.1)


def test_eigenvalues_rejects_negative_xi():
    with pytest.raises(DomainError, match="xi must be nonnegative"):
        dyson.eigenvalues(0.0, 0.0, -1.0, 0.5)
    with pytest.raises(DomainError, match="xi must be nonnegative"):
        dyson.eigenvalues(np.zeros(3), np.zeros(3), [0.0, -1.0, 1.0], 0.5)


def test_eigenvalues_rejects_non_finite_drivers():
    # a NaN or infinite driver gives unordered or infinite eigenvalues
    for which in range(3):
        for bad in (np.nan, np.inf, -np.inf):
            drivers = [np.array([0.5, 1.0]), np.array([0.0, -1.0]), np.array([1.0, 2.0])]
            drivers[which][1] = bad
            with pytest.raises(DomainError):
                dyson.eigenvalues(*drivers, 0.5)


def test_pathwise_decomposition_identities():
    rng = np.random.default_rng(71)
    c = 0.6
    b1, b2, xi = dyson.simulate_drivers(rng, 1.5, tuple(np.linspace(0.05, 2.0, 200)))
    lam1, lam2 = dyson.eigenvalues(b1, b2, xi, c)
    assert np.max(np.abs(lam1 + lam2 - (b1 + b2))) < 1e-12
    g = lam1 - lam2
    resid = g * g - (b1 - b2) ** 2 - 2.0 * c * xi**2
    assert np.max(np.abs(resid)) < 1e-12


@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("delta", [1.0, 2.0, 4.0])
def test_gap_is_the_weighted_besq_sum_pathwise(c, delta):
    # gap^2/2 = c xi^2 + ((b1 - b2)/sqrt 2)^2 is Z = c X + Y of the nonmarkov
    # module with X = xi^2 a BESQ(delta) and Y a BESQ(1), both from zero
    rng = np.random.default_rng(78)
    b1, b2, xi = dyson.simulate_drivers(rng, delta, tuple(np.linspace(0.05, 2.0, 100)))
    z = c * xi**2 + ((b1 - b2) / np.sqrt(2.0)) ** 2
    lam1, lam2 = dyson.eigenvalues(b1, b2, xi, c)
    gap = lam1 - lam2
    np.testing.assert_allclose(0.5 * gap**2, z, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("c", [0.5, 2.0])
@pytest.mark.parametrize("beta", [2, 4])
def test_vector_offdiag_gap_is_the_weighted_besq_sum_pathwise(c, beta):
    # complex (beta = 2) and quaternion (beta = 4) entries: beta Brownian
    # components off the diagonal, whose squared norm is a BESQ(beta)
    rng = np.random.default_rng(79)
    steps = np.full(100, 0.02)
    b1, b2 = np.cumsum(rng.normal(0.0, np.sqrt(steps), (2, steps.size)), axis=-1)
    v = np.cumsum(rng.normal(0.0, np.sqrt(steps), (beta, steps.size)), axis=-1)
    for j in range(steps.size):
        lam1, lam2 = dyson.eigenvalues_from_vector_offdiag(b1[j], b2[j], v[:, j], c)
        gap = lam1 - lam2
        z = c * np.dot(v[:, j], v[:, j]) + ((b1[j] - b2[j]) / np.sqrt(2.0)) ** 2
        assert 0.5 * gap**2 == pytest.approx(z, rel=1e-12, abs=1e-14)


def test_eigenvalue_ordering_holds_on_paths():
    rng = np.random.default_rng(72)
    for c in (0.0, 0.5, 1.0, 2.0):
        lam1, lam2 = dyson.eigen_paths(rng, c, 1.0, tuple(np.linspace(0.1, 1.0, 50)))
        assert np.all(lam1.values >= lam2.values)


def test_zero_coupling_is_order_statistics_pathwise():
    rng = np.random.default_rng(73)
    b1, b2, xi = dyson.simulate_drivers(rng, 2.0, tuple(np.linspace(0.1, 3.0, 120)))
    lam1, lam2 = dyson.eigenvalues(b1, b2, xi, 0.0)
    # rotation arithmetic rounds, so agreement is to machine precision
    np.testing.assert_allclose(lam1, np.maximum(b1, b2), atol=1e-14)
    np.testing.assert_allclose(lam2, np.minimum(b1, b2), atol=1e-14)


def test_gap_is_monotone_in_coupling_on_shared_drivers():
    rng = np.random.default_rng(74)
    drivers = dyson.simulate_drivers(rng, 1.0, tuple(np.linspace(0.1, 2.0, 80)))
    gaps = [np.subtract(*dyson.eigenvalues(*drivers, c)) for c in (0.0, 0.5, 1.0)]
    assert np.all(gaps[1] >= gaps[0]) and np.all(gaps[2] >= gaps[1])


def test_driver_moments():
    rng = np.random.default_rng(75)
    delta, t = 2.5, 0.7
    b1, b2, xi = dyson.simulate_drivers(rng, delta, (t,), 3000)
    assert b1.shape == b2.shape == xi.shape == (3000, 1)
    b1 = b1[:, 0]
    xisq = xi[:, 0] ** 2
    assert abs(np.mean(b1)) < 4.0 * np.sqrt(t / b1.size)
    assert np.var(b1) == pytest.approx(t, rel=0.15)
    # E[xi^2] = delta t, Var[xi^2] = 2 delta t^2 from zero
    assert np.mean(xisq) == pytest.approx(delta * t, abs=4.0 * np.sqrt(2 * delta * t**2 / b1.size))
    corr = np.corrcoef(b1, xisq)[0, 1]
    assert abs(corr) < 4.0 / np.sqrt(b1.size)


def test_vector_offdiag_matches_scalar_reduction():
    rng = np.random.default_rng(76)
    for size in (1, 2, 4):
        for _ in range(20):
            v = rng.normal(size=size)
            b1, b2 = rng.normal(size=2)
            c = rng.uniform(0.0, 2.0)
            got = dyson.eigenvalues_from_vector_offdiag(b1, b2, v, c)
            assert got == dyson.eigenvalues(b1, b2, float(np.linalg.norm(v)), c)


def test_vector_offdiag_hand_evaluated_point():
    # |v| = 5 and c = 2 make the offdiagonal magnitude 5, so the spectrum
    # of [[0, 5], [5, 0]] is +-5
    lam1, lam2 = dyson.eigenvalues_from_vector_offdiag(0.0, 0.0, (3.0, 4.0), 2.0)
    assert lam1 == pytest.approx(5.0, rel=1e-15)
    assert lam2 == pytest.approx(-5.0, rel=1e-15)


def test_vector_offdiag_zero_vector_is_order_statistics():
    pair = dyson.eigenvalues_from_vector_offdiag(-1.0, 2.0, (0.0, 0.0, 0.0, 0.0), 1.3)
    assert pair == (2.0, -1.0)


def test_vector_offdiag_rotation_invariant():
    rng = np.random.default_rng(77)
    v = rng.normal(size=4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = dyson.eigenvalues_from_vector_offdiag(0.4, -0.2, v, 1.0)
    b = dyson.eigenvalues_from_vector_offdiag(0.4, -0.2, q @ v, 1.0)
    assert a[0] == pytest.approx(b[0], rel=1e-12)
    assert a[1] == pytest.approx(b[1], rel=1e-12)


def test_vector_offdiag_rejects_bad_length():
    with pytest.raises(DomainError):
        dyson.eigenvalues_from_vector_offdiag(0.0, 0.0, (1.0, 2.0, 3.0), 1.0)


BAD_GRIDS = [(), (1.0, 0.5), (1.0, np.inf), ((0.5, 1.0),)]


def _untouched(rng: np.random.Generator, state: dict) -> bool:
    # no draw moved the bit generator and no child stream was spawned
    return rng.bit_generator.state == state and rng.bit_generator.seed_seq.n_children_spawned == 0


def test_config_validation():
    # eigen_paths and simulate_drivers raise before any draw
    calls = [
        lambda rng, c=c: dyson.eigen_paths(rng, c, 1.0, (1.0,)) for c in (-1.0, np.inf, np.nan)
    ]
    for delta in (0.0, -1.0, np.nan, np.inf):
        calls.append(lambda rng, d=delta: dyson.eigen_paths(rng, 1.0, d, (1.0,)))
        calls.append(lambda rng, d=delta: dyson.simulate_drivers(rng, d, (1.0,)))
    for grid in BAD_GRIDS:
        calls.append(lambda rng, g=grid: dyson.eigen_paths(rng, 1.0, 1.0, g, 3))
        calls.append(lambda rng, g=grid: dyson.simulate_drivers(rng, 1.0, g))
    for call in calls:
        rng = np.random.default_rng(80)
        state = rng.bit_generator.state
        with pytest.raises(DomainError):
            call(rng)
        assert _untouched(rng, state)
    for c in (-1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            dyson.eigenvalues(0.0, 0.0, 1.0, c)


def test_sde_sum_variance_grows_like_2t():
    rng = np.random.default_rng(78)
    lam1, lam2 = dyson.integrate_dyson_sde(rng, 1.0, (0.5, 1.0), 4000)
    finals = lam1.values[:, -1] + lam2.values[:, -1]
    assert np.var(finals) == pytest.approx(2.0, rel=0.12)
    assert abs(np.mean(finals)) < 4.0 * np.sqrt(2.0 / finals.size)


def test_sde_gap_stays_positive():
    rng = np.random.default_rng(79)
    times = tuple(np.linspace(1e-4, 1.0, 2000))
    lam1, lam2 = dyson.integrate_dyson_sde(rng, 1.0, times, 500)
    assert lam1.values.shape == (500, 2000)
    assert np.all(lam1.values - lam2.values > 0.0)


def test_sde_rejects_bad_inputs():
    bad = [(0.0, (1.0,)), (np.inf, (1.0,)), (1.0, (2.0, 1.0))] + [(1.0, g) for g in BAD_GRIDS]
    for delta, grid in bad:
        rng = np.random.default_rng(81)
        state = rng.bit_generator.state
        with pytest.raises(DomainError):
            dyson.integrate_dyson_sde(rng, delta, grid)
        assert _untouched(rng, state)


def test_sde_matches_matrix_model_at_unit_time():
    n = 20_000
    lam1, lam2 = dyson.integrate_dyson_sde(np.random.default_rng(82), 1.0, (1.0,), n)
    out = {"sde": (lam1.values[:, 0], lam1.values[:, 0] - lam2.values[:, 0])}
    a, b = dyson.eigen_paths(np.random.default_rng(82), 1.0, 1.0, (1.0,), n)
    out["mat"] = (a.values[:, 0], a.values[:, 0] - b.values[:, 0])
    for k in (0, 1):
        rep = stattest.ks_two_sample(out["sde"][k], out["mat"][k], alpha=0.001)
        assert rep.verdict == "consistent"


def test_sde_gap_is_scaled_bessel_one_plus_delta():
    n = 20_000
    rng = np.random.default_rng(83)
    lam1, lam2 = dyson.integrate_dyson_sde(rng, 1.0, (1.0,), n)
    gap = lam1.values[:, 0] - lam2.values[:, 0]
    ref = np.sqrt(besq.sample_transitions(rng, BesqParams(2.0), 1.0, np.zeros(n)))
    rep = stattest.ks_two_sample(gap / np.sqrt(2.0), ref, alpha=0.001)
    assert rep.verdict == "consistent"


def test_simulation_is_deterministic_per_seed():
    a = dyson.eigen_paths(np.random.default_rng(84), 0.5, 1.0, (0.3, 0.9))
    b = dyson.eigen_paths(np.random.default_rng(84), 0.5, 1.0, (0.3, 0.9))
    np.testing.assert_array_equal(a[0].values, b[0].values)
    np.testing.assert_array_equal(a[1].values, b[1].values)


def test_one_path_streams_frozen():
    rng = np.random.default_rng
    got = {
        "besq": besq.sample_path(rng(0), BesqParams(2.5), 4.0, FROZEN_GRID).values,
        "besq0": besq.sample_path(rng(0), BesqParams(1.0), 0.0, FROZEN_GRID).values,
        "bessel": besq.bessel_path(rng(0), BesqParams(1.5), 2.0, FROZEN_GRID).values,
    }
    pairs = {
        "sde": dyson.integrate_dyson_sde(rng(0), 1.0, FROZEN_GRID),
        "matrix": dyson.eigen_paths(rng(0), 0.5, 2.0, FROZEN_GRID),
    }
    for key, (lam1, lam2) in pairs.items():
        got[key + "1"], got[key + "2"] = lam1.values, lam2.values
    want = {
        "besq": FROZEN_BESQ_25_X4,
        "besq0": FROZEN_BESQ_1_X0,
        "bessel": FROZEN_BESSEL_15_X2,
        "sde1": FROZEN_SDE_1[0],
        "sde2": FROZEN_SDE_1[1],
        "matrix1": FROZEN_MATRIX_05_2[0],
        "matrix2": FROZEN_MATRIX_05_2[1],
    }
    for key, values in want.items():
        assert got[key].shape == (4,)
        np.testing.assert_allclose(got[key], values, rtol=1e-13, atol=0.0, err_msg=key)
