"""Eigenvalue closed forms, the rotated-coordinate SDE integrator, and the
vector off-diagonal reduction."""

import numpy as np
import pytest

from besqlab import besq, dyson, stattest
from besqlab.besq import BesqParams
from besqlab.dyson import DriverState, EigenPair, MatrixProcessConfig
from besqlab.errors import DomainError

# hand evaluation for b1=3, b2=1, xi=2, c=0.5: discriminant 4 + 4 = 8,
# trace 4, so the pair is 2 +- sqrt(2)
LAM1_312 = 3.4142135623730951
LAM2_312 = 0.5857864376269049

# One-path streams at default_rng(0) on FROZEN_GRID, recorded before the path
# samplers learnt to broadcast over their start; a one-path draw must keep
# its random stream, so these values pin it
FROZEN_GRID = (0.25, 0.5, 1.0, 2.0)
FROZEN_BESQ_25_X4 = [1.4746585677697575, 0.9358819074768675, 1.2576005013947218, 4.641811333497872]
FROZEN_BESQ_1_X0 = [0.21783291054520598, 0.0001365813680819486, 0.38432072873540785, 4.624861303995536]
FROZEN_BESSEL_15_X2 = [1.122294661782218, 0.8964827421046115, 0.928758026705408, 0.35220062899395377]
FROZEN_SDE_1 = (
    [0.9585022955529401, 0.49539207907280064, 1.7423929511637903, 2.8686889216557283],
    [0.06234136845178523, -0.10807789054723532, -0.619123092461187, -1.7371076727056256],
)
FROZEN_SDE_2_FROM_21 = (
    [3.092450816645401, 3.0927416665273713, 3.8732857852619196, 4.40745250742094],
    [0.9283928473593241, 0.29457252199819384, 0.24998407344068352, -0.2758712584708385],
)
FROZEN_MATRIX_05_2 = (
    [1.0277835667826662, 0.4244432638722264, 0.994180066202955, 1.2316027268216898],
    [0.09660664675351427, -0.7040556472741095, -3.2258975995571593, -2.523663528511901],
)


def zeros_pair(n):
    return EigenPair(np.zeros(n), np.zeros(n))


def test_eigenvalues_diagonal_matrix_gives_order_statistics():
    pair = dyson.eigenvalues(DriverState(1.0, 0.0, 0.0), 0.7)
    assert pair.lambda1 == 1.0 and pair.lambda2 == 0.0


def test_eigenvalues_hand_evaluated_point():
    pair = dyson.eigenvalues(DriverState(3.0, 1.0, 2.0), 0.5)
    assert pair.lambda1 == pytest.approx(LAM1_312, rel=1e-15)
    assert pair.lambda2 == pytest.approx(LAM2_312, rel=1e-15)


def test_eigenvalues_scalar_matrix_degenerate():
    for c in (0.0, 0.3, 2.0):
        pair = dyson.eigenvalues(DriverState(1.7, 1.7, 0.0), c)
        assert pair.lambda1 == pair.lambda2 == 1.7


def test_eigenvalues_rejects_negative_coupling():
    with pytest.raises(DomainError):
        dyson.eigenvalues(DriverState(1.0, 0.0, 1.0), -0.1)


def test_driver_state_rejects_negative_xi():
    with pytest.raises(DomainError):
        DriverState(0.0, 0.0, -1.0)


def test_eigen_pair_rejects_wrong_order():
    with pytest.raises(DomainError):
        EigenPair(0.0, 1.0)


def test_decompose_returns_sum_and_gap():
    assert dyson.decompose(EigenPair(1.0, 0.0)) == (1.0, 1.0)
    s, g = dyson.decompose(EigenPair(LAM1_312, LAM2_312))
    assert s == pytest.approx(4.0, abs=1e-15)
    assert g == pytest.approx(2.8284271247461903, rel=1e-15)
    s, g = dyson.decompose(EigenPair(2.5, 2.5))
    assert s == 5.0 and g == 0.0


def test_pathwise_decomposition_identities():
    rng = np.random.default_rng(71)
    cfg = MatrixProcessConfig(0.6, 1.5, tuple(np.linspace(0.05, 2.0, 200)))
    state = dyson.simulate_drivers(rng, cfg)
    pair = dyson.eigenvalues(state, cfg.c)
    s, g = dyson.decompose(pair)
    assert np.max(np.abs(s - (state.b1 + state.b2))) < 1e-12
    resid = g * g - (state.b1 - state.b2) ** 2 - 2.0 * cfg.c * state.xi**2
    assert np.max(np.abs(resid)) < 1e-12


def test_eigenvalue_ordering_holds_on_paths():
    rng = np.random.default_rng(72)
    for c in (0.0, 0.5, 1.0, 2.0):
        cfg = MatrixProcessConfig(c, 1.0, tuple(np.linspace(0.1, 1.0, 50)))
        lam1, lam2 = dyson.eigen_paths(rng, cfg)
        assert np.all(lam1.values >= lam2.values)


def test_zero_coupling_is_order_statistics_pathwise():
    rng = np.random.default_rng(73)
    cfg = MatrixProcessConfig(0.0, 2.0, tuple(np.linspace(0.1, 3.0, 120)))
    state = dyson.simulate_drivers(rng, cfg)
    pair = dyson.eigenvalues(state, 0.0)
    # rotation arithmetic rounds, so agreement is to machine precision
    np.testing.assert_allclose(pair.lambda1, np.maximum(state.b1, state.b2), atol=1e-14)
    np.testing.assert_allclose(pair.lambda2, np.minimum(state.b1, state.b2), atol=1e-14)


def test_gap_is_monotone_in_coupling_on_shared_drivers():
    rng = np.random.default_rng(74)
    cfg = MatrixProcessConfig(1.0, 1.0, tuple(np.linspace(0.1, 2.0, 80)))
    state = dyson.simulate_drivers(rng, cfg)
    gaps = [dyson.decompose(dyson.eigenvalues(state, c))[1] for c in (0.0, 0.5, 1.0)]
    assert np.all(gaps[1] >= gaps[0]) and np.all(gaps[2] >= gaps[1])


def test_driver_moments():
    rng = np.random.default_rng(75)
    cfg = MatrixProcessConfig(1.0, 2.5, (0.7,))
    b1 = np.empty(3000)
    xisq = np.empty(3000)
    for i in range(b1.size):
        state = dyson.simulate_drivers(rng, cfg)
        b1[i] = state.b1[0]
        xisq[i] = state.xi[0] ** 2
    t = cfg.times[0]
    assert abs(np.mean(b1)) < 4.0 * np.sqrt(t / b1.size)
    assert np.var(b1) == pytest.approx(t, rel=0.15)
    # E[xi^2] = delta t, Var[xi^2] = 2 delta t^2 from zero
    assert np.mean(xisq) == pytest.approx(cfg.delta * t, abs=4.0 * np.sqrt(2 * cfg.delta * t**2 / b1.size))
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
            want = dyson.eigenvalues(DriverState(b1, b2, float(np.linalg.norm(v))), c)
            assert got.lambda1 == want.lambda1 and got.lambda2 == want.lambda2


def test_vector_offdiag_hand_evaluated_point():
    # |v| = 5 and c = 2 make the offdiagonal magnitude 5, so the spectrum
    # of [[0, 5], [5, 0]] is +-5
    pair = dyson.eigenvalues_from_vector_offdiag(0.0, 0.0, (3.0, 4.0), 2.0)
    assert pair.lambda1 == pytest.approx(5.0, rel=1e-15)
    assert pair.lambda2 == pytest.approx(-5.0, rel=1e-15)


def test_vector_offdiag_zero_vector_is_order_statistics():
    pair = dyson.eigenvalues_from_vector_offdiag(-1.0, 2.0, (0.0, 0.0, 0.0, 0.0), 1.3)
    assert (pair.lambda1, pair.lambda2) == (2.0, -1.0)


def test_vector_offdiag_rotation_invariant():
    rng = np.random.default_rng(77)
    v = rng.normal(size=4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = dyson.eigenvalues_from_vector_offdiag(0.4, -0.2, v, 1.0)
    b = dyson.eigenvalues_from_vector_offdiag(0.4, -0.2, q @ v, 1.0)
    assert a.lambda1 == pytest.approx(b.lambda1, rel=1e-12)
    assert a.lambda2 == pytest.approx(b.lambda2, rel=1e-12)


def test_vector_offdiag_rejects_bad_length():
    with pytest.raises(DomainError):
        dyson.eigenvalues_from_vector_offdiag(0.0, 0.0, (1.0, 2.0, 3.0), 1.0)


def test_config_validation():
    for c in (-1.0, np.inf, np.nan):
        with pytest.raises(DomainError):
            MatrixProcessConfig(c, 1.0, (1.0,))
        with pytest.raises(DomainError):
            dyson.eigenvalues(DriverState(0.0, 0.0, 1.0), c)
    with pytest.raises(DomainError):
        MatrixProcessConfig(1.0, 0.0, (1.0,))
    with pytest.raises(DomainError):
        MatrixProcessConfig(1.0, 1.0, ())
    with pytest.raises(DomainError):
        MatrixProcessConfig(1.0, 1.0, (1.0, 0.5))
    with pytest.raises(DomainError):
        MatrixProcessConfig(1.0, 1.0, (1.0, np.inf))
    with pytest.raises(DomainError):
        MatrixProcessConfig(1.0, 1.0, ((0.5, 1.0),))


def test_sde_sum_variance_grows_like_2t():
    rng = np.random.default_rng(78)
    lam1, lam2 = dyson.integrate_dyson_sde(rng, 1.0, (0.5, 1.0), zeros_pair(4000))
    finals = lam1.values[:, -1] + lam2.values[:, -1]
    assert np.var(finals) == pytest.approx(2.0, rel=0.12)
    assert abs(np.mean(finals)) < 4.0 * np.sqrt(2.0 / finals.size)


def test_sde_gap_stays_positive():
    rng = np.random.default_rng(79)
    times = tuple(np.linspace(1e-4, 1.0, 2000))
    lam1, lam2 = dyson.integrate_dyson_sde(rng, 1.0, times, zeros_pair(500))
    assert lam1.values.shape == (500, 2000)
    assert np.all(lam1.values - lam2.values > 0.0)


def test_sde_accepts_ordered_initial_state():
    rng = np.random.default_rng(80)
    lam1, lam2 = dyson.integrate_dyson_sde(rng, 2.0, (0.5,), initial=EigenPair(2.0, 1.0))
    assert lam1.values[0] > lam2.values[0]


def test_sde_broadcasts_over_initial_state():
    rng = np.random.default_rng(85)
    initial = EigenPair(np.array([2.0, 5.0, 0.0]), np.array([1.0, -5.0, 0.0]))
    lam1, lam2 = dyson.integrate_dyson_sde(rng, 2.0, (1e-12, 0.5), initial)
    assert lam1.values.shape == lam2.values.shape == (3, 2)
    assert np.all(lam1.values > lam2.values)
    # over a step of 1e-12 each path stays at its own start
    np.testing.assert_allclose(lam1.values[:, 0], initial.lambda1, atol=1e-4)
    np.testing.assert_allclose(lam2.values[:, 0], initial.lambda2, atol=1e-4)


def test_sde_rejects_bad_inputs():
    rng = np.random.default_rng(81)
    with pytest.raises(DomainError):
        dyson.integrate_dyson_sde(rng, 0.0, (1.0,))
    with pytest.raises(DomainError):
        dyson.integrate_dyson_sde(rng, 1.0, (2.0, 1.0))
    with pytest.raises(DomainError):
        dyson.integrate_dyson_sde(rng, 1.0, ())
    with pytest.raises(DomainError):
        dyson.integrate_dyson_sde(rng, 1.0, (1.0, np.inf))
    with pytest.raises(DomainError):
        dyson.integrate_dyson_sde(rng, 1.0, ((0.5, 1.0),))


def test_sde_matches_matrix_model_at_unit_time():
    n = 20_000
    lam1, lam2 = dyson.integrate_dyson_sde(
        np.random.default_rng(82), 1.0, (1.0,), zeros_pair(n)
    )
    out = {"sde": (lam1.values[:, 0], lam1.values[:, 0] - lam2.values[:, 0])}
    rng = np.random.default_rng(82)
    cfg = MatrixProcessConfig(1.0, 1.0, (1.0,))
    lam1 = np.empty(n)
    gap = np.empty(n)
    for i in range(n):
        a, b = dyson.eigen_paths(rng, cfg)
        lam1[i] = a.values[0]
        gap[i] = a.values[0] - b.values[0]
    out["mat"] = (lam1, gap)
    for k in (0, 1):
        rep = stattest.ks_two_sample(out["sde"][k], out["mat"][k], alpha=0.001, seed=0)
        assert rep.verdict == "consistent"


def test_sde_gap_is_scaled_bessel_one_plus_delta():
    n = 20_000
    rng = np.random.default_rng(83)
    lam1, lam2 = dyson.integrate_dyson_sde(rng, 1.0, (1.0,), zeros_pair(n))
    gap = lam1.values[:, 0] - lam2.values[:, 0]
    ref = np.sqrt(besq.sample_transitions(rng, BesqParams(2.0), 1.0, np.zeros(n)))
    rep = stattest.ks_two_sample(gap / np.sqrt(2.0), ref, alpha=0.001, seed=0)
    assert rep.verdict == "consistent"


def test_simulation_is_deterministic_per_seed():
    cfg = MatrixProcessConfig(0.5, 1.0, (0.3, 0.9))
    a = dyson.eigen_paths(np.random.default_rng(84), cfg)
    b = dyson.eigen_paths(np.random.default_rng(84), cfg)
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
        "sde_from_21": dyson.integrate_dyson_sde(
            rng(0), 2.0, FROZEN_GRID, initial=EigenPair(2.0, 1.0)
        ),
        "matrix": dyson.eigen_paths(rng(0), MatrixProcessConfig(0.5, 2.0, FROZEN_GRID)),
    }
    for key, (lam1, lam2) in pairs.items():
        got[key + "1"], got[key + "2"] = lam1.values, lam2.values
    want = {
        "besq": FROZEN_BESQ_25_X4,
        "besq0": FROZEN_BESQ_1_X0,
        "bessel": FROZEN_BESSEL_15_X2,
        "sde1": FROZEN_SDE_1[0],
        "sde2": FROZEN_SDE_1[1],
        "sde_from_211": FROZEN_SDE_2_FROM_21[0],
        "sde_from_212": FROZEN_SDE_2_FROM_21[1],
        "matrix1": FROZEN_MATRIX_05_2[0],
        "matrix2": FROZEN_MATRIX_05_2[1],
    }
    for key, values in want.items():
        assert got[key].shape == (4,)
        np.testing.assert_allclose(got[key], values, rtol=1e-13, atol=0.0, err_msg=key)
