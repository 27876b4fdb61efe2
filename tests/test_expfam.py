"""The SPD kernels of mdgpc.expfam, the Cholesky solve of mdgpc.verify and
the exponential-family algebra that mdgpc.verify builds on them:
conversions, potentials, duality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgpc import verify
from mdgpc.errors import InputError, NumericalError
from mdgpc.expfam import gaussian_kl, spd_cholesky
from mdgpc.verify import (
    bregman_h,
    chol_solve,
    coords_to_natural,
    log_partition,
    mean_to_dual_coords,
    moments_to_mean,
    moments_to_natural,
    natural_to_coords,
    natural_to_moments,
    neg_entropy,
    pairing,
    sym_coord_count,
)
from oracles import dual_coords_to_mean, moments_kl, scipy_chol_solve, scipy_gaussian_kl
from oracles import scipy_spd_cholesky

HALF_LOG_2PI = 0.9189385332046727
NEG_HALF_LOG_2PIE = -1.4189385332046727
KL_STD_VS_VAR4 = 0.3181471805599453  # 0.5 * (1/4 - 1 + log 4)


def random_moments(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    return verify.random_moments(np.random.default_rng(seed), n)


class TestConversions:
    @pytest.mark.parametrize("seed,n", [(0, 1), (1, 2), (2, 4), (3, 7)])
    def test_moments_natural_roundtrip(self, seed, n):
        m, Sigma = random_moments(seed, n)
        m_back, Sigma_back = natural_to_moments(*moments_to_natural(m, Sigma))
        np.testing.assert_allclose(m_back, m, atol=1e-8)
        np.testing.assert_allclose(Sigma_back, Sigma, atol=1e-8)

    @pytest.mark.parametrize("seed,n", [(4, 2), (5, 3)])
    def test_natural_moments_roundtrip(self, seed, n):
        theta1, Theta2 = moments_to_natural(*random_moments(seed, n))
        theta1_back, Theta2_back = moments_to_natural(*natural_to_moments(theta1, Theta2))
        np.testing.assert_allclose(theta1_back, theta1, atol=1e-8)
        np.testing.assert_allclose(Theta2_back, Theta2, atol=1e-8)

    @pytest.mark.parametrize("seed,n", [(6, 3), (7, 5)])
    def test_mean_moments_roundtrip(self, seed, n):
        m, Sigma = random_moments(seed, n)
        mu1, Mu2 = moments_to_mean(m, Sigma)
        np.testing.assert_allclose(mu1, m, atol=1e-10)
        np.testing.assert_allclose(Mu2 - np.outer(mu1, mu1), Sigma, atol=1e-10)

    def test_coords_roundtrip(self):
        theta1, Theta2 = moments_to_natural(*random_moments(8, 4))
        theta1_back, Theta2_back = coords_to_natural(natural_to_coords(theta1, Theta2), 4)
        np.testing.assert_allclose(theta1_back, theta1, atol=0)
        np.testing.assert_allclose(Theta2_back, Theta2, atol=0)

    def test_sym_coord_count(self):
        assert sym_coord_count(1) == 2
        assert sym_coord_count(3) == 9
        assert natural_to_coords(*moments_to_natural(*random_moments(9, 3))).shape == (9,)


class TestPotentials:
    def test_log_partition_standard_normal(self):
        value = log_partition(np.zeros(1), -0.5 * np.eye(1))
        assert value == pytest.approx(HALF_LOG_2PI, abs=1e-12)

    def test_neg_entropy_standard_normal(self):
        mu = moments_to_mean(np.zeros(1), np.eye(1))
        assert neg_entropy(*mu) == pytest.approx(NEG_HALF_LOG_2PIE, abs=1e-12)

    @pytest.mark.parametrize("seed,n", [(10, 1), (11, 2), (12, 4)])
    def test_fenchel_equality(self, seed, n):
        mom = random_moments(seed, n)
        nat, mu = moments_to_natural(*mom), moments_to_mean(*mom)
        gap = log_partition(*nat) + neg_entropy(*mu) - pairing(*nat, *mu)
        assert abs(gap) < 1e-8

    @pytest.mark.parametrize("seed,n", [(13, 2), (14, 3)])
    def test_pairing_matches_coords(self, seed, n):
        # the doubling convention makes the euclidean dot in minimal
        # coordinates equal the trace pairing
        mom = random_moments(seed, n)
        nat, mu = moments_to_natural(*mom), moments_to_mean(*mom)
        dot = float(np.dot(natural_to_coords(*nat), mean_to_dual_coords(*mu)))
        assert dot == pytest.approx(pairing(*nat, *mu), rel=1e-12)

    @pytest.mark.parametrize("seed,n", [(15, 2), (16, 3)])
    def test_log_partition_grad_fd(self, seed, n):
        mom = random_moments(seed, n)
        coords = natural_to_coords(*moments_to_natural(*mom))
        fd = np.empty_like(coords)
        for j in range(coords.shape[0]):
            h = 1e-5 * max(1.0, abs(coords[j]))
            up, dn = coords.copy(), coords.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                log_partition(*coords_to_natural(up, n))
                - log_partition(*coords_to_natural(dn, n))
            ) / (2 * h)
        exact = mean_to_dual_coords(*moments_to_mean(*mom))
        np.testing.assert_allclose(fd, exact, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("seed,n", [(17, 2), (18, 3)])
    def test_neg_entropy_grad_fd(self, seed, n):
        mom = random_moments(seed, n)
        t = mean_to_dual_coords(*moments_to_mean(*mom))
        fd = np.empty_like(t)
        for j in range(t.shape[0]):
            h = 1e-5 * max(1.0, abs(t[j]))
            up, dn = t.copy(), t.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                neg_entropy(*dual_coords_to_mean(up, n))
                - neg_entropy(*dual_coords_to_mean(dn, n))
            ) / (2 * h)
        exact = natural_to_coords(*moments_to_natural(*mom))
        np.testing.assert_allclose(fd, exact, rtol=1e-4, atol=1e-4)


class TestDivergences:
    def test_kl_self_is_zero(self):
        mom = random_moments(20, 3)
        assert moments_kl(mom, mom) == pytest.approx(0.0, abs=1e-12)

    def test_kl_frozen_value(self):
        q = (np.zeros(1), np.eye(1))
        p = (np.zeros(1), 4.0 * np.eye(1))
        assert moments_kl(q, p) == pytest.approx(KL_STD_VS_VAR4, abs=1e-12)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_bregman_equals_kl(self, seed):
        q = random_moments(seed, 3)
        p = random_moments(seed + 100, 3)
        breg = bregman_h(*moments_to_mean(*q), *moments_to_mean(*p))
        assert breg == pytest.approx(moments_kl(q, p), abs=1e-8)

    def test_kl_dimension_mismatch_rejected(self):
        m_q, S_q = random_moments(24, 3)
        with pytest.raises(InputError, match="dimension mismatch"):
            gaussian_kl(m_q, S_q, np.eye(2))
        with pytest.raises(InputError, match="dimension mismatch"):
            gaussian_kl(m_q, np.eye(2), np.eye(3))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_kl_nonnegative(self, seed):
        q = random_moments(seed, 2)
        p = random_moments(seed + 1, 2)
        assert moments_kl(q, p) >= -1e-10


class TestSpdCholesky:
    def test_identity_no_jitter(self):
        L, jitter = spd_cholesky(np.eye(3))
        assert jitter == 0.0
        np.testing.assert_allclose(L, np.eye(3))

    def test_rank_deficient_gets_jitter(self):
        u = np.array([1.0, 1.0, 1.0])
        L, jitter = spd_cholesky(np.outer(u, u))
        assert jitter > 0.0
        np.testing.assert_allclose(L @ L.T, np.outer(u, u) + jitter * np.eye(3), atol=1e-10)

    def test_indefinite_raises(self):
        with pytest.raises(NumericalError, match="jitter ladder exhausted"):
            spd_cholesky(np.diag([1.0, -5.0]))

    def test_non_finite_raises(self):
        with pytest.raises(NumericalError, match="non-finite entries"):
            spd_cholesky(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(NumericalError, match="non-finite entries"):
            chol_solve(np.eye(2), np.array([np.nan, 1.0]))
        q = (np.array([np.nan, 0.0]), np.eye(2))
        with pytest.raises(NumericalError, match="non-finite entries"):
            moments_kl(q, (np.zeros(2), np.eye(2)))

    def test_singular_factor_raises(self):
        # a factor whose diagonal underflowed to 0 is a numerical failure
        with pytest.raises(NumericalError, match="singular"):
            chol_solve(np.diag([1.0, 0.0]), np.ones(2))


def spd_matrix(seed: int, n: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def max_rel(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestLapackPath:
    """The numpy kernels against their scipy.linalg forms, within rounding.
    The bounds are 10x the worst deviation measured over these cases, each
    relative to the largest entry of the scipy result: 2.3e-13 for the
    factor (the rank-one matrix at n = 25, jittered), 1.0e-15 for the solve
    and 4.2e-16 for the KL."""

    @pytest.mark.parametrize("n", [1, 2, 25])
    def test_factor_and_solve_match_scipy(self, n):
        rng = np.random.default_rng(n)
        u = rng.standard_normal(n)
        rank_one = np.outer(u, u)
        assert n == 1 or spd_cholesky(rank_one)[1] > 0.0  # climbs the jitter ladder
        for a in (spd_matrix(n, n), rank_one):
            L, jitter = spd_cholesky(a)
            L_ref, jitter_ref = scipy_spd_cholesky(a)
            assert jitter == jitter_ref
            assert max_rel(L, L_ref) <= 2.3e-12
            for b in (rng.standard_normal(n), rng.standard_normal((n, 3)), np.eye(n)):
                assert max_rel(chol_solve(L, b), scipy_chol_solve(L, b)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 25])
    def test_kl_matches_scipy(self, n):
        rng = np.random.default_rng(n + 50)
        q = (rng.standard_normal(n), spd_matrix(n + 1, n))
        p = (rng.standard_normal(n), spd_matrix(n + 2, n))
        Lp_inv = np.linalg.inv(spd_cholesky(p[1])[0])
        Lq, _ = spd_cholesky(q[1])
        assert gaussian_kl(q[0] - p[0], Lq, Lp_inv) == pytest.approx(
            scipy_gaussian_kl(q, p), rel=4.2e-15
        )
        prior = (np.zeros(n), p[1])
        assert gaussian_kl(q[0], Lq, Lp_inv) == pytest.approx(
            scipy_gaussian_kl(q, prior), rel=4.2e-15
        )

    def test_stacked_calls_match_per_matrix_calls(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(6)
        stack = np.stack([spd_matrix(1, 6), np.outer(u, u), spd_matrix(2, 6)])
        singles = [spd_cholesky(a) for a in stack]
        assert [j > 0.0 for _, j in singles] == [False, True, False]  # one slice needs jitter
        L, jitter = spd_cholesky(stack)
        assert jitter == singles[1][1]
        assert all(np.array_equal(L[i], L_i) for i, (L_i, _) in enumerate(singles))
        for b in (rng.standard_normal((3, 6)), rng.standard_normal((3, 6, 2))):
            x = chol_solve(L, b)
            assert x.shape == b.shape
            assert all(np.array_equal(x[i], chol_solve(L[i], b[i])) for i in range(3))

    def test_only_the_failing_slice_is_jittered(self):
        # the stacked factorization fails, so the ladder runs slice by slice:
        # the definite slices keep their jitter-0 factors, and the jitter
        # returned is the one the rank-one slice needs on its own
        u = np.random.default_rng(10).standard_normal(6)
        stack = np.stack([spd_matrix(3, 6), spd_matrix(4, 6), np.outer(u, u)])
        L, jitter = spd_cholesky(stack)
        assert jitter > 0.0 and jitter == spd_cholesky(stack[2])[1]
        for i in (0, 1):
            assert np.array_equal(L[i], np.linalg.cholesky(stack[i]))
        assert np.array_equal(L[2], np.linalg.cholesky(stack[2] + jitter * np.eye(6)))

    def test_stacked_kl_matches_per_gaussian_calls(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 6))
        Lq, _ = spd_cholesky(np.stack([spd_matrix(5 + i, 6) for i in range(3)]))
        Lp_inv = np.linalg.inv(spd_cholesky(np.stack([spd_matrix(8 + i, 6) for i in range(3)]))[0])
        kl = gaussian_kl(m, Lq, Lp_inv)
        assert kl.shape == (3,)
        assert all(kl[i] == gaussian_kl(m[i], Lq[i], Lp_inv[i]) for i in range(3))

    def test_stacked_calls_reject_bad_input(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -5.0])])
        with pytest.raises(NumericalError, match="jitter ladder exhausted"):
            spd_cholesky(stack)
        stack[0, 0, 1] = np.nan
        with pytest.raises(NumericalError, match="non-finite entries"):
            spd_cholesky(stack)
        with pytest.raises(InputError, match="right-hand side"):
            chol_solve(np.stack([np.eye(2)] * 3), np.ones((2, 2)))
