"""Feature extractor and base-kernel Grams with hand-derived backward passes."""

import numpy as np
import pytest

from mdgpc import kernels
from mdgpc.errors import InputError
from mdgpc.expfam import spd_cholesky
from mdgpc.kernels import (
    BaseKernelConfig,
    cross_gram,
    extract,
    extractor_backward,
    gram,
    gram_backward,
    gram_diag,
    init_extractor,
    softplus,
    softplus_inv,
)

ALL_KINDS = ["COS", "RBF", "POL1", "POL2"]


def base_for(kind: str) -> BaseKernelConfig:
    return BaseKernelConfig(
        kind,
        length_scale_raw=float(softplus_inv(1.5)),
        offset_raw=float(softplus_inv(0.7)),
        output_scale_raw=float(softplus_inv(2.0)),
    )


class TestSoftplus:
    def test_roundtrip(self):
        for y in (1e-6, 0.1, 1.0, 5.0, 50.0):
            assert softplus(softplus_inv(y)) == pytest.approx(y, rel=1e-10)

    def test_large_input_linear(self):
        assert softplus(600.0) == pytest.approx(600.0, rel=1e-12)


class TestExtractor:
    def test_init_deterministic(self):
        a = init_extractor([4, 8, 3], seed=5)
        b = init_extractor([4, 8, 3], seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert all(np.all(bb == 0.0) for bb in a.biases)

    def test_shapes(self):
        fe = init_extractor([4, 8, 3], seed=0)
        Z, cache = extract(fe, np.random.default_rng(0).standard_normal((6, 4)))
        assert Z.shape == (6, 3)
        assert cache.acts[-1].shape == (6, 3)

    def test_empty_input(self):
        fe = init_extractor([4, 8, 3], seed=0)
        with pytest.raises(InputError, match="no rows"):
            extract(fe, np.empty((0, 4)))

    def test_dim_mismatch(self):
        fe = init_extractor([4, 8, 3], seed=0)
        with pytest.raises(InputError, match="input dim 5"):
            extract(fe, np.zeros((3, 5)))

    def test_stale_cache(self):
        fe = init_extractor([4, 8, 3], seed=0)
        other = init_extractor([4, 6, 3], seed=0)
        _, cache = extract(other, np.zeros((2, 4)))
        with pytest.raises(InputError, match="cache built for dims"):
            extractor_backward(fe, cache, np.zeros((2, 3)))

    def test_backward_fd(self):
        rng = np.random.default_rng(3)
        fe = init_extractor([3, 5, 2], seed=7)
        X = rng.standard_normal((4, 3))
        dZ = rng.standard_normal((4, 2))

        def objective(f):
            Z, _ = extract(f, X)
            return float(np.sum(Z * dZ))

        Z, cache = extract(fe, X)
        dW, db = extractor_backward(fe, cache, dZ)
        h = 1e-6
        for li in range(len(fe.weights)):
            for arr, grads in ((fe.weights, dW), (fe.biases, db)):
                flat = arr[li].reshape(-1)
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + h
                    up = objective(fe)
                    flat[j] = orig - h
                    dn = objective(fe)
                    flat[j] = orig
                    fd = (up - dn) / (2 * h)
                    assert fd == pytest.approx(
                        grads[li].reshape(-1)[j], rel=1e-5, abs=1e-7
                    )


class TestGramForward:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_symmetric_psd(self, kind):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((6, 3))
        res = gram(base_for(kind), Z)
        np.testing.assert_allclose(res.K, res.K.T, atol=1e-12)
        w = np.linalg.eigvalsh(res.K)
        assert np.all(w > -1e-8)

    def test_cos_unit_diagonal_times_scale(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((5, 4))
        base = base_for("COS")
        res = gram(base, Z)
        np.testing.assert_allclose(np.diag(res.K), base.output_scale, atol=1e-10)

    def test_rbf_closed_form(self):
        base = base_for("RBF")
        Z = np.array([[0.0], [3.0]])
        res = gram(base, Z)
        s, l = base.output_scale, base.length_scale
        expect = s * np.exp(-9.0 / (2 * l * l))
        assert res.K[0, 1] == pytest.approx(expect, rel=1e-12)
        assert res.K[0, 0] == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("kind,deg", [("POL1", 1), ("POL2", 2)])
    def test_pol_closed_form(self, kind, deg):
        base = base_for(kind)
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4, 3))
        res = gram(base, Z)
        expect = base.output_scale * (Z @ Z.T + base.offset) ** deg
        np.testing.assert_allclose(res.K, expect, atol=1e-10)

    @pytest.mark.parametrize("kind", ["RBF", "POL1", "POL2"])
    def test_permutation_consistency(self, kind):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        K1 = gram(base_for(kind), Z).K
        K2 = gram(base_for(kind), Z[perm]).K
        np.testing.assert_allclose(K2, K1[np.ix_(perm, perm)], atol=1e-12)

    def test_rank_deficient_jitter_recorded(self):
        # COS of more points than feature dims is rank deficient
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((6, 2))
        res = gram(base_for("COS"), Z)
        _, jitter = spd_cholesky(res.K)
        assert jitter > 0.0
        assert np.array_equal(res.k_eff, res.K + jitter * np.eye(6))

    @pytest.mark.parametrize("kind", ["COS", "RBF"])
    def test_cached_prior_is_refactored_prior(self, kind):
        # COS on 6 points in 2 dims takes jitter; the cache must still equal a
        # fresh factor of K + jitter I, bit for bit
        res = gram(base_for(kind), np.random.default_rng(5).standard_normal((6, 2)))
        _, ladder_jitter = spd_cholesky(res.K)
        assert (res.k_eff is res.K) == (ladder_jitter == 0.0)
        assert np.array_equal(res.k_eff, res.K + ladder_jitter * np.eye(6))
        L, jitter = spd_cholesky(res.k_eff)
        assert jitter == 0.0 and np.array_equal(L, res.chol)

    def test_cached_prior_is_read_only(self):
        res = gram(base_for("RBF"), np.random.default_rng(5).standard_normal((4, 2)))
        for arr in (res.K, res.chol, res.k_eff):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["RBF", "POL1", "POL2"])
    def test_cross_gram_matches_gram(self, kind):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((5, 3))
        res = gram(base_for(kind), Z)
        cross = cross_gram(base_for(kind), Z, Z)
        np.testing.assert_allclose(cross, res.K, atol=1e-10)

    def test_cos_cross_gram_uses_support_center(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((5, 3))
        res = gram(base_for("COS"), Z)
        cross = cross_gram(base_for("COS"), Z, Z, center=res.center)
        np.testing.assert_allclose(cross, res.K, atol=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gram_diag_matches(self, kind):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((5, 3))
        res = gram(base_for(kind), Z)
        np.testing.assert_allclose(gram_diag(base_for(kind), Z), np.diag(res.K), atol=1e-10)


class TestGramBackward:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fd_wrt_features(self, kind):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((5, 3))
        dK = rng.standard_normal((5, 5))
        dK = 0.5 * (dK + dK.T)
        base = base_for(kind)
        res = gram(base, Z)
        dZ, _ = gram_backward(base, Z, res, dK)
        h = 1e-6
        for i in range(Z.shape[0]):
            for j in range(Z.shape[1]):
                up, dn = Z.copy(), Z.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd = (
                    np.sum(gram(base, up).K * dK) - np.sum(gram(base, dn).K * dK)
                ) / (2 * h)
                assert fd == pytest.approx(dZ[i, j], rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fd_wrt_raw_params(self, kind):
        rng = np.random.default_rng(10)
        Z = rng.standard_normal((5, 3))
        dK = rng.standard_normal((5, 5))
        dK = 0.5 * (dK + dK.T)
        base = base_for(kind)
        res = gram(base, Z)
        _, draws = gram_backward(base, Z, res, dK)
        h = 1e-6
        for name in base.raw_names():
            kwargs = {
                "length_scale_raw": base.length_scale_raw,
                "offset_raw": base.offset_raw,
                "output_scale_raw": base.output_scale_raw,
            }
            up_kwargs = dict(kwargs, **{name: kwargs[name] + h})
            dn_kwargs = dict(kwargs, **{name: kwargs[name] - h})
            fd = (
                np.sum(gram(BaseKernelConfig(kind, **up_kwargs), Z).K * dK)
                - np.sum(gram(BaseKernelConfig(kind, **dn_kwargs), Z).K * dK)
            ) / (2 * h)
            assert fd == pytest.approx(draws[name], rel=1e-5, abs=1e-7)


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown kernel kind"):
            BaseKernelConfig("MATERN")

    def test_raw_names_per_kind(self):
        assert base_for("COS").raw_names() == ["output_scale_raw"]
        assert base_for("RBF").raw_names() == ["length_scale_raw", "output_scale_raw"]
        assert base_for("POL2").raw_names() == ["offset_raw", "output_scale_raw"]

    def test_degree(self):
        assert base_for("POL1").degree == 1
        assert base_for("POL2").degree == 2
