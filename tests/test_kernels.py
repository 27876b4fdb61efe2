"""Feature extractor and stacked base-kernel Grams with hand-derived backward
passes."""

from dataclasses import replace

import numpy as np
import pytest
from oracles import OneKernel, one_cross_gram, one_gram, one_gram_backward, one_gram_diag

from mdgpc import kernels
from mdgpc.errors import InputError
from mdgpc.expfam import spd_cholesky
from mdgpc.kernels import (
    BaseKernels,
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


def base_for(kind: str, n_classes: int = 1) -> BaseKernels:
    return BaseKernels.at_scales(kind, n_classes, length_scale=1.5, offset=0.7, output_scale=2.0)


def spread_base(kind: str, n_classes: int, seed: int) -> BaseKernels:
    """n_classes kernels of one kind, each class at its own scales near 1."""
    raws = np.random.default_rng(seed).uniform(-0.5, 1.5, (3, n_classes))
    return BaseKernels(kind, *raws)


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
        np.testing.assert_allclose(res.K, res.K.swapaxes(1, 2), atol=1e-12)
        w = np.linalg.eigvalsh(res.K)
        assert np.all(w > -1e-8)

    def test_cos_unit_diagonal_times_scale(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((5, 4))
        base = base_for("COS")
        res = gram(base, Z)
        np.testing.assert_allclose(np.diagonal(res.K, axis1=1, axis2=2), base.output_scale[0], atol=1e-10)

    def test_rbf_closed_form(self):
        base = base_for("RBF")
        Z = np.array([[0.0], [3.0]])
        res = gram(base, Z)
        s, l = base.output_scale[0], base.length_scale[0]
        expect = s * np.exp(-9.0 / (2 * l * l))
        assert res.K[0, 0, 1] == pytest.approx(expect, rel=1e-12)
        assert res.K[0, 0, 0] == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("kind,deg", [("POL1", 1), ("POL2", 2)])
    def test_pol_closed_form(self, kind, deg):
        base = base_for(kind)
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4, 3))
        res = gram(base, Z)
        expect = base.output_scale[0] * (Z @ Z.T + base.offset[0]) ** deg
        np.testing.assert_allclose(res.K[0], expect, atol=1e-10)

    @pytest.mark.parametrize("kind", ["RBF", "POL1", "POL2"])
    def test_permutation_consistency(self, kind):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((6, 3))
        perm = rng.permutation(6)
        K1 = gram(base_for(kind), Z).K[0]
        K2 = gram(base_for(kind), Z[perm]).K[0]
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
                arr[0, 0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["RBF", "POL1", "POL2"])
    def test_cross_gram_matches_gram(self, kind):
        rng = np.random.default_rng(6)
        Z = rng.standard_normal((5, 3))
        res = gram(base_for(kind), Z)
        cross = cross_gram(base_for(kind), Z, Z)
        np.testing.assert_allclose(cross, res.K, atol=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n_classes,n", [(5, 25), (10, 100)])
    def test_gram_is_symmetrized_cross_gram(self, kind, n_classes, n):
        # one formula per kind: the support's Gram is its cross_gram with
        # itself, symmetrized, bit for bit
        Z = np.random.default_rng(n).standard_normal((n, 16))
        base = spread_base(kind, n_classes, seed=n_classes)
        center = Z.mean(axis=0) if kind == "COS" else None
        X = cross_gram(base, Z, Z, center)
        assert np.array_equal(gram(base, Z).K, 0.5 * (X + X.swapaxes(1, 2)))

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
        np.testing.assert_allclose(
            gram_diag(base_for(kind), Z), np.diagonal(res.K, axis1=1, axis2=2), atol=1e-10
        )


class TestStackedMatchesOneClass:
    """Each class's slice of the stacked results equals the one-class
    formulas of `oracles` bit for bit, jitter included, and the stacked
    backward pass equals the classes' terms summed in class order."""

    @staticmethod
    def check(base: BaseKernels, Z: np.ndarray, seed: int):
        rng = np.random.default_rng(seed)
        n_classes, n = base.n_classes, Z.shape[0]
        Zq = rng.standard_normal((7, Z.shape[1]))
        dK = rng.standard_normal((n_classes, n, n))
        res = gram(base, Z)
        dZ, raw_grads = gram_backward(base, Z, res, dK)
        cross = cross_gram(base, Zq, Z, center=res.center)
        diag = gram_diag(base, Zq)
        dZ_sum = np.zeros_like(Z)
        for c in range(n_classes):
            one = OneKernel.of(base, c)
            want = one_gram(one, Z)
            for name in ("K", "k_eff", "chol"):
                assert np.array_equal(getattr(res, name)[c], getattr(want, name)), (c, name)
            if base.kind == "COS":
                assert np.array_equal(res.center, want.center)
            assert np.array_equal(cross[c], one_cross_gram(one, Zq, Z, center=want.center))
            assert np.array_equal(diag[c], one_gram_diag(one, Zq))
            dZ_c, grads_c = one_gram_backward(one, Z, want, dK[c])
            dZ_sum += dZ_c
            assert sorted(raw_grads) == sorted(grads_c)
            for name, value in grads_c.items():
                assert raw_grads[name][c] == value, (c, name)
        assert np.array_equal(dZ, dZ_sum)
        return res

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n_classes,n", [(5, 25), (10, 100)])
    def test_every_kind(self, kind, n_classes, n):
        Z = np.random.default_rng(n).standard_normal((n, 16))
        res = self.check(spread_base(kind, n_classes, seed=n_classes), Z, seed=n + n_classes)
        # rank at most 16 (COS) or 17 (POL1) of N >= 25: every slice is jittered
        assert (res.k_eff is res.K) == (kind not in ("COS", "POL1"))

    def test_only_some_slices_take_jitter(self):
        # on 25 points in 2 dims, length scale 50 makes a near-constant,
        # singular Gram and 0.5 a well-conditioned one. Only the first kind of
        # slice is jittered, and the others keep K itself
        lengths = np.array([0.5, 50.0, 0.5, 50.0])
        base = BaseKernels("RBF", softplus_inv(lengths), np.zeros(4), softplus_inv(np.full(4, 2.0)))
        Z = np.random.default_rng(11).standard_normal((25, 2))
        res = self.check(base, Z, seed=12)
        jitters = [spd_cholesky(K)[1] for K in res.K]
        assert [j > 0.0 for j in jitters] == [False, True, False, True]
        for c, j in enumerate(jitters):
            assert np.array_equal(res.k_eff[c], res.K[c] + j * np.eye(25))


class TestGramBackward:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fd_wrt_features(self, kind):
        rng = np.random.default_rng(9)
        Z = rng.standard_normal((5, 3))
        dK = rng.standard_normal((2, 5, 5))
        dK = 0.5 * (dK + dK.swapaxes(1, 2))
        base = spread_base(kind, 2, seed=9)
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
        dK = rng.standard_normal((2, 5, 5))
        dK = 0.5 * (dK + dK.swapaxes(1, 2))
        base = spread_base(kind, 2, seed=10)
        res = gram(base, Z)
        _, draws = gram_backward(base, Z, res, dK)
        h = 1e-6
        for name in base.raw_names():
            for c in range(base.n_classes):
                up, dn = getattr(base, name).copy(), getattr(base, name).copy()
                up[c] += h
                dn[c] -= h
                fd = (
                    np.sum(gram(replace(base, **{name: up}), Z).K * dK)
                    - np.sum(gram(replace(base, **{name: dn}), Z).K * dK)
                ) / (2 * h)
                assert fd == pytest.approx(draws[name][c], rel=1e-5, abs=1e-7)


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown kernel kind"):
            BaseKernels.at_scales("MATERN", 2)

    def test_raws_are_float_vectors_of_one_class_or_more(self):
        with pytest.raises(InputError, match="need at least one class"):
            BaseKernels.at_scales("RBF", 0)
        base = BaseKernels("RBF", [0.0, 1.0], [0.0, 0.0], [2.0, 3.0])
        assert base.n_classes == 2 and base.output_scale_raw.dtype == float

    def test_raw_names_per_kind(self):
        assert base_for("COS").raw_names() == ["output_scale_raw"]
        assert base_for("RBF").raw_names() == ["length_scale_raw", "output_scale_raw"]
        assert base_for("POL2").raw_names() == ["offset_raw", "output_scale_raw"]

    def test_degree(self):
        assert base_for("POL1").degree == 1
        assert base_for("POL2").degree == 2
