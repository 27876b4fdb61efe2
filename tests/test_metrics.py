"""Accuracy, NLL and calibration metrics.

Hand-computed oracle for the two-group case at 10 bins:
five predictions at confidence 0.6 with 3/5 correct fall in bin (0.5, 0.6]
and contribute a zero gap; five at confidence 0.9 with 3/5 correct fall in
bin (0.8, 0.9] and contribute |0.6 - 0.9| = 0.3 at weight 1/2, so
ECE = 0.15 and MCE = 0.3 up to float rounding of the bin means.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdgpc import metrics
from mdgpc.errors import InputError

ECE_TWO_BIN = 0.15000000000000002
MCE_TWO_BIN = 0.30000000000000004
NLL_AT_FLOOR = 27.631021115928547  # -log(1e-12)
LOG_TWO = 0.6931471805599453


def two_bin_case():
    probs = np.array([[0.6, 0.4]] * 5 + [[0.9, 0.1]] * 5)
    y = np.array([0, 0, 0, 1, 1, 0, 0, 0, 1, 1])
    return probs, y


def random_case(seed: int, m: int = 40, c: int = 4):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(c), size=m)
    y = rng.integers(0, c, size=m)
    return probs, y


class TestAccuracyNll:
    def test_accuracy_counts_argmax_matches(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.9, 0.1], [0.4, 0.6]])
        assert metrics.accuracy(probs, np.array([0, 1, 1, 1])) == 0.75

    def test_nll_uniform_binary_is_log_two(self):
        assert metrics.nll(np.array([[0.5, 0.5]]), np.array([0])) == LOG_TWO

    def test_nll_zero_probability_is_floored_finite(self):
        val = metrics.nll(np.array([[1.0, 0.0]]), np.array([1]))
        assert val == NLL_AT_FLOOR
        assert np.isfinite(val)


class TestReliabilityTable:
    def test_two_bin_oracle(self):
        probs, y = two_bin_case()
        assert metrics.ece(probs, y, bins=10) == ECE_TWO_BIN
        assert metrics.mce(probs, y, bins=10) == MCE_TWO_BIN

    def test_two_bin_table_contents(self):
        probs, y = two_bin_case()
        t = metrics.reliability_table(probs, y, bins=10)
        np.testing.assert_array_equal(t.count, [0, 0, 0, 0, 0, 5, 0, 0, 5, 0])
        assert t.total == 10
        assert t.accuracy[5] == 0.6 and t.accuracy[8] == 0.6
        np.testing.assert_allclose(t.confidence[[5, 8]], [0.6, 0.9], atol=1e-12)
        np.testing.assert_allclose(t.lower, np.arange(10) / 10, atol=1e-15)
        np.testing.assert_allclose(t.upper, np.arange(1, 11) / 10, atol=1e-15)

    def test_perfectly_calibrated_group_scores_zero(self):
        # confidence 0.75 is dyadic, so a 3/4 hit rate gives an exact zero
        probs = np.array([[0.75, 0.25]] * 4)
        y = np.array([0, 0, 0, 1])
        assert metrics.ece(probs, y, bins=10) == 0.0
        assert metrics.mce(probs, y, bins=10) == 0.0

    def test_bin_assignment_boundaries(self):
        # bins cover ((b-1)/B, b/B]: a confidence equal to an upper edge
        # stays in that bin, and 1.0 lands in the last bin
        for conf, bin_idx in [(0.5, 4), (0.6, 5), (1.0, 9)]:
            t = metrics.reliability_table(
                np.array([[conf, 1.0 - conf]]), np.array([0]), bins=10
            )
            assert t.count[bin_idx] == 1, conf
        # lowest reachable confidence 1/C sits at the upper edge of bin 1
        t = metrics.reliability_table(np.full((1, 10), 0.1), np.array([0]), bins=10)
        assert t.count[0] == 1

    def test_single_prediction_occupies_one_bin(self):
        t = metrics.reliability_table(np.array([[0.55, 0.45]]), np.array([0]), bins=15)
        assert t.total == 1
        assert np.sum(t.count > 0) == 1

    def test_lone_prediction_sets_mce(self):
        # 16 calibrated predictions at confidence 0.3125 with 5 hits fill bin
        # 5 of 15; one correct prediction alone in bin 6 sets the MCE by
        # itself. At a confidence 0.01 lower it joins bin 5, and the MCE
        # falls to the ECE, which barely moves.
        group = [[0.3125, 0.3125, 0.25, 0.125]] * 16
        y = np.array([0] * 5 + [1] * 11 + [0])
        alone = np.array(group + [[0.34, 0.22, 0.22, 0.22]])
        joined = np.array(group + [[0.33, 0.23, 0.22, 0.22]])
        assert list(metrics.reliability_table(alone, y).count[4:6]) == [16, 1]
        assert metrics.mce(alone, y) == pytest.approx(0.66, abs=1e-12)
        assert metrics.ece(alone, y) == pytest.approx(0.66 / 17, abs=1e-12)
        assert list(metrics.reliability_table(joined, y).count[4:6]) == [17, 0]
        assert metrics.mce(joined, y) == pytest.approx(0.67 / 17, abs=1e-12)
        assert metrics.ece(joined, y) == pytest.approx(0.67 / 17, abs=1e-12)

    def test_counts_sum_to_m_and_table_matches_ece(self):
        probs, y = random_case(0)
        t = metrics.reliability_table(probs, y, bins=15)
        assert t.total == probs.shape[0]
        manual = np.sum(t.count / t.total * np.abs(t.accuracy - t.confidence))
        assert metrics.ece(probs, y, bins=15) == pytest.approx(manual, abs=1e-12)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_ece_below_mce_below_one(self, seed):
        probs, y = random_case(seed, m=30, c=3)
        e = metrics.ece(probs, y, bins=12)
        m = metrics.mce(probs, y, bins=12)
        assert -1e-12 <= e <= m + 1e-12 <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_permutation_invariance(self, seed):
        probs, y = random_case(seed, m=25, c=4)
        rng = np.random.default_rng(seed + 1)
        perm = rng.permutation(probs.shape[0])
        assert metrics.ece(probs[perm], y[perm]) == pytest.approx(
            metrics.ece(probs, y), abs=1e-12
        )
        assert metrics.accuracy(probs[perm], y[perm]) == metrics.accuracy(probs, y)
        assert metrics.nll(probs[perm], y[perm]) == pytest.approx(
            metrics.nll(probs, y), abs=1e-12
        )


class TestValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(InputError, match="nonnegative and sum to 1"):
            metrics.accuracy(np.array([[0.5, 0.4]]), np.array([0]))

    @pytest.mark.parametrize(
        "entry",
        [metrics.accuracy, metrics.nll, metrics.ece, metrics.mce, metrics.reliability_table],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0]], ids=["nan-nan", "nan-one"])
    def test_nan_probability_rejected(self, entry, row):
        # NaN compares false with everything, so the sum check must be
        # written to fail on it; else a NaN row counts as a class-0 prediction
        with pytest.raises(InputError, match="nonnegative and sum to 1"):
            entry(np.array([row, [0.5, 0.5]]), np.array([0, 1]))

    def test_negative_probability_rejected(self):
        with pytest.raises(InputError, match="nonnegative and sum to 1"):
            metrics.accuracy(np.array([[-0.1, 1.1]]), np.array([0]))

    def test_empty_input(self):
        with pytest.raises(InputError, match="no predictions"):
            metrics.accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_label_out_of_range(self):
        with pytest.raises(InputError, match="true label outside"):
            metrics.nll(np.array([[0.5, 0.5]]), np.array([2]))

    def test_shape_mismatches(self):
        with pytest.raises(InputError, match="probs must be"):
            metrics.accuracy(np.array([0.5, 0.5]), np.array([0]))
        with pytest.raises(InputError, match="y_true shape"):
            metrics.accuracy(np.array([[0.5, 0.5]]), np.array([0, 1]))

    def test_bad_bin_count(self):
        with pytest.raises(InputError, match="bins must be >= 1"):
            metrics.reliability_table(np.array([[0.5, 0.5]]), np.array([0]), bins=0)
