"""Synthetic episode generation and CSV-backed episodic sampling."""

import numpy as np
import pytest

from mdgpc import tasks
from mdgpc.errors import InputError
from mdgpc.tasks import TaskGenConfig


class TestGenEpisode:
    def test_shapes_and_class_major_layout(self):
        cfg = TaskGenConfig(n_classes=4, shots=3, queries=2, dim=6)
        ep = tasks.gen_episode(cfg, seed=0)
        assert ep.support_x.shape == (12, 6)
        assert ep.support_y.shape == (12, 4)
        assert ep.query_x.shape == (8, 6)
        assert ep.query_y.shape == (8, 4)
        np.testing.assert_array_equal(
            np.argmax(ep.support_y, axis=1), np.repeat(np.arange(4), 3)
        )
        np.testing.assert_array_equal(
            np.argmax(ep.query_y, axis=1), np.repeat(np.arange(4), 2)
        )
        assert np.all(ep.support_y.sum(axis=1) == 1.0)

    def test_deterministic_in_seed(self):
        cfg = TaskGenConfig()
        a = tasks.gen_episode(cfg, seed=7)
        b = tasks.gen_episode(cfg, seed=7)
        c = tasks.gen_episode(cfg, seed=8)
        np.testing.assert_array_equal(a.support_x, b.support_x)
        np.testing.assert_array_equal(a.query_x, b.query_x)
        assert not np.array_equal(a.support_x, c.support_x)

    def test_classes_cluster_around_prototypes(self):
        cfg = TaskGenConfig(
            n_classes=3, shots=8, queries=1, dim=5, prototype_scale=5.0, within_scale=0.1
        )
        ep = tasks.gen_episode(cfg, seed=3)
        blocks = [ep.support_x[i * 8 : (i + 1) * 8] for i in range(3)]
        for i, blk in enumerate(blocks):
            spread = np.linalg.norm(blk - blk.mean(axis=0), axis=1).max()
            for j, other in enumerate(blocks):
                if i != j:
                    gap = np.linalg.norm(blk.mean(axis=0) - other.mean(axis=0))
                    assert spread < gap

    def test_domain_shift_scales_norms(self):
        cfg = TaskGenConfig(n_classes=3, shots=2, queries=2, dim=6)
        shifted_cfg = TaskGenConfig(
            n_classes=3, shots=2, queries=2, dim=6, domain_shift=(37.0, 2.5)
        )
        plain = tasks.gen_episode(cfg, seed=4)
        shifted = tasks.gen_episode(shifted_cfg, seed=4)
        # rotation preserves norms, the scale multiplies them
        np.testing.assert_allclose(
            np.linalg.norm(shifted.support_x, axis=1),
            2.5 * np.linalg.norm(plain.support_x, axis=1),
            rtol=1e-12,
        )
        # coordinates beyond the rotated pair only get scaled
        np.testing.assert_allclose(
            shifted.support_x[:, 2:], 2.5 * plain.support_x[:, 2:], rtol=1e-12
        )
        assert not np.allclose(shifted.support_x[:, :2], 2.5 * plain.support_x[:, :2])
        np.testing.assert_array_equal(shifted.support_y, plain.support_y)

    def test_zero_angle_shift_is_pure_scaling(self):
        cfg = TaskGenConfig(n_classes=2, shots=2, queries=1, dim=3)
        shifted_cfg = TaskGenConfig(
            n_classes=2, shots=2, queries=1, dim=3, domain_shift=(0.0, 0.5)
        )
        plain = tasks.gen_episode(cfg, seed=9)
        shifted = tasks.gen_episode(shifted_cfg, seed=9)
        np.testing.assert_allclose(shifted.query_x, 0.5 * plain.query_x, atol=1e-15)

    def test_config_validation(self):
        with pytest.raises(InputError, match="need >= 2 classes"):
            TaskGenConfig(n_classes=1)
        with pytest.raises(InputError, match="must all be >= 1"):
            TaskGenConfig(shots=0)
        with pytest.raises(InputError, match="nonnegative"):
            TaskGenConfig(prototype_scale=-1.0)

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(InputError, match="label outside"):
            tasks.one_hot(np.array([0, 3]), 3)


class TestGenDataset:
    def test_shapes_and_labels(self):
        X, labels = tasks.gen_dataset(4, 10, 6, 3.0, 0.5, seed=0)
        assert X.shape == (40, 6)
        np.testing.assert_array_equal(labels, np.repeat(np.arange(4), 10))

    def test_deterministic(self):
        a = tasks.gen_dataset(3, 5, 4, 3.0, 0.5, seed=1)
        b = tasks.gen_dataset(3, 5, 4, 3.0, 0.5, seed=1)
        np.testing.assert_array_equal(a[0], b[0])

    def test_too_few_classes(self):
        with pytest.raises(InputError, match="need >= 2 classes"):
            tasks.gen_dataset(1, 5, 4, 3.0, 0.5, seed=0)

    @pytest.mark.parametrize(
        "rows, dim, scale, msg",
        [(-1, 4, 3.0, "rows_per_class"), (5, 0, 3.0, "dim"), (5, 4, -1.0, "nonnegative")],
    )
    def test_bad_pool_shape_rejected(self, rows, dim, scale, msg):
        with pytest.raises(InputError, match=msg):
            tasks.gen_dataset(3, rows, dim, scale, 0.5, seed=0)


class TestCsvRoundTrip:
    def test_save_load_identity(self, tmp_path):
        X, labels = tasks.gen_dataset(3, 4, 5, 3.0, 0.5, seed=2)
        path = tmp_path / "ds.csv"
        tasks.save_csv_dataset(path, X, labels)
        ds = tasks.load_csv_dataset(path)
        np.testing.assert_array_equal(ds.X, X)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_class_ids_and_rows_for(self, tmp_path):
        X, labels = tasks.gen_dataset(3, 4, 2, 3.0, 0.5, seed=3)
        ds = tasks.DatasetSource(X=X, labels=labels)
        np.testing.assert_array_equal(ds.rows_for(1), [4, 5, 6, 7])
        rows = np.concatenate([ds.rows_for(class_id) for class_id in (0, 1, 2)])
        np.testing.assert_array_equal(rows, np.arange(12))
        assert ds.rows_for(9).size == 0


class TestCsvErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_empty_file(self, tmp_path):
        with pytest.raises(InputError, match="empty file"):
            tasks.load_csv_dataset(self.write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(InputError, match="no data rows"):
            tasks.load_csv_dataset(self.write(tmp_path, "f0,f1,label\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(InputError, match="header"):
            tasks.load_csv_dataset(self.write(tmp_path, "x0,x1,label\n1,2,0\n"))

    def test_wrong_field_count_reports_line(self, tmp_path):
        text = "f0,f1,label\n1.0,2.0,0\n1.0,2.0\n"
        with pytest.raises(InputError, match=r":3: expected 3 fields"):
            tasks.load_csv_dataset(self.write(tmp_path, text))

    def test_non_numeric_cell_reports_line(self, tmp_path):
        text = "f0,f1,label\n1.0,abc,0\n"
        with pytest.raises(InputError, match=r":2:"):
            tasks.load_csv_dataset(self.write(tmp_path, text))

    def test_non_integer_label(self, tmp_path):
        text = "f0,f1,label\n1.0,2.0,1.5\n"
        with pytest.raises(InputError, match="non-integer label"):
            tasks.load_csv_dataset(self.write(tmp_path, text))

    @pytest.mark.parametrize("label", ["1e300", "99999999999999999999", "9007199254740993"])
    def test_label_out_of_range_reports_line(self, tmp_path, label):
        # beyond 2^53 a label parsed as float may round to another label
        # (9007199254740993 to 9007199254740992), and beyond int64 it ended
        # in an OverflowError traceback
        text = f"f0,f1,label\n1.0,2.0,0\n1.0,2.0,{label}\n"
        with pytest.raises(InputError, match=rf":3: label '{label}' is outside \(-2\^53, 2\^53\)"):
            tasks.load_csv_dataset(self.write(tmp_path, text))

    def test_negative_and_large_labels_load(self, tmp_path):
        text = "f0,f1,label\n1.0,2.0,-3\n1.0,2.0,-9007199254740991\n1.0,2.0,9007199254740991\n"
        ds = tasks.load_csv_dataset(self.write(tmp_path, text))
        np.testing.assert_array_equal(ds.labels, [-3, 1 - 2**53, 2**53 - 1])

    @pytest.mark.parametrize(
        "row, col", [("1.0,nan,0", "f1"), ("inf,2.0,0", "f0"), ("1.0,2.0,nan", "label")]
    )
    def test_non_finite_cell_reports_line(self, tmp_path, row, col):
        text = f"f0,f1,label\n1.0,2.0,0\n{row}\n"
        with pytest.raises(InputError, match=rf":3: non-finite value in column {col}"):
            tasks.load_csv_dataset(self.write(tmp_path, text))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read data file"):
            tasks.load_csv_dataset(tmp_path / "missing.csv")
        with pytest.raises(InputError, match="cannot read data file"):
            tasks.load_csv_dataset(tmp_path)


class TestSplitsAndSampling:
    def dataset(self):
        X, labels = tasks.gen_dataset(6, 8, 4, 3.0, 0.5, seed=5)
        return tasks.DatasetSource(X=X, labels=labels)

    def test_disjoint_splits_pass(self):
        tasks.check_disjoint_splits([0, 1, 2], [3, 4, 5])

    def test_overlapping_splits_raise(self):
        with pytest.raises(InputError, match=r"classes \[2\] appear in both splits"):
            tasks.check_disjoint_splits([0, 1, 2], [2, 3])

    def test_sampled_episode_structure(self):
        ds = self.dataset()
        ep = tasks.sample_episode_from_dataset(ds, [0, 1, 2, 3], 3, 2, 2, seed=0)
        assert ep.support_x.shape == (6, 4)
        assert ep.query_x.shape == (6, 4)
        np.testing.assert_array_equal(
            np.argmax(ep.support_y, axis=1), np.repeat(np.arange(3), 2)
        )

    def test_rows_come_from_pool_without_replacement(self):
        ds = self.dataset()
        pool = [1, 3, 5]
        ep = tasks.sample_episode_from_dataset(ds, pool, 3, 2, 3, seed=7)
        stacked = np.vstack([ep.support_x, ep.query_x])
        matched = []
        for row in stacked:
            idx = np.flatnonzero(np.all(ds.X == row, axis=1))
            assert idx.size == 1
            matched.append(idx[0])
            assert ds.labels[idx[0]] in pool
        assert len(set(matched)) == len(matched)

    def test_blocks_keep_one_source_class(self):
        ds = self.dataset()
        ep = tasks.sample_episode_from_dataset(ds, [0, 2, 4], 2, 3, 2, seed=3)
        for c in range(2):
            block = ep.support_x[c * 3 : (c + 1) * 3]
            orig = {
                int(ds.labels[np.flatnonzero(np.all(ds.X == row, axis=1))[0]])
                for row in block
            }
            assert len(orig) == 1

    def test_deterministic_in_seed(self):
        ds = self.dataset()
        a = tasks.sample_episode_from_dataset(ds, [0, 1, 2], 3, 2, 2, seed=11)
        b = tasks.sample_episode_from_dataset(ds, [0, 1, 2], 3, 2, 2, seed=11)
        np.testing.assert_array_equal(a.support_x, b.support_x)
        np.testing.assert_array_equal(a.query_x, b.query_x)

    def test_pool_too_small(self):
        ds = self.dataset()
        with pytest.raises(InputError, match="pool has 2 classes"):
            tasks.check_class_pool(ds, [0, 1], 3, 2 + 2)

    def test_unknown_class_in_pool(self):
        ds = self.dataset()
        with pytest.raises(InputError, match=r"classes \[9\] not present"):
            tasks.check_class_pool(ds, [0, 1, 9], 3, 2 + 2)

    def test_not_enough_rows(self):
        ds = self.dataset()  # 8 rows per class
        with pytest.raises(InputError, match="has 8 rows, needs 9"):
            tasks.check_class_pool(ds, [0, 1, 2], 3, 5 + 4)

    def test_rows_checked_for_every_pool_class(self):
        # a class that an episode may never sample is still checked
        ds = self.dataset()
        keep = (ds.labels != 5) | (np.arange(ds.labels.size) % 8 < 3)
        ds = tasks.DatasetSource(X=ds.X[keep], labels=ds.labels[keep])
        tasks.check_class_pool(ds, [0, 1, 2], 3, 4)
        with pytest.raises(InputError, match="class 5 has 3 rows, needs 4"):
            tasks.check_class_pool(ds, [0, 1, 2, 5], 3, 4)
