"""Episodic task generation: synthetic prototype clusters and CSV datasets.

A synthetic episode samples C prototypes from N(0, tau^2 I_D) and then
L support + M query points per class from N(prototype, sigma_w^2 I). An
optional domain shift (rotation in the first two coordinates plus a global
scale factor) is applied to all points, which changes the marginal feature
distribution without changing class structure.

CSV datasets use the header f0,...,f{D-1},label; episodes are sampled from
a class subset without replacement and relabeled 0..C-1 in sampled order.
"""

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InputError
from .seeding import rng_for

__all__ = [
    "Episode",
    "TaskGenConfig",
    "DatasetSource",
    "gen_episode",
    "gen_dataset",
    "load_csv_dataset",
    "save_csv_dataset",
    "sample_episode_from_dataset",
    "one_hot",
]


@dataclass(frozen=True)
class Episode:
    support_x: np.ndarray  # (C*L, D)
    support_y: np.ndarray  # (C*L, C) one-hot
    query_x: np.ndarray  # (C*M, D)
    query_y: np.ndarray  # (C*M, C) one-hot


@dataclass(frozen=True)
class TaskGenConfig:
    n_classes: int = 5
    shots: int = 5
    queries: int = 16
    dim: int = 8
    prototype_scale: float = 3.0
    within_scale: float = 0.5
    domain_shift: Optional[tuple] = None  # (angle_degrees, scale)

    def __post_init__(self):
        if self.n_classes < 2:
            raise InputError(f"need >= 2 classes, got {self.n_classes}")
        if self.shots < 1 or self.queries < 1 or self.dim < 1:
            raise InputError("shots, queries and dim must all be >= 1")
        if self.prototype_scale < 0 or self.within_scale < 0:
            raise InputError("scales must be nonnegative")


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise InputError("label outside [0, n_classes)")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _apply_shift(X: np.ndarray, shift) -> np.ndarray:
    angle_deg, scale = shift
    X = X.copy()
    if X.shape[1] >= 2:
        a = np.deg2rad(angle_deg)
        rot = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        X[:, :2] = X[:, :2] @ rot.T
    return scale * X


def gen_episode(cfg: TaskGenConfig, seed: int) -> Episode:
    """One synthetic episode; deterministic in (cfg, seed)."""
    rng = rng_for(seed)
    c, l, m, d = cfg.n_classes, cfg.shots, cfg.queries, cfg.dim
    protos = cfg.prototype_scale * rng.standard_normal((c, d))
    support = np.empty((c * l, d))
    query = np.empty((c * m, d))
    for i in range(c):
        pts = protos[i] + cfg.within_scale * rng.standard_normal((l + m, d))
        support[i * l : (i + 1) * l] = pts[:l]
        query[i * m : (i + 1) * m] = pts[l:]
    if cfg.domain_shift is not None:
        support = _apply_shift(support, cfg.domain_shift)
        query = _apply_shift(query, cfg.domain_shift)
    s_lab = np.repeat(np.arange(c), l)
    q_lab = np.repeat(np.arange(c), m)
    return Episode(
        support_x=support,
        support_y=one_hot(s_lab, c),
        query_x=query,
        query_y=one_hot(q_lab, c),
    )


def gen_dataset(
    n_classes: int,
    rows_per_class: int,
    dim: int,
    prototype_scale: float,
    within_scale: float,
    seed: int,
):
    """Pooled dataset with one fixed prototype per class id."""
    if n_classes < 2:
        raise InputError(f"need >= 2 classes, got {n_classes}")
    if rows_per_class < 1 or dim < 1:
        raise InputError("rows_per_class and dim must both be >= 1")
    if prototype_scale < 0 or within_scale < 0:
        raise InputError("scales must be nonnegative")
    rng = rng_for(seed)
    protos = prototype_scale * rng.standard_normal((n_classes, dim))
    X = np.vstack(
        [
            protos[i] + within_scale * rng.standard_normal((rows_per_class, dim))
            for i in range(n_classes)
        ]
    )
    labels = np.repeat(np.arange(n_classes), rows_per_class)
    return X, labels


@dataclass(frozen=True)
class DatasetSource:
    """In-memory pooled dataset with integer class labels."""

    X: np.ndarray
    labels: np.ndarray

    def rows_for(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == class_id)


def save_csv_dataset(path, X: np.ndarray, labels: np.ndarray) -> None:
    X = np.asarray(X, dtype=float)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{i}" for i in range(X.shape[1])] + ["label"])
            for row, lab in zip(X, labels):
                writer.writerow([repr(float(v)) for v in row] + [int(lab)])
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def load_csv_dataset(path) -> DatasetSource:
    """Parse a f0..f{D-1},label CSV; schema violations raise InputError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read data file {path}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    d = len(header) - 1
    if d < 1 or header != [f"f{i}" for i in range(d)] + ["label"]:
        raise InputError(f"{path}: header {header!r} does not match f0..f{{D-1}},label")
    rows, labels = [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != d + 1:
            raise InputError(f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, values)):
            col = next(h for h, v in zip(header, values) if not math.isfinite(v))
            raise InputError(f"{path}:{lineno}: non-finite value in column {col}")
        if values[d] != int(values[d]):
            raise InputError(f"{path}:{lineno}: non-integer label {row[d]!r}")
        if not abs(values[d]) < 2**53:  # beyond it a float label may round to another
            raise InputError(f"{path}:{lineno}: label {row[d]!r} is outside (-2^53, 2^53)")
        rows.append(values[:d])
        labels.append(int(values[d]))
    if not rows:
        raise InputError(f"{path}: no data rows")
    return DatasetSource(X=np.array(rows), labels=np.array(labels, dtype=int))


def check_disjoint_splits(train_classes, test_classes) -> None:
    overlap = sorted(set(map(int, train_classes)) & set(map(int, test_classes)))
    if overlap:
        raise InputError(f"classes {overlap} appear in both splits")


def check_class_pool(ds: DatasetSource, class_pool, n_way: int, rows: int) -> None:
    """Raise InputError unless the pool holds n_way or more classes, each in
    ds with at least `rows` rows."""
    pool = [int(cid) for cid in class_pool]
    missing = [cid for cid in pool if ds.rows_for(cid).size == 0]
    if missing:
        raise InputError(f"classes {missing} not present in dataset")
    if len(pool) < n_way:
        raise InputError(f"pool has {len(pool)} classes, need {n_way}")
    for cid in pool:
        if ds.rows_for(cid).size < rows:
            raise InputError(f"class {cid} has {ds.rows_for(cid).size} rows, needs {rows}")


def sample_episode_from_dataset(
    ds: DatasetSource,
    class_pool,
    n_way: int,
    shots: int,
    queries: int,
    seed: int,
) -> Episode:
    """Sample an n_way episode from the given class pool, no replacement; the
    pool must pass :func:`check_class_pool` for shots + queries rows."""
    rng = rng_for(seed)
    chosen = rng.choice(np.array([int(cid) for cid in class_pool]), size=n_way, replace=False)
    sup_x, q_x = [], []
    for cid in chosen:
        pick = rng.choice(ds.rows_for(int(cid)), size=shots + queries, replace=False)
        sup_x.append(ds.X[pick[:shots]])
        q_x.append(ds.X[pick[shots:]])
    return Episode(
        support_x=np.vstack(sup_x),
        support_y=one_hot(np.repeat(np.arange(n_way), shots), n_way),
        query_x=np.vstack(q_x),
        query_y=one_hot(np.repeat(np.arange(n_way), queries), n_way),
    )
