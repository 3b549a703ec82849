"""Dataset ingestion, synthetic generation, and split protocol.

Covers three needs of a membership audit: loading tabular CSV datasets
(numeric features plus an integer label column), generating Gaussian
class-cluster data with a controllable overfitting knob, and carving a
dataset into the four disjoint index sets the attacks rely on
(victim train/test, shadow train/test). Membership ground truth always
derives from the split plan, never from model behavior.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError, SchemaError, SizeError


@dataclass
class TabularDataset:
    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise InputError("features must be a 2-D matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise InputError("labels length must match feature rows")
        if not np.all(np.isfinite(self.features)):
            raise InputError("features contain non-finite values")
        if self.class_count < 1:
            raise InputError("class_count must be >= 1")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise SchemaError("labels out of range for class_count")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def xy(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(features, labels) restricted to the given row indices."""
        idx = np.asarray(indices, dtype=np.int64)
        return self.features[idx], self.labels[idx]


def load_csv(path, label_column: int = -1, has_header: bool = False,
             class_count: int | None = None) -> TabularDataset:
    """Load numeric features and one integer label column, preserving row order.

    ``label_column`` indexes a row as in Python, ``has_header`` skips line 1,
    and with no ``class_count`` the labels run 0 to the largest. Malformed
    rows raise a parse error naming the 1-based line number; labels outside
    the declared class range raise a schema error.
    """
    rows, labels = [], []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if has_header and lineno == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if width is None:
                width = len(row)
                if not -width <= label_column < width:
                    raise DataError(f"label_column {label_column} is outside a "
                                    f"{width}-column file (valid: {-width} to {width - 1})")
                label_col = label_column % width
            elif len(row) != width:
                raise DataError(f"line {lineno}: expected {width} columns, got {len(row)}")
            feats = []
            for col, cell in enumerate(row):
                if col == label_col:
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise DataError(f"line {lineno}: non-numeric feature value {cell!r}") from None
            try:
                label = int(float(row[label_col]))
                if float(row[label_col]) != label:
                    raise ValueError
            except ValueError:
                raise DataError(f"line {lineno}: non-integer label {row[label_col]!r}") from None
            if label < 0:
                raise SchemaError(f"line {lineno}: negative label {label}")
            if class_count is not None and label >= class_count:
                raise SchemaError(
                    f"line {lineno}: label {label} out of range [0, {class_count})"
                )
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.asarray(rows, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if class_count is None:
        class_count = int(labels.max()) + 1
    return TabularDataset(features, labels, class_count)


def synth_generate(
    n: int,
    d: int,
    class_count: int,
    cluster_spread: float,
    seed: int = 0,
) -> TabularDataset:
    """Gaussian class clusters with controllable difficulty.

    Class means are standard-normal draws; samples scatter around their
    class mean with standard deviation ``cluster_spread``. Small spreads
    give a separable problem, large spreads (with few samples) raise the
    train-test gap of a fitted model. Deterministic per seed.
    """
    if n < class_count:
        raise InputError("need at least one sample per class")
    if d < 1:
        raise InputError("need at least one feature")
    if cluster_spread < 0:
        raise InputError("cluster_spread must be non-negative")
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    means = rng.normal(0.0, 1.0, size=(class_count, d))
    labels = np.arange(n, dtype=np.int64) % class_count
    features = means[labels] + cluster_spread * rng.normal(0.0, 1.0, size=(n, d))
    return TabularDataset(features, labels, class_count)


@dataclass
class SplitSizes:
    victim_train: int
    victim_test: int
    shadow_train: int
    shadow_test: int

    def total(self) -> int:
        return self.victim_train + self.victim_test + self.shadow_train + self.shadow_test


@dataclass
class SplitPlan:
    """Disjoint index sets for the victim and shadow worlds.

    ``victim_train`` rows are the members whose leakage the audit
    measures; ``victim_test`` rows are the non-members. The shadow pair
    plays the same roles on the attacker's side.
    """

    victim_train: np.ndarray
    victim_test: np.ndarray
    shadow_train: np.ndarray
    shadow_test: np.ndarray
    seed: int = 0

    def components(self) -> dict[str, np.ndarray]:
        return {
            "victim_train": self.victim_train,
            "victim_test": self.victim_test,
            "shadow_train": self.shadow_train,
            "shadow_test": self.shadow_test,
        }

    def check_disjoint(self):
        """Brute-force pairwise disjointness check; runs on every split."""
        items = list(self.components().items())
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                overlap = set(items[i][1].tolist()) & set(items[j][1].tolist())
                if overlap:
                    raise SizeError(
                        f"split components {items[i][0]} and {items[j][0]} overlap: {sorted(overlap)[:5]}"
                    )


def make_split(dataset: TabularDataset, sizes: SplitSizes, seed: int = 0) -> SplitPlan:
    """Randomly assign disjoint victim/shadow train/test index sets."""
    if sizes.total() > dataset.n_samples:
        raise SizeError(
            f"requested {sizes.total()} samples, dataset has {dataset.n_samples}"
        )
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    perm = rng.permutation(dataset.n_samples)
    bounds = np.cumsum(
        [0, sizes.victim_train, sizes.victim_test, sizes.shadow_train, sizes.shadow_test]
    )
    parts = [np.sort(perm[bounds[i] : bounds[i + 1]]) for i in range(4)]
    plan = SplitPlan(*parts, seed=seed)
    plan.check_disjoint()
    return plan


def make_finetune_split(victim_train: np.ndarray, fraction: float, seed: int = 0) -> np.ndarray:
    """The sorted victim train rows that fine-tuning uses, a ``fraction`` of them."""
    if not 0.0 < fraction <= 1.0:
        raise InputError("fraction must be in (0, 1]")
    victim_train = np.asarray(victim_train, dtype=np.int64)
    rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
    perm = rng.permutation(victim_train.shape[0])
    k = max(1, int(round(fraction * victim_train.shape[0])))
    return np.sort(victim_train[perm[:k]])
