"""Synthetic task generation and client data partitioning.

Each generator returns its whole set as one model.Batch, the one (inputs,
labels) type. Generators run on numpy's PCG64 with explicit seeds; the
protocol-critical perturbation streams live in prng.py and never touch
these generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Batch

PARTITION_MODES = ("iid", "dirichlet")

DIRICHLET_RETRIES = 10


@dataclass
class PartitionSpec:
    """How the dataset is split across clients. alpha, the Dirichlet
    concentration, is read under mode dirichlet only: it is required there
    and rejected under iid."""

    mode: str = "iid"
    alpha: float | None = None

    def __post_init__(self):
        if self.mode not in PARTITION_MODES:
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if self.mode == "iid":
            if self.alpha is not None:
                raise ValueError("alpha is read under mode dirichlet only; "
                                 "mode iid takes no alpha")
        elif self.alpha is None:
            raise ValueError("alpha is required under mode dirichlet")
        elif self.alpha <= 0:
            raise ValueError("dirichlet alpha must be positive")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def make_classification_blobs(n: int, dim: int, classes: int, separation: float,
                              seed: int) -> Batch:
    """Gaussian blobs around deterministic class centers, counts balanced +-1."""
    if not n >= classes >= 2:
        raise ValueError("need n >= classes >= 2")
    rng = _rng(seed)
    centers = rng.standard_normal((classes, dim)) * separation
    labels = np.arange(n, dtype=np.int64) % classes
    points = centers[labels] + rng.standard_normal((n, dim))
    perm = rng.permutation(n)
    return Batch(points[perm], labels[perm])


def make_regression_quadratic(n: int, dim: int, out_dim: int = 1, seed: int = 0) -> Batch:
    """Linear-map targets so a linear model under squared error is a quadratic bowl."""
    if n < 1 or dim < 1 or out_dim < 1:
        raise ValueError("n, dim, out_dim must be positive")
    rng = _rng(seed)
    weights = rng.standard_normal((dim, out_dim)) / np.sqrt(dim)
    x = rng.standard_normal((n, dim))
    return Batch(x, x @ weights)


def iid_partition(n: int, m: int, seed: int) -> list:
    """Random equal split of indices 0..n-1, sizes differing by at most one."""
    if m < 1:
        raise ValueError("need at least one shard")
    # array_split puts the n % m shards one larger first
    return [np.sort(p) for p in np.array_split(_rng(seed).permutation(n), m)]


def dirichlet_partition(labels, m: int, alpha: float, seed: int) -> list:
    """Label-skewed split: per-class client proportions drawn Dirichlet(alpha).

    labels is a vector of non-negative class indices. Every index is
    assigned exactly once. If some shard comes out empty the draw is retried
    up to DIRICHLET_RETRIES times, then the last draw is returned as it is;
    the caller decides what an empty shard means.
    """
    if m < 1 or alpha <= 0:
        raise ValueError("need m >= 1 and alpha > 0")
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("dirichlet partition needs a vector of class indices")
    for attempt in range(DIRICHLET_RETRIES + 1):
        rng = _rng(seed + attempt)
        parts = [[] for _ in range(m)]
        # the classes present, ascending; np.unique would import numpy.ma
        for cls in np.flatnonzero(np.bincount(labels)):
            idx = np.flatnonzero(labels == cls)
            idx = rng.permutation(idx)
            props = rng.dirichlet(np.full(m, alpha))
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
            for shard, chunk in zip(parts, np.split(idx, cuts)):
                shard.extend(chunk.tolist())
        shards = [np.sort(np.asarray(p, dtype=np.int64)) for p in parts]
        if all(len(s) > 0 for s in shards):
            break
    return shards


def partition_dataset(dataset: Batch, spec: PartitionSpec, m: int, seed: int) -> list:
    """dataset's indices split into m client shards as spec says."""
    if spec.mode == "iid":
        return iid_partition(dataset.size, m, seed)
    return dirichlet_partition(dataset.labels, m, spec.alpha, seed)
