"""Synthetic tasks and client partitions."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import splitsim
from splitsim.data import (
    PartitionSpec,
    dirichlet_partition,
    iid_partition,
    make_classification_blobs,
    make_regression_quadratic,
    partition_dataset,
)


ROOT = Path(__file__).resolve().parent.parent


def _is_partition(shards, n):
    merged = np.concatenate([np.asarray(s) for s in shards])
    return sorted(merged.tolist()) == list(range(n))


class TestGenerators:
    def test_blobs_deterministic(self):
        a = make_classification_blobs(100, 4, 3, 2.0, seed=9)
        b = make_classification_blobs(100, 4, 3, 2.0, seed=9)
        assert a.inputs.tobytes() == b.inputs.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_blobs_balanced_counts(self):
        ds = make_classification_blobs(101, 3, 4, 2.0, seed=1)
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_one_sample_per_class(self):
        ds = make_classification_blobs(3, 2, 3, 5.0, seed=2)
        assert sorted(ds.labels.tolist()) == [0, 1, 2]

    def test_wide_separation_linearly_learnable(self):
        # huge separation: a least-squares linear readout gets >=99% train accuracy
        ds = make_classification_blobs(400, 6, 2, 25.0, seed=3)
        x = np.hstack([ds.inputs, np.ones((ds.size, 1))])
        y = np.where(ds.labels == 0, -1.0, 1.0)
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        acc = np.mean(np.sign(x @ w) == y)
        assert acc >= 0.99

    def test_regression_shape_and_determinism(self):
        a = make_regression_quadratic(50, 3, 2, seed=11)
        assert a.inputs.shape == (50, 3) and a.labels.shape == (50, 2)
        b = make_regression_quadratic(50, 3, 2, seed=11)
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_blob_validation(self):
        with pytest.raises(ValueError):
            make_classification_blobs(1, 2, 2, 1.0, seed=0)


class TestPartitions:
    def test_iid_partition_law(self):
        shards = iid_partition(103, 4, seed=0)
        assert _is_partition(shards, 103)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_iid_deterministic(self):
        a = iid_partition(50, 3, seed=5)
        b = iid_partition(50, 3, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_dirichlet_partition_law(self):
        labels = np.arange(200) % 5
        shards = dirichlet_partition(labels, 6, alpha=1.0, seed=1)
        assert _is_partition(shards, 200)

    def test_dirichlet_deterministic(self):
        labels = np.arange(120) % 3
        a = dirichlet_partition(labels, 4, alpha=0.5, seed=9)
        b = dirichlet_partition(labels, 4, alpha=0.5, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_large_alpha_concentrates_sizes(self):
        # alpha=1000 on balanced labels: shard sizes within 15% of N/M on average
        labels = np.arange(400) % 4
        devs = []
        for seed in range(100):
            shards = dirichlet_partition(labels, 4, alpha=1000.0, seed=seed)
            sizes = np.array([len(s) for s in shards])
            devs.append(np.abs(sizes - 100).max() / 100)
        assert np.mean(devs) < 0.15

    def test_small_alpha_skews_labels(self):
        # alpha=0.05: at least half the seeds give some shard >=80% one class
        labels = np.arange(400) % 4
        hits = 0
        for seed in range(40):
            shards = dirichlet_partition(labels, 4, alpha=0.05, seed=seed)
            for s in shards:
                if len(s) == 0:
                    continue
                top = np.bincount(labels[s], minlength=4).max()
                if top / len(s) >= 0.8:
                    hits += 1
                    break
        assert hits >= 20

    def test_empty_shard_returned_after_retries(self):
        # 3 samples cannot fill 8 shards: the last draw comes back as it is,
        # with no warning, and build_simulation's ConfigError is the verdict
        labels = np.zeros(3, dtype=int)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shards = dirichlet_partition(labels, 8, alpha=0.01, seed=0)
        assert _is_partition(shards, 3)
        assert any(len(s) == 0 for s in shards)

    def test_dirichlet_classes_taken_in_ascending_order(self):
        # sparse, unordered class ids: the split draws per class present,
        # ascending, exactly as a loop over np.unique(labels) does
        labels = np.array([7, 2, 9, 2, 7, 7, 0, 9, 2, 0] * 13)
        for seed, alpha in [(0, 0.5), (3, 1.0), (8, 20.0)]:
            rng = np.random.Generator(np.random.PCG64(seed))
            parts = [[] for _ in range(3)]
            for cls in np.unique(labels):
                idx = rng.permutation(np.flatnonzero(labels == cls))
                cuts = (np.cumsum(rng.dirichlet(np.full(3, alpha)))[:-1] * len(idx)).astype(int)
                for part, chunk in zip(parts, np.split(idx, cuts)):
                    part.extend(chunk.tolist())
            want = [np.sort(np.asarray(p, dtype=np.int64)) for p in parts]
            assert all(len(p) for p in want)  # no retry, so one draw decides
            got = dirichlet_partition(labels, 3, alpha, seed)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_dirichlet_rejects_float_labels(self):
        with pytest.raises(ValueError, match="class indices"):
            dirichlet_partition(np.linspace(0.0, 1.0, 12), 2, alpha=1.0, seed=0)

    def test_setup_does_not_import_numpy_ma(self):
        # np.unique imports all of numpy.ma; set-up must not pay for it
        code = ("import sys\n"
                "from pathlib import Path\n"
                "from splitsim import runner\n"
                "from splitsim.config import parse_config\n"
                "text = Path('configs/blobs_hosfl.yaml').read_text()\n"
                "runner.build_simulation(parse_config(text))\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(splitsim.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_partition_spec_dispatch(self):
        ds = make_classification_blobs(60, 2, 2, 2.0, seed=4)
        shards = partition_dataset(ds, PartitionSpec("dirichlet", 1.0), 3, 7)
        assert _is_partition(shards, 60)

    def test_partition_spec_validation(self):
        with pytest.raises(ValueError):
            PartitionSpec("dirichlet", alpha=0.0)
        with pytest.raises(ValueError):
            PartitionSpec("striped")

    def test_alpha_is_read_under_dirichlet_only(self):
        assert PartitionSpec().alpha is None
        with pytest.raises(ValueError, match="alpha is required under mode dirichlet"):
            PartitionSpec("dirichlet")
        with pytest.raises(ValueError, match="mode iid takes no alpha"):
            PartitionSpec("iid", alpha=1.0)

