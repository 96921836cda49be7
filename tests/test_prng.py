"""Deterministic stream derivation, Gaussian sampling, fixed-order arithmetic."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import prng
from splitsim.errors import DimensionMismatchError
from splitsim.prng import (
    STREAM_PERTURBATION,
    derive_stream,
    gaussian_block,
    gaussian_vector,
    mix64,
    prefetch_gaussians,
)

MASK = (1 << 64) - 1


def _splitmix64_oracle(x):
    # independent reimplementation of the finalizer, straight from its constants
    x &= MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def _derive_oracle(root, *parts):
    h = _splitmix64_oracle(root)
    for v in parts:
        h = _splitmix64_oracle((h + 0x9E3779B97F4A7C15 + (v & MASK)) & MASK)
    return h


class TestSeedDerivation:
    def test_identical_triple_identical_seed(self):
        assert (derive_stream(7, STREAM_PERTURBATION, 0, 1)
                == derive_stream(7, STREAM_PERTURBATION, 0, 1))

    @pytest.mark.parametrize("a,b", [
        ((7, 0, 1), (7, 0, 2)),
        ((7, 3, 1), (8, 3, 1)),
        ((7, 0, 1), (7, 1, 1)),
    ])
    def test_distinct_triples_distinct_seeds(self, a, b):
        assert derive_stream(a[0], STREAM_PERTURBATION, *a[1:]) != \
            derive_stream(b[0], STREAM_PERTURBATION, *b[1:])

    def test_matches_hash_oracle(self):
        for root, t, p in [(7, 0, 1), (7, 0, 2), (8, 3, 1), (2**63, 100, 25)]:
            expected = _derive_oracle(root, prng.STREAM_PERTURBATION, t, p)
            assert derive_stream(root, STREAM_PERTURBATION, t, p) == expected

    def test_mix64_matches_oracle(self):
        for x in [0, 1, 7, 123456789, MASK]:
            assert mix64(x) == _splitmix64_oracle(x)

    def test_grid_has_no_collisions(self):
        seen = {derive_stream(7, STREAM_PERTURBATION, t, p)
                for t in range(200) for p in range(1, 26)}
        assert len(seen) == 200 * 25

    def test_derive_stream_golden_values(self):
        # frozen so the documented stream can never silently change
        assert derive_stream(7, 1, 0, 1) == 10478252934918833006
        assert derive_stream(0, 0) == 16294208416658607535
        assert derive_stream(12345, 2, 7) == 11071835256248334826


class TestGaussian:
    def test_bitwise_determinism(self):
        a = gaussian_vector(42, 4)
        b = gaussian_vector(42, 4)
        assert a.tobytes() == b.tobytes()

    def test_empty(self):
        assert gaussian_vector(42, 0).shape == (0,)

    def test_odd_dim_prefix_of_even(self):
        assert np.array_equal(gaussian_vector(9, 5), gaussian_vector(9, 6)[:5])

    def test_block_rows_match_vectors(self):
        seeds = [derive_stream(3, i) for i in range(50)]
        block = gaussian_block(seeds, 7)
        for i, s in enumerate(seeds):
            assert block[i].tobytes() == gaussian_vector(s, 7).tobytes()

    def test_all_finite(self):
        block = gaussian_block([derive_stream(11, i) for i in range(1000)], 64)
        assert np.all(np.isfinite(block))

    def test_mean_and_variance(self):
        draws = gaussian_block([derive_stream(1, i) for i in range(100000)], 1).ravel()
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03

    def test_second_moment_identity(self):
        # sample covariance close to identity, supporting E[u u^T] = I
        n, dim = 100000, 8
        u = gaussian_block([derive_stream(2, i) for i in range(n)], dim)
        cov = u.T @ u / n
        assert np.abs(cov - np.eye(dim)).max() < 0.05

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_sixth_norm_moment(self, dim):
        # E||u||^6 = d (d+2) (d+4) for standard normal vectors
        n = 1000000
        u = gaussian_block([derive_stream(40 + dim, i) for i in range(n)], dim)
        sixth = np.mean(np.sum(u * u, axis=1) ** 3)
        expected = dim * (dim + 2) * (dim + 4)
        assert abs(sixth - expected) / expected < 0.05


def _uncached(seed, dim):
    return gaussian_block([seed & MASK], dim)[0]


class TestGaussianMemo:
    SEEDS = [0, MASK] + [derive_stream(21, i) for i in range(1100)]
    DIMS = [0, 1, 7, 34, 143, 144]

    def test_matches_uncached_generation(self):
        for dim in self.DIMS:
            for seed in self.SEEDS:
                assert gaussian_vector(seed, dim).tobytes() == _uncached(seed, dim).tobytes()
                # the second request is served from the memo
                assert gaussian_vector(seed, dim).tobytes() == _uncached(seed, dim).tobytes()

    def test_matches_uncached_after_eviction(self):
        dim = 144
        first = self.SEEDS[:50]
        for seed in first:
            gaussian_vector(seed, dim)
        # far more vectors than the budget holds push the first ones out
        overflow = 3 * prng.MEMO_BYTES // (dim * 8)
        for i in range(overflow):
            gaussian_vector(derive_stream(22, i), dim)
        assert all((seed, dim) not in prng._MEMO.entries for seed in first)
        for seed in first:
            assert gaussian_vector(seed, dim).tobytes() == _uncached(seed, dim).tobytes()

    def test_returned_vector_is_read_only(self):
        u = gaussian_vector(5, 8)
        with pytest.raises(ValueError):
            u[0] = 1.0
        with pytest.raises(ValueError):
            u += 1.0
        assert gaussian_vector(5, 8).tobytes() == _uncached(5, 8).tobytes()

    def test_retained_bytes_within_budget(self):
        memo = prng._MEMO
        for i in range(2000):
            gaussian_vector(derive_stream(23, i), 7 + i % 300)
            assert memo.held <= prng.MEMO_BYTES
        # every entry owns its buffer, so its nbytes is all it keeps alive
        assert all(v.base is None for v in memo.entries.values())
        assert memo.held == sum(v.nbytes for v in memo.entries.values())

    def test_oversized_vector_is_not_retained(self):
        dim = prng.MEMO_BYTES // 8 + 1
        held = prng._MEMO.held
        u = gaussian_vector(24, dim)
        assert u.shape == (dim,)
        assert u.tobytes() == _uncached(24, dim).tobytes()
        assert (24, dim) not in prng._MEMO.entries
        assert prng._MEMO.held == held

    @pytest.mark.parametrize("dim", [0, 1, 7, 144])
    def test_block_fill_stores_block_rows(self, dim):
        seeds = [derive_stream(25, dim, i) for i in range(9)]
        prefetch_gaussians(seeds, dim)
        block = gaussian_block(seeds, dim)
        for seed, row in zip(seeds, block):
            assert prng._MEMO.entries[(seed, dim)].tobytes() == row.tobytes()
            assert gaussian_vector(seed, dim).tobytes() == row.tobytes()

    def test_fill_of_held_seeds_is_a_no_op(self):
        seeds = [derive_stream(26, i) for i in range(5)]
        prefetch_gaussians(seeds, 144)
        memo = prng._MEMO
        held, entries = memo.held, list(memo.entries.items())
        prefetch_gaussians(seeds[::-1] + seeds, 144)
        assert memo.held == held
        # nothing generated or dropped; the held seeds become the most
        # recently used, in the order first given
        assert sorted(memo.entries) == sorted(key for key, _ in entries)
        assert list(memo.entries)[-5:] == [(seed, 144) for seed in seeds[::-1]]
        assert all(memo.entries[key] is vec for key, vec in entries)

    def test_recency_comes_from_prefetch_only(self, monkeypatch):
        monkeypatch.setattr(prng, "_MEMO", prng._GaussianMemo())
        seeds = [derive_stream(31, i) for i in range(4)]
        prefetch_gaussians(seeds, 144)
        order = list(prng._MEMO.entries)
        # a hit returns the held vector and moves no entry
        for seed in seeds[::-1]:
            assert gaussian_vector(seed, 144) is prng._MEMO.entries[(seed, 144)]
        assert list(prng._MEMO.entries) == order
        # a miss appends its one entry
        gaussian_vector(derive_stream(32), 144)
        assert list(prng._MEMO.entries) == order + [(derive_stream(32), 144)]
        # a prefetch of held seeds marks them most recently used
        prefetch_gaussians(seeds[:2], 144)
        assert list(prng._MEMO.entries)[-2:] == [(seed, 144) for seed in seeds[:2]]

    def test_fill_after_eviction(self):
        dim = 144
        seeds = [derive_stream(27, i) for i in range(5)]
        prefetch_gaussians(seeds, dim)
        for i in range(2 * prng.MEMO_BYTES // (dim * 8)):
            gaussian_vector(derive_stream(28, i), dim)
        assert all((seed, dim) not in prng._MEMO.entries for seed in seeds)
        gaussian_vector(seeds[0], dim)
        # one held seed, also given as its negative alias, among evicted ones
        prefetch_gaussians([seeds[0] - (1 << 64)] + seeds, dim)
        for seed in seeds:
            assert prng._MEMO.entries[(seed, dim)].tobytes() == _uncached(seed, dim).tobytes()
        assert prng._MEMO.held == sum(v.nbytes for v in prng._MEMO.entries.values())

    def test_fills_stay_within_budget(self):
        memo = prng._MEMO
        for i in range(300):
            prefetch_gaussians([derive_stream(29, i, p) for p in range(1 + i % 40)],
                               7 + i % 300)
            assert memo.held <= prng.MEMO_BYTES
        # a block larger than the budget keeps only what fits
        prefetch_gaussians([derive_stream(30, p) for p in range(400)], 300)
        assert memo.held <= prng.MEMO_BYTES
        assert all(v.base is None for v in memo.entries.values())
        assert memo.held == sum(v.nbytes for v in memo.entries.values())

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            gaussian_vector(1, -1)
        with pytest.raises(ValueError):
            prefetch_gaussians([1], -1)
        with pytest.raises(ValueError):
            gaussian_block([1], -1)


class TestMixedDims:
    """A block at the widest dim, each row cut to its own dim, gives every
    (seed, dim) the bytes gaussian_vector gives it."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, MASK), min_size=1, max_size=6), st.integers(1, 41))
    def test_row_cut_is_the_vector_of_its_dim(self, seeds, wide):
        block = gaussian_block(seeds, wide)
        with mock.patch.object(prng, "_MEMO", prng._GaussianMemo()):
            for seed, row in zip(seeds, block):
                for dim in range(1, wide + 1):  # odd and even, up to the block's
                    want = gaussian_vector(seed, dim).tobytes()
                    assert row[:dim].tobytes() == want == _uncached(seed, dim).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 40)), min_size=1, max_size=12))
    def test_mixed_dim_prefetch_serves_the_bytes_of_a_miss(self, pairs):
        # a seed may come at several dims, and a pair more than once
        keys = [(derive_stream(33, i), dim) for i, dim in pairs]
        blocks = []
        real_block = prng.gaussian_block

        def counting_block(seeds, dim):
            blocks.append((len(seeds), dim))
            return real_block(seeds, dim)

        with mock.patch.object(prng, "_MEMO", prng._GaussianMemo()), \
                mock.patch.object(prng, "gaussian_block", counting_block):
            memo = prng._MEMO
            prefetch_gaussians([seed for seed, _ in keys], [dim for _, dim in keys])
            distinct = list(dict.fromkeys(keys))
            assert blocks == [(len(distinct), max(dim for _, dim in keys))]
            assert list(memo.entries) == distinct
            for seed, dim in keys:
                vec = gaussian_vector(seed, dim)
                assert vec is memo.entries[(seed, dim)] and vec.base is None
                assert vec.tobytes() == _uncached(seed, dim).tobytes()
            # a repeat, in another order, generates nothing and counts
            # nothing twice
            held = memo.held
            prefetch_gaussians([seed for seed, _ in keys[::-1]], [dim for _, dim in keys[::-1]])
            assert len(blocks) == 1
            assert memo.held == held == sum(v.nbytes for v in memo.entries.values())
            assert memo.held == 8 * sum(dim for _, dim in distinct)

    def test_part_held_prefetch_generates_only_the_rest(self, monkeypatch):
        monkeypatch.setattr(prng, "_MEMO", prng._GaussianMemo())
        seeds = [derive_stream(34, i) for i in range(4)]
        prefetch_gaussians(seeds[:2], 144)
        blocks = []
        real_block = prng.gaussian_block

        def counting_block(seeds, dim):
            blocks.append((list(seeds), dim))
            return real_block(seeds, dim)

        monkeypatch.setattr(prng, "gaussian_block", counting_block)
        prefetch_gaussians(seeds, [144, 144, 144, 10])
        assert blocks == [(seeds[2:], 144)]
        memo = prng._MEMO
        assert memo.held == sum(v.nbytes for v in memo.entries.values()) == 8 * (3 * 144 + 10)
        assert memo.entries[(seeds[3], 10)].tobytes() == _uncached(seeds[3], 10).tobytes()

    def test_dims_must_match_seeds(self):
        with pytest.raises(ValueError):
            prefetch_gaussians([1, 2], [3])
        with pytest.raises(ValueError):
            prefetch_gaussians([1, 2], [3, -1])


class TestVectorOps:
    def test_ordered_mean_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            prng.ordered_mean([np.ones(2), np.ones(3)])

    def test_ordered_mean_scalar(self):
        assert prng.ordered_mean_scalar([1.0, 2.0, 3.0]) == 2.0

    def test_ordered_mean_vectors(self):
        out = prng.ordered_mean([np.array([1.0, 0.0]), np.array([3.0, 2.0])])
        assert out.tolist() == [2.0, 1.0]
