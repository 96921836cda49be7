"""Deterministic counter-based random streams and fixed-order vector ops.

Every random quantity in the simulator derives from a 64-bit root seed via
the splitmix64 finalizer, so any draw can be regenerated from
(root, stream tag, integer coordinates) alone. There is no global RNG state.
derive_stream and extend_stream also take integer arrays, and
uniform_stream an array of seeds: one seed, or one row of uniforms, per
element, each with the bits of the scalar call on that element.

gaussian_block is the one Gaussian generator. gaussian_vector reads a memo
of its rows, and a miss is filled with a one-row block. A round whose
directions the memo does not hold (gaussians_held) fills it with one block
of them and of the next rounds' directions, as many rounds as fit
protocol.LOOKAHEAD_BYTES of block and at least its own
(prefetch_gaussians); a replay chunk fills it with one block of the rounds
it replays. A block holds directions of several dims as rows of the
widest, each cut to its own dim: the first d normals of a row are the d of
gaussian_vector(seed, d), as they read counters 1..2*ceil(d/2) only. Since
every row is a pure function of (seed, dim), the memo changes no value, and
a row drawn rounds ahead has the bits of one drawn when it is used. It is
bounded in bytes (MEMO_BYTES): entries leave in fill order, and a hit
reorders nothing; prefetch_gaussians marks its whole set most recently
used, and every replay chunk and every round not held prefetches before it
reads. The vectors it returns are read-only because callers share them.

Normal variates come from a Box-Muller transform applied to 53-bit uniforms
read off the counter stream. This transform is part of the on-disk/replay
contract and must never change: stored round histories are replayed
bit-for-bit from seeds alone.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from operator import itemgetter

import numpy as np

from .errors import DimensionMismatchError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# Stream tags give domain separation between the independent random streams
# one run needs. Tag 1 is the broadcast perturbation stream.
STREAM_PERTURBATION = 1
STREAM_SAMPLING = 2
STREAM_BATCH = 3
STREAM_INIT = 4
STREAM_DATA = 5
STREAM_PARTITION = 6
STREAM_SPSA = 7
STREAM_PROBE = 8
STREAM_DIAG = 9


def mix64(x: int) -> int:
    """splitmix64 finalizer, the fixed 64-bit mixing hash. x is any integer,
    a numpy integer scalar too, taken mod 2**64."""
    x = int(x) & _MASK
    x = ((x ^ (x >> 30)) * _MIX_A) & _MASK
    x = ((x ^ (x >> 27)) * _MIX_B) & _MASK
    return x ^ (x >> 31)


def derive_stream(root, *parts):
    """Derive a child seed from a root seed and integer coordinates.

    Chained splitmix64 over the coordinate tuple; distinct tuples map to
    distinct seeds except with ~2**-64 probability. The root and any
    coordinate may be a numpy integer scalar, taken as its int, or an
    integer array (see extend_stream).
    """
    if isinstance(root, np.ndarray):
        return extend_stream(_mix(root.astype(np.uint64)), *parts)
    return extend_stream(mix64(root), *parts)


def extend_stream(prefix, *parts):
    """derive_stream's chain continued from a seed it returned:
    extend_stream(derive_stream(root, *a), *b) == derive_stream(root, *a, *b).

    A round derives its (root, tag, t) prefix once and extends it per
    perturbation, client or half; every seed stays a pure function of
    (root, tag, coordinates).

    When the prefix or a coordinate is an integer array, the chain runs on
    uint64 arrays broadcast together and returns one seed per element, each
    equal to the chain of Python ints on that element's values (a negative
    coordinate taken mod 2**64, as v & _MASK takes it). Only in-place array
    ops touch the state, so its wrap-around raises no overflow warning.
    """
    if isinstance(prefix, np.ndarray) or np.ndarray in map(type, parts):
        shape = np.broadcast_shapes(np.shape(prefix), *map(np.shape, parts))
        h = np.empty(shape, dtype=np.uint64)
        h[...] = prefix & _MASK if isinstance(prefix, int) else prefix
        for v in parts:
            h += _U_GOLDEN
            h += np.uint64(v & _MASK) if isinstance(v, int) else v.astype(np.uint64)
            _mix(h)
        return h
    # Python ints throughout (a numpy integer scalar taken as its int), so
    # nothing wraps in fixed width; mix64 takes the sum mod 2**64
    h = int(prefix)
    for v in parts:
        h = mix64(h + _GOLDEN + int(v))
    return h


# -----------------------------------------------------------------------------
# Counter stream -> uniforms -> Gaussians
# -----------------------------------------------------------------------------

# Bytes of Gaussian output the memo keeps. The hybrid protocol fills it
# with one block of P directions per round, or of a few rounds' when their
# block fits protocol.LOOKAHEAD_BYTES, so the memo also holds up to that
# many bytes of upcoming rounds. A round then asks for its P directions
# again and again: K projections and K+1 reconstructions in the live round,
# then once more for every round a straggler replays. Catch-up replay
# prefetches the seeds of the rounds it replays and is chunked by this
# budget: each chunk is as many rounds as their directions fit in it, one
# block each. A prefetch that does not fit is skipped (one round's P=5
# directions at d_c > 13,107), and each direction is then generated on its
# first use as a one-row block. 512 KiB holds about 90 rounds of P=5
# directions at d_c=144. The bound is on bytes, not entries, so memory
# stays bounded at any d_c (512 entries at d_c=200k would be about 800 MB).
MEMO_BYTES = 512 * 1024


@functools.lru_cache(maxsize=8)  # a run uses a handful of stream lengths
def _counters(n: int) -> np.ndarray:
    """Counter offsets (1..n) * golden ratio, built once per stream length."""
    table = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    table.setflags(write=False)
    return table


# the splitmix64 constants as numpy scalars, built once
_U30, _U27, _U31, _U11 = (np.uint64(n) for n in (30, 27, 31, 11))
_U_GOLDEN, _U_MIX_A, _U_MIX_B = np.uint64(_GOLDEN), np.uint64(_MIX_A), np.uint64(_MIX_B)


def _mix(x: np.ndarray) -> np.ndarray:
    """mix64 on every element of a uint64 array, in place; uint64 array
    arithmetic wraps mod 2**64. Returns x."""
    x ^= x >> _U30
    x *= _U_MIX_A
    x ^= x >> _U27
    x *= _U_MIX_B
    x ^= x >> _U31
    return x


def _uniforms_from_state(x: np.ndarray) -> np.ndarray:
    """Open-(0, 1) uniforms from counter states; x is overwritten."""
    _mix(x)
    x >>= _U11
    u = x.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


def _box_muller(u: np.ndarray, dim: int) -> np.ndarray:
    """Normals from uniform pairs along the last axis: (2k+1, 2k+2) -> (2k, 2k+1)."""
    r = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    ang = (2.0 * np.pi) * u[..., 1::2]
    out = np.empty(u.shape, dtype=np.float64)
    out[..., 0::2] = r * np.cos(ang)
    out[..., 1::2] = r * np.sin(ang)
    return out[..., :dim]


def gaussian_block(seeds, dim: int) -> np.ndarray:
    """Stack of standard-normal vectors, one row per seed.

    Row i is bit-identical to gaussian_vector(seeds[i], dim). Box-Muller on
    consecutive uniform pairs: counters (2k+1, 2k+2) produce draws (2k, 2k+1).
    """
    if dim < 0:
        raise ValueError("dim must be non-negative")
    seeds = np.asarray(seeds, dtype=np.uint64)
    state = seeds[:, None] + _counters(2 * ((dim + 1) // 2))[None, :]
    return _box_muller(_uniforms_from_state(state), dim)


_dim_of = itemgetter(1)  # the dim of a (seed, dim) key


class _GaussianMemo:
    """Read-only Gaussian vectors keyed by (seed, dim), bounded in bytes.

    Entries leave in the order they were placed, by a fill or a miss; a
    read does not move one, and only fill marks held entries most recently
    used. Every entry owns its buffer, so held is exactly the bytes kept
    alive.
    """

    def __init__(self):
        self.held = 0
        self.entries: OrderedDict = OrderedDict()

    def fill(self, keys):
        """Generate, as one block, the (seed, dim) entries of keys not yet held.

        A set of keys that does not fit the budget whole is left alone: its
        block would evict its own rows before they are read. Otherwise held
        entries are marked most recently used first, so the new rows evict
        other entries, not these, and the set is held whole when fill returns.
        """
        keys = dict.fromkeys(keys)
        if 8 * sum(map(_dim_of, keys)) > MEMO_BYTES:
            return
        missing = []
        for key in keys:
            if key in self.entries:
                self.entries.move_to_end(key)
            else:
                missing.append(key)
        if missing:
            self._generate(missing)

    def _generate(self, keys: list) -> list:
        """One row per (seed, dim) key: a row of gaussian_block over the keys'
        seeds at their widest dim, cut to the key's dim and copied, and kept
        if it fits the budget."""
        dims = [dim for _, dim in keys]
        if min(dims) < 0:
            raise ValueError("dim must be non-negative")
        rows = []
        for (seed, dim), row in zip(keys, gaussian_block([seed for seed, _ in keys], max(dims))):
            vec = row[:dim].copy()
            vec.setflags(write=False)
            rows.append(vec)
            if vec.nbytes <= MEMO_BYTES:
                while self.held + vec.nbytes > MEMO_BYTES:
                    self.held -= self.entries.popitem(last=False)[1].nbytes
                self.entries[(seed, dim)] = vec
                self.held += vec.nbytes
        return rows


_MEMO = _GaussianMemo()


def gaussian_vector(seed: int, dim: int) -> np.ndarray:
    """dim i.i.d. N(0, 1) draws, bit-identical for identical (seed, dim).

    The result is read-only: it may be the memo's copy, shared by every
    caller that asks for the same (seed, dim).
    """
    seed &= _MASK
    vec = _MEMO.entries.get((seed, dim))
    return _MEMO._generate([(seed, dim)])[0] if vec is None else vec


def prefetch_gaussians(seeds, dim):
    """Fill the gaussian_vector memo for every seed with one gaussian_block.

    dim is one dim for every seed, or a sequence of one dim per seed; the
    block is as wide as the widest, and each row is cut to its own dim.
    Generates nothing unless the whole set fits in MEMO_BYTES, and only the
    (seed, dim) pairs not already held. Held pairs become the most recently
    used, so the set leaves the memo last. Changes no value: later
    gaussian_vector calls return the same bits, served from the memo while
    it still holds them.
    """
    seeds = [s & _MASK for s in seeds]
    dims = [dim] * len(seeds) if isinstance(dim, (int, np.integer)) else dim
    _MEMO.fill(zip(seeds, dims, strict=True))


def gaussians_held(seeds, dims) -> bool:
    """True if the gaussian_vector memo holds every (seed, dims[i]) pair.
    Reads the memo only: no entry is generated or marked used."""
    entries = _MEMO.entries
    return all((seed & _MASK, dim) in entries for seed, dim in zip(seeds, dims, strict=True))


def uniform_stream(seed, n: int) -> np.ndarray:
    """n uniforms in (0, 1) from the counter stream of one seed.

    An array of seeds gives one row of n per seed, (*seed.shape, n), each
    row the stream of its seed alone.
    """
    if isinstance(seed, np.ndarray):
        return _uniforms_from_state(seed.astype(np.uint64, copy=False)[..., None] + _counters(n))
    return _uniforms_from_state(_counters(n) + np.uint64(seed & _MASK))


# -----------------------------------------------------------------------------
# Fixed-order vector arithmetic
# -----------------------------------------------------------------------------

def ordered_mean(vectors) -> np.ndarray:
    """Mean of equal-length vectors, accumulated left-to-right then scaled once.

    The sum starts from vectors[0] + 0.0, a new array with the bits of
    0.0 + vectors[0] (a -0.0 entry becomes 0.0), so the inputs are never
    written and no zeros are built.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("ordered_mean of empty sequence")
    acc = np.asarray(vectors[0], dtype=np.float64) + 0.0
    for v in vectors[1:]:
        if np.shape(v) != acc.shape:
            raise DimensionMismatchError(
                f"ordered_mean: shape mismatch {np.shape(v)} vs {acc.shape}"
            )
        acc += v
    return acc / np.float64(len(vectors))


def ordered_mean_scalar(values) -> float:
    """Mean of floats with left-to-right accumulation."""
    values = list(values)
    if not values:
        raise ValueError("ordered_mean_scalar of empty sequence")
    s = 0.0
    for v in values:
        s += float(v)
    return s / len(values)
