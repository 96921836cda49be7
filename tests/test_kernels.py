"""The fast kernels against their plain spellings, bit for bit.

The layer plan, the softmax reductions and the accuracy count are rewritten
for fewer numpy calls per pass, and so are the per-round helpers outside
the model passes: the shared seed prefixes, the seed chain over arrays, the
swap indices, a window of rounds' clients, batches and direction seeds,
the optimizer run, ordered_mean and the ledger snapshot. Each must give
exactly the bytes of the reference in tests/oracles.py, and so must the
backward passes, which read relu's mask from the layer output and leave
the cut feedback to their caller. The server passes and the client
backward also take a stack of clients, and each slice must give exactly
the bytes of the solo call. Both sides run on the same host, so these
checks hold wherever the suite runs, unlike the golden pins.
"""

import contextlib
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitsim import data as data_mod
from splitsim import model, prng, protocol, runner
from splitsim.config import parse_config
from splitsim.errors import DimensionMismatchError, NumericalError, ProtocolViolationError
from splitsim.model import ACTIVATIONS, LOSSES, Batch, SplitModelConfig
from splitsim.traffic import MessageKind, TrafficLedger

from oracles import (
    accuracy_reference,
    client_backward_reference,
    client_jacobian_reference,
    derive_stream_reference,
    direction_seeds_reference,
    loss_and_grad_reference,
    opt_step_reference,
    ordered_mean_reference,
    partial_shuffle_reference,
    round_draws_reference,
    sample_clients_reference,
    server_forward_backward_reference,
    snapshot_reference,
    unpack_reference,
)

SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "blobs_hosfl.yaml"


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _f64_bytes(x) -> bytes:
    return np.float64(x).tobytes()


@contextlib.contextmanager
def reference_kernels():
    """model with the reference kernels patched in for the fast ones."""
    with mock.patch.object(model, "_unpack", unpack_reference), \
            mock.patch.object(model, "_loss_and_grad", loss_and_grad_reference), \
            mock.patch.object(model, "_accuracy", accuracy_reference):
        yield


@st.composite
def outputs(draw):
    """(y_hat, class labels, float targets) for B in [1, 300] and C in [2, 12]:
    numpy sums rows of 8 or more pairwise. Some entries come from a small
    pool, so rows hold exact ties and both signed zeros; magnitudes reach 1e3."""
    b, c = draw(st.integers(1, 300)), draw(st.integers(2, 12))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    pool = np.array([0.0, -0.0, scale, -scale]
                    + draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3)))
    y_hat = rng.uniform(-scale, scale, (b, c))
    tied = rng.random((b, c)) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    y_hat[tied] = rng.choice(pool, int(tied.sum()))
    return y_hat, rng.integers(0, c, b), rng.uniform(-scale, scale, (b, c))


@settings(max_examples=80, deadline=None)
@given(outputs(), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_loss_and_grad_matches_reference(drawn, n, seed):
    y_hat, classes, targets = drawn
    # a stack of n slices: the drawn one and n - 1 row shuffles of it
    rng = _rng(seed)
    order = [np.arange(len(y_hat))] + [rng.permutation(len(y_hat)) for _ in range(n - 1)]
    for loss, labels in (("softmax_cross_entropy", classes), ("squared_error", targets)):
        cfg = SplitModelConfig((2, 3, y_hat.shape[1]), loss=loss)
        for with_grad in (True, False):
            got, grad = model._loss_and_grad(y_hat.copy(), labels, cfg, with_grad)
            want, want_grad = loss_and_grad_reference(y_hat.copy(), labels, cfg, with_grad)
            assert type(got) is float
            assert _f64_bytes(got) == _f64_bytes(want)
            stack = np.stack([y_hat[o] for o in order])
            label_stack = np.stack([labels[o] for o in order])
            got_n, grad_n = model._loss_and_grad(stack.copy(), label_stack, cfg, with_grad)
            want_n, want_grad_n = loss_and_grad_reference(stack.copy(), label_stack, cfg,
                                                          with_grad)
            assert got_n.shape == want_n.shape == (n,)
            assert got_n.tobytes() == want_n.tobytes()
            if with_grad:
                assert grad.shape == want_grad.shape
                assert grad.tobytes() == want_grad.tobytes()
                assert grad_n.shape == want_grad_n.shape == stack.shape
                assert grad_n.tobytes() == want_grad_n.tobytes()
            else:
                assert grad is None and want_grad is None
                assert grad_n is None and want_grad_n is None


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 300), st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
def test_class_sum_matches_row_reduction(c, rows, seed, data):
    # the class-major sum against np.add.reduce along the rows of the
    # row-major copy; mixed signs, ties and -0.0 so that every order shows
    rng = _rng(seed)
    x = _tied(data.draw, rng, (rows, c), data.draw(st.sampled_from([1e-3, 1.0, 1e3])))
    x *= 10.0 ** rng.integers(-6, 7, x.shape)
    if data.draw(st.booleans()):
        x[data.draw(st.integers(0, rows - 1))] = -0.0
    got = model._class_sum(np.ascontiguousarray(x.T))
    assert got.tobytes() == np.add.reduce(x, axis=1).tobytes()


@settings(max_examples=80, deadline=None)
@given(outputs())
def test_accuracy_matches_reference(drawn):
    y_hat, classes, _ = drawn
    got = model._accuracy(y_hat, classes)
    assert type(got) is float
    assert _f64_bytes(got) == _f64_bytes(accuracy_reference(y_hat, classes))


@st.composite
def networks(draw):
    """A random split network and a full parameter vector for it."""
    dims = tuple(draw(st.lists(st.integers(1, 9), min_size=3, max_size=5)))
    cfg = SplitModelConfig(dims, draw(st.sampled_from(ACTIVATIONS)),
                           draw(st.integers(1, len(dims) - 2)),
                           draw(st.sampled_from(LOSSES)), draw(st.booleans()))
    return cfg, _rng(draw(st.integers(0, 2**32 - 1)))


def _same_params(got, want):
    assert len(got) == len(want)
    for (w, b), (w_ref, b_ref) in zip(got, want):
        assert w.shape == w_ref.shape and w.tobytes() == w_ref.tobytes()
        assert np.shares_memory(w, w_ref)
        if b_ref is None:
            assert b is None
        else:
            assert b.shape == b_ref.shape and b.tobytes() == b_ref.tobytes()
            assert np.shares_memory(b, b_ref)


@settings(max_examples=80, deadline=None)
@given(networks(), st.integers(1, 4))
def test_unpack_matches_reference(net, n):
    cfg, rng = net
    for client, width in ((True, cfg.d_c), (False, cfg.d_s)):
        for theta in (rng.standard_normal(width), rng.standard_normal((n, width))):
            _same_params(model._unpack(theta, cfg, client),
                         unpack_reference(theta, cfg, client))
        for bad in (np.zeros(width + 1), np.zeros(())):
            with pytest.raises(DimensionMismatchError):
                model._unpack(bad, cfg, client)


@settings(max_examples=40, deadline=None)
@given(networks(), st.integers(1, 40))
def test_evaluate_model_matches_reference(net, b):
    cfg, rng = net
    theta = rng.standard_normal(cfg.d)
    x = rng.standard_normal((b, cfg.n_in))
    if cfg.loss == "softmax_cross_entropy":
        labels = rng.integers(0, cfg.n_out, b)
    else:
        labels = rng.standard_normal((b, cfg.n_out))
    batch = Batch(x, labels)
    got = model.evaluate_model(theta, batch, cfg)
    with reference_kernels():
        want = model.evaluate_model(theta, batch, cfg)
    assert _f64_bytes(got[0]) == _f64_bytes(want[0])
    assert (got[1] is None) == (want[1] is None)
    if want[1] is not None:
        assert _f64_bytes(got[1]) == _f64_bytes(want[1])


@st.composite
def stacked_networks(draw):
    """A split network of 2 to 5 layers with C in [2, 12] outputs, its
    parameters, and a stack of n in [1, 9] client batches of B in [1, 300]
    rows with their labels."""
    hidden = draw(st.lists(st.integers(1, 9), min_size=2, max_size=5))
    dims = (*hidden, draw(st.integers(2, 12)))
    cfg = SplitModelConfig(dims, draw(st.sampled_from(ACTIVATIONS)),
                           draw(st.integers(1, len(dims) - 2)),
                           draw(st.sampled_from(LOSSES)), draw(st.booleans()))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    n, b = draw(st.integers(1, 9)), draw(st.integers(1, 300))
    if cfg.loss == "softmax_cross_entropy":
        labels = rng.integers(0, cfg.n_out, (n, b))
    else:
        labels = rng.standard_normal((n, b, cfg.n_out))
    return cfg, rng.standard_normal(cfg.d), rng.standard_normal((n, b, cfg.n_in)), labels


def _same_float(got, want):
    assert type(got) is float
    assert _f64_bytes(got) == np.asarray(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(stacked_networks())
def test_stacked_passes_match_solo_calls(drawn):
    cfg, theta, x, labels = drawn
    theta_c, theta_s = theta[:cfg.d_c], theta[cfg.d_c:]
    halves = theta_s + 0.01 * _rng(len(x)).standard_normal((len(x), cfg.d_s))
    z = model.client_forward(theta_c, x, cfg)
    losses, g_s, lam = model.server_forward_backward(theta_s, z, labels, cfg)
    g_c = model.client_backward_from_lambda(theta_c, x, lam, cfg)
    shared = model.server_loss(theta_s, z, labels, cfg)
    own = model.server_loss(halves, z, labels, cfg)
    assert (losses.shape, g_s.shape, lam.shape) == ((len(x),), (len(x), cfg.d_s), z.shape)
    assert g_c.shape == (len(x), cfg.d_c) and shared.shape == own.shape == (len(x),)
    for i in range(len(x)):
        z_i = model.client_forward(theta_c, x[i], cfg)
        assert z_i.tobytes() == z[i].tobytes()
        loss, g, lam_i = model.server_forward_backward(theta_s, z_i, labels[i], cfg)
        _same_float(loss, losses[i])
        assert g.shape == (cfg.d_s,) and g.tobytes() == g_s[i].tobytes()
        assert lam_i.shape == z_i.shape and lam_i.tobytes() == lam[i].tobytes()
        g_ci = model.client_backward_from_lambda(theta_c, x[i], lam_i, cfg)
        assert g_ci.shape == (cfg.d_c,) and g_ci.tobytes() == g_c[i].tobytes()
        _same_float(model.server_loss(theta_s, z_i, labels[i], cfg), shared[i])
        _same_float(model.server_loss(halves[i], z_i, labels[i], cfg), own[i])


def test_stack_reports_first_failing_layer_then_loss():
    # slice 0 overflows only at its loss, slice 1 in server layer 1: the
    # stack names the layer, though slice 0 alone names the loss
    cfg = SplitModelConfig((1, 1, 1, 1), "identity", 1, "squared_error", bias=False)
    theta_s = np.array([1e10, 1.0])
    z = np.array([[[1e200]], [[1e300]]])
    labels = np.array([[-1e210], [0.0]])
    with np.errstate(over="ignore"):
        for call in (model.server_loss, model.server_forward_backward):
            for acts, targets, message in (
                    (z[0], labels[0], "non-finite loss"),
                    (z[:1], labels[:1], "non-finite loss"),
                    (z, labels, "non-finite values after server layer 1")):
                with pytest.raises(NumericalError, match=message):
                    call(theta_s, acts, targets, cfg)


@st.composite
def backward_networks(draw):
    """A split network of 2 to 5 layers, its parameters, and a stack of n in
    [1, 4] client batches of B in [1, 12] rows with their labels. Some
    examples draw inputs and weights from small integers, so relu
    pre-activations hit exactly 0.0 (and -0.0) and the mask's edge shows."""
    hidden = draw(st.lists(st.integers(1, 7), min_size=2, max_size=5))
    dims = (*hidden, draw(st.integers(2, 6)))
    cfg = SplitModelConfig(dims, draw(st.sampled_from(ACTIVATIONS)),
                           draw(st.integers(1, len(dims) - 2)),
                           draw(st.sampled_from(LOSSES)), draw(st.booleans()))
    rng = _rng(draw(st.integers(0, 2**32 - 1)))
    n, b = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        theta = rng.integers(-2, 3, cfg.d).astype(np.float64)
        x = rng.integers(-2, 3, (n, b, cfg.n_in)).astype(np.float64)
    else:
        theta, x = rng.standard_normal(cfg.d), rng.standard_normal((n, b, cfg.n_in))
    if cfg.loss == "softmax_cross_entropy":
        labels = rng.integers(0, cfg.n_out, (n, b))
    else:
        labels = rng.standard_normal((n, b, cfg.n_out))
    return cfg, theta, x, labels


def _same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(backward_networks())
def test_backward_passes_match_reference(drawn):
    # relu's mask from the layer output and the cut feedback formed by the
    # caller give the bits of the mask from the pre-activation and the input
    # gradient formed inside the chain rule
    cfg, theta, x, labels = drawn
    theta_c, theta_s = theta[:cfg.d_c], theta[cfg.d_c:]
    z = model.client_forward(theta_c, x, cfg)
    for acts, targets in ((z, labels), (z[0], labels[0])):
        got = model.server_forward_backward(theta_s, acts, targets, cfg)
        want = server_forward_backward_reference(theta_s, acts, targets, cfg)
        for got_part, want_part in zip(got, want):
            _same_array(got_part, want_part)
    lam = model.server_forward_backward(theta_s, z, labels, cfg)[2]
    # solo and stacked: feedback of the forward's own shape
    for inputs, feedback in ((x, lam), (x[0], lam[0])):
        _same_array(model.client_backward_from_lambda(theta_c, inputs, feedback, cfg),
                    client_backward_reference(theta_c, inputs, feedback, cfg))
    # handed the activations of the solo forwards (stacked, as the sfl round
    # hands its K uploads), only the layers before the cut layer rerun
    z_solo = np.array([model.client_forward(theta_c, inputs, cfg) for inputs in x])
    for inputs, feedback, acts in ((x, lam, z_solo), (x[0], lam[0], z_solo[0])):
        _same_array(model.client_backward_from_lambda(theta_c, inputs, feedback, cfg, acts),
                    client_backward_reference(theta_c, inputs, feedback, cfg))
    # an extra feedback axis over one forward: one reference call per feedback
    for inputs, feedback in ((x[0], lam), (x, np.stack([lam, lam[::-1]]))):
        _same_array(model.client_backward_from_lambda(theta_c, inputs, feedback, cfg),
                    np.stack([client_backward_reference(theta_c, inputs, f, cfg)
                              for f in feedback]))
    batch = Batch(x[0], labels[0])
    _same_array(model.client_jacobian(theta_c, batch, cfg),
                client_jacobian_reference(theta_c, batch, cfg))


def test_client_jacobian_blocks_bound_memory():
    # the B * D = 2048 unit feedbacks at B=128 run in byte-bounded blocks:
    # the same bytes as one backward per unit, in a small share of the 32 MB
    # identity stack
    cfg = SplitModelConfig((8, 16, 2))
    theta_c = model.init_params(cfg, 3)[:cfg.d_c]
    batch = Batch(_rng(4).standard_normal((128, 8)), np.zeros(128, dtype=np.int64))
    tracemalloc.start()
    try:
        jac = model.client_jacobian(theta_c, batch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    _same_array(jac, client_jacobian_reference(theta_c, batch, cfg))


# Shapes the golden pins do not run, as edits of the shipped config
SHAPES = {
    "three-clients": {"hp": {"K": 3}},
    "twelve-classes": {"model": {"layer_dims": [8, 16, 12]}},
    "batch-of-one": {"hp": {"batch_size": 1}},
    "relu-cut-2": {"model": {"layer_dims": [8, 16, 9, 5], "activation": "relu",
                             "cut_index": 2}},
    "squared-error": {"model": {"loss": "squared_error"}, "partition": {"mode": "iid", "alpha": None},
                      "data": {"separation": None}},
}
ROUNDS = 40


def _shape_config(shape: str, proto: str):
    raw = yaml.safe_load(SHIPPED.read_text())
    raw["protocol"] = proto
    for section, edits in SHAPES[shape].items():
        raw[section].update(edits)
        raw[section] = {k: v for k, v in raw[section].items() if v is not None}
    raw["sample_budget"] = ROUNDS * raw["hp"]["K"] * raw["hp"]["batch_size"]
    return parse_config(yaml.safe_dump(raw))


@pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_run_equals_reference_run(shape, proto, tmp_path):
    cfg = _shape_config(shape, proto)
    result = runner.run_experiment(cfg)
    assert len(result.records) == ROUNDS
    fast = runner.write_outputs(result, tmp_path / "fast")
    with reference_kernels():
        reference = runner.write_outputs(runner.run_experiment(cfg), tmp_path / "reference")
    assert sorted(fast) == sorted(reference) == ["checksum", "metrics", "traffic"]
    for label, path in fast.items():
        assert path.read_bytes() == reference[label].read_bytes(), label


# -----------------------------------------------------------------------------
# Per-round helpers outside the model passes
# -----------------------------------------------------------------------------

def _tied(draw, rng, shape, scale):
    """Uniform entries in [-scale, scale], some taken from a pool of both
    signed zeros, +-scale and a few drawn floats, so exact ties and -0.0
    turn up often."""
    pool = np.array([0.0, -0.0, -0.0, scale, -scale]
                    + draw(st.lists(st.floats(-scale, scale), min_size=1, max_size=3)))
    x = rng.uniform(-scale, scale, shape)
    tied = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    x[tied] = rng.choice(pool, int(tied.sum()))
    return x


_coords = st.integers(-2**70, 2**70)


@settings(max_examples=200, deadline=None)
@given(_coords, st.lists(_coords, max_size=5), st.data())
def test_extended_seed_matches_whole_chain(root, parts, data):
    cut = data.draw(st.integers(0, len(parts)))
    want = derive_stream_reference(root, *parts)
    assert prng.derive_stream(root, *parts) == want
    assert prng.extend_stream(prng.derive_stream(root, *parts[:cut]), *parts[cut:]) == want


# the 64-bit values at the ends and middle of the range, and any in between
_u64 = st.one_of(st.sampled_from([0, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))
_i64 = st.one_of(st.sampled_from([-2**63, -1, 0, 2**63 - 1]), st.integers(-2**63, 2**63 - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(_u64, min_size=1, max_size=6), st.lists(_coords, max_size=4), st.data())
def test_seed_chain_over_arrays_matches_scalar_chain(roots, parts, data):
    # each coordinate is one Python int for every row, a numpy uint64 or
    # int64 scalar of its bits mod 2**64, or a uint64 or int64 array of
    # per-row values; row i must be the scalar chain on row i's values
    n = len(roots)
    cols, arrays = [], []
    for v in parts:
        kind = data.draw(st.sampled_from(["int", "np.uint64", "np.int64", "uint64", "int64"]))
        if kind == "int":
            cols.append([v] * n)
            arrays.append(v)
        elif kind == "np.uint64":
            cols.append([v] * n)
            arrays.append(np.uint64(v % 2**64))
        elif kind == "np.int64":
            cols.append([v] * n)
            arrays.append(np.int64((v + 2**63) % 2**64 - 2**63))
        else:
            vals = data.draw(st.lists(_u64 if kind == "uint64" else _i64, min_size=n, max_size=n))
            cols.append(vals)
            arrays.append(np.array(vals, dtype=kind))
    rows = [[col[i] for col in cols] for i in range(n)]
    want = [derive_stream_reference(root, *row) for root, row in zip(roots, rows)]
    root_array = np.array(roots, dtype=np.uint64)
    got = prng.derive_stream(root_array, *arrays)
    assert got.dtype == np.uint64 and got.tolist() == want
    cut = data.draw(st.integers(0, len(arrays)))
    assert prng.extend_stream(prng.derive_stream(root_array, *arrays[:cut]),
                              *arrays[cut:]).tolist() == want
    # a Python-int root, the same root as a numpy uint64 scalar and as the
    # int64 scalar of its bits (taken as its int, with no overflow warning),
    # and a 0-d root array, with the same coordinates
    by_row = [derive_stream_reference(roots[0], *row) for row in rows]
    for root in (roots[0], np.uint64(roots[0]), np.int64((roots[0] + 2**63) % 2**64 - 2**63)):
        got = prng.derive_stream(root, *arrays)
        if any(isinstance(a, np.ndarray) for a in arrays):
            assert got.tolist() == by_row
        else:
            assert type(got) is int and [got] * n == by_row
    got = prng.derive_stream(np.array(roots[0], dtype=np.uint64), *arrays)
    assert got.shape == np.broadcast_shapes(*(np.shape(a) for a in arrays))
    assert np.broadcast_to(got, (n,)).tolist() == by_row


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10_000), st.integers(0, 2**64 - 1), st.data())
def test_swap_draws_match_reference(n, seed, data):
    k = data.draw(st.one_of(st.integers(0, min(n, 40)), st.integers(0, n)))
    pool, want_pool = np.arange(n), list(range(n))
    u = prng.uniform_stream(np.array([seed], dtype=np.uint64), k)
    got = protocol._partial_shuffle(pool, np.array([n]), u)
    assert got.tolist() == [partial_shuffle_reference(want_pool, k, seed)]
    assert pool.tolist() == want_pool  # the same swaps, in place


def _drawing_sim(proto, m, data, shards=None):
    """A Simulation of m clients that _round_draws can draw from, with iid
    or dirichlet shards of about b rows unless shards are given; returns
    it and the dtype of its row indices."""
    k = data.draw(st.integers(1, m))
    b = data.draw(st.integers(1, 12))
    if shards is None:
        seed = data.draw(st.integers(0, 2**32 - 1))
        # iid shards of b - 1, b or b + 1 rows; dirichlet shards spread wider
        n = max(m, m * b + data.draw(st.integers(-(m - 1), m - 1)))
        if data.draw(st.booleans()):
            shards = data_mod.iid_partition(n, m, seed)
        else:
            labels = _rng(seed).integers(0, 3, n)
            shards = data_mod.dirichlet_partition(labels, m, 1.0, seed)
        assume(all(len(shard) for shard in shards))
    else:
        n = sum(map(len, shards))
    clients = {cid: protocol.ClientState(cid, np.zeros(1), shard)
               for cid, shard in enumerate(shards, start=1)}
    zo = protocol.ZoConfig(P=data.draw(st.integers(1, 12)))
    hp = protocol.HyperParams(eta=0.1, M=m, K=k, batch_size=b, zo=zo)
    # rows beyond the shards' make the row indices uint8, uint16 or uint32
    size = n + data.draw(st.sampled_from([0, 300, 70_000]))
    dataset = Batch(np.zeros((size, 1)), np.zeros(size, dtype=np.int64))
    sim = protocol.Simulation(proto, None, hp, dataset, None, None, clients, None,
                              data.draw(st.integers(0, 2**64 - 1)))
    return sim, np.min_scalar_type(size - 1)


def _round_bytes(sim, index) -> int:
    """Bytes of one round in the larger of a window's two tables."""
    hp = sim.hp
    seeds = {"hosfl": hp.zo.P, "zosfl": 2 * hp.K}.get(sim.protocol, 0)
    return max(index.itemsize * hp.K * hp.batch_size, 8 * seeds)


def _assert_round_matches(sim, t, index):
    """Round t's draws and direction seeds from the window are those of
    the round drawn alone."""
    selected, rows, seeds = protocol._round_draws(sim, t)
    want_selected, want_rows = round_draws_reference(sim, t)
    assert selected == want_selected
    assert rows.dtype == index and rows.tolist() == want_rows
    want_seeds = direction_seeds_reference(sim, t, selected)
    if want_seeds is None:
        assert seeds is None
    else:
        assert seeds.dtype == np.uint64 and seeds.tolist() == want_seeds


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["hosfl", "sfl", "zosfl"]), st.integers(1, 12), st.data())
def test_window_draws_match_round_by_round(proto, m, data):
    # rounds drawn a window at a time give each round's clients, batch rows
    # and direction seeds as the round drawn alone does; windows of w
    # rounds, from an unaligned round, across at least two window boundaries
    sim, index = _drawing_sim(proto, m, data)
    w = data.draw(st.integers(1, 4))
    t0 = data.draw(st.integers(1, 10**6))
    one_round = _round_bytes(sim, index)
    window_bytes = one_round * w + data.draw(st.integers(0, one_round - 1))
    starts = set()
    with mock.patch.object(protocol, "WINDOW_BYTES", window_bytes):
        for t in range(t0, t0 + 2 * w + 1 + data.draw(st.integers(0, 3))):
            _assert_round_matches(sim, t, index)
            starts.add(sim.window[0])
            assert len(sim.window[1]) == w
    assert len(starts) >= 3 and max(starts) >= t0 + 2 * w


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["hosfl", "sfl", "zosfl"]), st.integers(2, 8), st.data())
def test_window_cut_by_an_empty_shard(proto, m, data):
    # the window ends before the first round that samples a client with an
    # empty shard, its seed table with it, and that round raises
    shards = [np.arange(8 * cid - 8, 8 * cid) for cid in range(1, m + 1)]
    sim, index = _drawing_sim(proto, m, data, shards)
    assume(sim.hp.K < m)
    w = data.draw(st.integers(2, 8))
    t0 = data.draw(st.integers(0, 10**6))
    picks = [sample_clients_reference(m, sim.hp.K, derive_stream_reference(
        sim.root_seed, prng.STREAM_SAMPLING, t)) for t in range(t0, t0 + w)]
    first = {}
    for i, row in enumerate(picks):
        for cid in row:
            first.setdefault(cid, i)
    cut, cid = max((i, cid) for cid, i in first.items())
    assume(cut > 0)
    sim.clients[cid].shard = np.arange(0)
    with mock.patch.object(protocol, "WINDOW_BYTES", _round_bytes(sim, index) * w):
        for t in range(t0, t0 + cut):
            _assert_round_matches(sim, t, index)
            start, clients, rows, seeds = sim.window
            assert (start, len(clients), len(rows)) == (t0, cut, cut)
            assert seeds is None if proto == "sfl" else len(seeds) == cut
        with pytest.raises(ProtocolViolationError, match="empty data shard"):
            protocol._round_draws(sim, t0 + cut)


def test_round_record_seeds_are_python_ints():
    result = runner.run_experiment(parse_config(SHIPPED.read_text()))
    history = result.sim.server.history
    assert history
    for record in history.values():
        assert type(record.seeds) is tuple
        assert all(type(seed) is int for seed in record.seeds)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(protocol.OPTIMIZERS), st.integers(1, 130), st.integers(1, 300),
       st.integers(0, 10**6), st.integers(0, 2**32 - 1), st.data())
def test_opt_step_matches_row_by_row(optimizer, n, d, step0, seed, data):
    rng = _rng(seed)
    scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    theta, grads = _tied(data.draw, rng, d, scale), _tied(data.draw, rng, (n, d), scale)
    m0, v0 = _tied(data.draw, rng, d, scale), np.abs(_tied(data.draw, rng, d, scale))
    eta = data.draw(st.sampled_from([1e-3, 0.01, 0.1, 1.0, 50.0]))
    inputs = theta.tobytes(), grads.tobytes()

    def state():
        if optimizer == "sgd":
            return None
        return protocol.AdamState(m0.copy(), v0.copy(), step0) if step0 else None

    got, got_state = protocol._opt_step(optimizer, state(), theta, grads, eta)
    want, want_state = opt_step_reference(optimizer, state(), theta, grads, eta)
    assert (theta.tobytes(), grads.tobytes()) == inputs
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.base is None  # owns its memory: no (n + 1, d) block kept alive
    if optimizer == "adam":
        assert got_state.m.tobytes() == want_state.m.tobytes()
        assert got_state.v.tobytes() == want_state.v.tobytes()
        assert got_state.step == want_state.step == step0 + n
    else:
        assert got_state is want_state is None


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(1, 300), st.floats(1e-4, 50.0), st.integers(0, 2**32 - 1),
       st.data())
def test_baseline_steps_match_one_row_steps(k, d_c, eta, seed, data):
    # the K local sgd steps of a baseline round, one array expression, then
    # their mean: each row has the bits of that client's one-row step
    rng = _rng(seed)
    scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0, 1e3]))
    theta, grads = _tied(data.draw, rng, d_c, scale), _tied(data.draw, rng, (k, d_c), scale)
    cfg = SplitModelConfig((1, d_c, 1), "identity", 1, "squared_error", bias=False)
    hp = protocol.HyperParams(eta=eta, M=k, K=k, batch_size=1)
    server = protocol.ServerState(theta_s=np.zeros(1), theta_c_global=theta)
    sim = protocol.Simulation("sfl", cfg, hp, None, None, server, {}, TrafficLedger(), 0)
    norm = protocol._local_steps_and_average(sim, grads)
    want = ordered_mean_reference([opt_step_reference("sgd", None, theta, grads[i:i + 1], eta)[0]
                                   for i in range(k)])
    assert sim.server.theta_c_global.tobytes() == want.tobytes()
    assert norm == float(np.linalg.norm(ordered_mean_reference(grads)))
    assert sim.ledger.totals[MessageKind.MODEL_UP] == k * 8 * d_c


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 300), st.integers(0, 2**32 - 1), st.data())
def test_ordered_mean_matches_zero_started_sum(count, d, seed, data):
    rng = _rng(seed)
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    vectors = [_tied(data.draw, rng, d, scale) for _ in range(count)]
    if data.draw(st.booleans()):  # leading columns that are -0.0 in every vector
        cols = data.draw(st.integers(1, d))
        for v in vectors:
            v[:cols] = -0.0
    before = [v.tobytes() for v in vectors]
    got = prng.ordered_mean(vectors)
    assert got.tobytes() == ordered_mean_reference(vectors).tobytes()
    assert [v.tobytes() for v in vectors] == before
    assert not any(np.shares_memory(got, v) for v in vectors)


def test_ordered_mean_of_negative_zero_is_positive_zero():
    for vectors in ([np.array([-0.0])], [np.array([-0.0]), np.array([-0.0])]):
        got = prng.ordered_mean(vectors)
        assert got.tobytes() == ordered_mean_reference(vectors).tobytes() == b"\0" * 8


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(list(MessageKind)), st.integers(0, 2**40)),
                max_size=30))
def test_snapshot_matches_reference(records):
    ledger = TrafficLedger()
    for kind, nbytes in records:
        ledger.record(kind, nbytes)
    got = ledger.snapshot()
    want = snapshot_reference(ledger)
    assert got == want and list(got) == list(want)
