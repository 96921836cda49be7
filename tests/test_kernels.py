"""The fast kernels against their plain spellings, bit for bit.

The layer plan, the softmax reductions and the accuracy count are rewritten
for fewer numpy calls per pass, and so are the per-round helpers outside
the model passes: the shared seed prefixes, the swap indices, the optimizer
run, ordered_mean and the ledger snapshot. Each must give exactly the bytes
of the reference in tests/oracles.py. The server passes and the client
backward also take a stack of clients, and each slice must give exactly the
bytes of the solo call. Both sides run on the same host, so these checks
hold wherever the suite runs, unlike the golden pins.
"""

import contextlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import model, prng, protocol, runner
from splitsim.config import parse_config
from splitsim.errors import DimensionMismatchError, NumericalError
from splitsim.model import ACTIVATIONS, LOSSES, Batch, SplitModelConfig
from splitsim.traffic import MessageKind, TrafficLedger

from oracles import (
    accuracy_reference,
    derive_stream_reference,
    loss_and_grad_reference,
    opt_step_reference,
    ordered_mean_reference,
    partial_shuffle_reference,
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


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10_000), st.integers(0, 2**64 - 1), st.data())
def test_swap_draws_match_reference(n, seed, data):
    k = data.draw(st.one_of(st.integers(0, min(n, 40)), st.integers(0, n)))
    pool, want_pool = list(range(n)), list(range(n))
    got = protocol._partial_shuffle(pool, k, seed)
    assert got == partial_shuffle_reference(want_pool, k, seed)
    assert pool == want_pool  # the same swaps, in place


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
@given(st.lists(st.tuples(st.sampled_from(list(MessageKind)), st.integers(0, 2**40),
                          st.booleans()), max_size=30))
def test_snapshot_matches_reference(records):
    ledger = TrafficLedger()
    for kind, nbytes, by_name in records:
        ledger.record(kind.value if by_name else kind, nbytes)
    got = ledger.snapshot()
    want = snapshot_reference(ledger)
    assert got == want and list(got) == list(want)
