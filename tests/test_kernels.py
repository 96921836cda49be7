"""model.py's fast kernels against their plain numpy spellings, bit for bit.

The layer plan, the softmax reductions and the accuracy count are rewritten
for fewer numpy calls per pass; each must give exactly the bytes of the
reference in tests/oracles.py. Both sides run on the same host, so these
checks hold wherever the suite runs, unlike the golden pins.
"""

import contextlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import model, runner
from splitsim.config import parse_config
from splitsim.errors import DimensionMismatchError
from splitsim.model import ACTIVATIONS, LOSSES, Batch, SplitModelConfig

from oracles import accuracy_reference, loss_and_grad_reference, unpack_reference

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
@given(outputs())
def test_loss_and_grad_matches_reference(drawn):
    y_hat, classes, targets = drawn
    for loss, labels in (("softmax_cross_entropy", classes), ("squared_error", targets)):
        cfg = SplitModelConfig((2, 3, y_hat.shape[1]), loss=loss)
        for with_grad in (True, False):
            got, grad = model._loss_and_grad(y_hat.copy(), labels, cfg, with_grad)
            want, want_grad = loss_and_grad_reference(y_hat.copy(), labels, cfg, with_grad)
            assert type(got) is float
            assert _f64_bytes(got) == _f64_bytes(want)
            if with_grad:
                assert grad.shape == want_grad.shape
                assert grad.tobytes() == want_grad.tobytes()
            else:
                assert grad is None and want_grad is None


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


# Shapes the golden pins do not run, as edits of the shipped config
SHAPES = {
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
