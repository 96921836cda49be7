"""Small dense split networks with hand-written forward and backward passes.

No autodiff framework: each layer is a linear map plus an elementwise
activation, and gradients are computed by explicit chain rule. This keeps
every operation bitwise deterministic and dependency-free. One layer stack
does all the arithmetic: _forward runs any run of layers (the client half,
the server half, or a stack of client parameter vectors at once) and
_backward runs the chain rule back through it, so every public pass is a
thin wrapper and the stacked forward matches the single one byte for byte.

The server passes and the client backward also take a leading stack axis:
n activations (n, B, D) or n client input batches (n, B, n_in), with
labels (n, B) or (n, B, C), and for server_loss optionally an (n, d_s)
stack of server halves. One call then serves n clients, and slice i has
the bits of the solo call on slice i.

Parameter layout: layers are packed in order into one flat float64 vector,
each layer as row-major weights (in_dim x out_dim) followed by the bias
(out_dim) when biases are enabled. The split point divides the flat vector
into a client part (layers before the cut) and a server part (the rest).

Loss convention: losses are batch means, so the activation-gradient feedback
is the gradient of the mean loss with respect to the cut activation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import prng
from .errors import DimensionMismatchError, NumericalError

ACTIVATIONS = ("identity", "tanh", "relu")
LOSSES = ("squared_error", "softmax_cross_entropy")


@dataclass(frozen=True)
class SplitModelConfig:
    """Geometry and semantics of one split network.

    layer_dims includes the input width, so a network with n layers has
    n + 1 entries. Layers [0, cut_index) live on the client; the cut
    activation has width layer_dims[cut_index]. The final layer is always
    linear; every other layer applies the configured activation.
    d_c and d_s, the client and server parameter counts, are computed once,
    and so is the layer plan: per half (client, server), one
    (w_lo, w_hi, (in, out), bias slice or None) per layer, offsets taken
    within that half's flat vector.
    """

    layer_dims: tuple[int, ...]
    activation: str = "tanh"
    cut_index: int = 1
    loss: str = "squared_error"
    bias: bool = True
    d_c: int = field(init=False, repr=False, compare=False)
    d_s: int = field(init=False, repr=False, compare=False)
    layer_plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths = tuple(self.layer_dims)
        if any(isinstance(d, bool) or int(d) != d for d in widths):
            raise ValueError(f"layer widths must be integers, got {widths}")
        object.__setattr__(self, "layer_dims", tuple(int(d) for d in widths))
        if len(self.layer_dims) < 2:
            raise ValueError("layer_dims needs at least input and output widths")
        if any(d < 1 for d in self.layer_dims):
            raise ValueError("all layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if not 0 < self.cut_index < self.n_layers:
            raise ValueError(
                f"cut_index must lie strictly inside [0, {self.n_layers}]"
            )
        client, d_c = self._half_plan(0, self.cut_index)
        server, d_s = self._half_plan(self.cut_index, self.n_layers)
        object.__setattr__(self, "d_c", d_c)
        object.__setattr__(self, "d_s", d_s)
        object.__setattr__(self, "layer_plan", (client, server))

    def _half_plan(self, lo: int, hi: int) -> tuple:
        plan, off = [], 0
        for i in range(lo, hi):
            ni, no = self.layer_dims[i], self.layer_dims[i + 1]
            w_hi = off + ni * no
            bias = slice(w_hi, w_hi + no) if self.bias else None
            plan.append((off, w_hi, (ni, no), bias))
            off = w_hi + no if self.bias else w_hi
        return tuple(plan), off

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    @property
    def n_in(self) -> int:
        return self.layer_dims[0]

    @property
    def n_out(self) -> int:
        return self.layer_dims[-1]

    @property
    def cut_width(self) -> int:
        return self.layer_dims[self.cut_index]

    @property
    def d(self) -> int:
        return self.d_c + self.d_s


@dataclass
class Batch:
    """One minibatch: inputs (B x n_in) and labels.

    Labels are class indices (B,) for softmax_cross_entropy and float
    targets (B x n_out) for squared_error.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # an ndarray that already has the dtype is kept as it is, not copied
        if type(self.inputs) is not np.ndarray or self.inputs.dtype != np.float64:
            self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise DimensionMismatchError("batch inputs must be a non-empty 2-D matrix")
        labels = np.asarray(self.labels)
        if labels.dtype.kind in "iu":  # any integer dtype
            self.labels = labels.astype(np.int64, copy=False)
        else:
            self.labels = np.atleast_2d(np.asarray(labels, dtype=np.float64))
            if self.labels.shape[0] == 1 and self.inputs.shape[0] != 1:
                self.labels = self.labels.T
        if self.labels.shape[0] != self.inputs.shape[0]:
            raise DimensionMismatchError("batch inputs and labels disagree on size")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def _act(name: str, x: np.ndarray) -> np.ndarray:
    if name == "identity":
        return x
    if name == "tanh":
        return np.tanh(x)
    return np.maximum(x, 0.0)


def _unpack(theta: np.ndarray, cfg: SplitModelConfig, client: bool):
    """Views of (W, b) for the client layers (or the server layers) out of a
    flat vector.

    A stack of vectors, theta of shape (..., n), gives W of shape
    (..., in, out) and b of shape (..., 1, out).
    """
    plan, expected = (cfg.layer_plan[0], cfg.d_c) if client else (cfg.layer_plan[1], cfg.d_s)
    if theta.ndim < 1 or theta.shape[-1] != expected:
        raise DimensionMismatchError(
            f"parameter vector has length {theta.shape}, expected ({expected},)"
        )
    lead = theta.shape[:-1]
    return [(theta[..., w_lo:w_hi].reshape(lead + shape),
             None if bias is None else theta[..., None, bias])
            for w_lo, w_hi, shape, bias in plan]


# -----------------------------------------------------------------------------
# The layer stack: one forward and one backward serve every pass
# -----------------------------------------------------------------------------

def _forward(params, x, cfg, linear_last):
    """(hs, pres): hs[k] is the input of layer k, hs[-1] the stack output,
    pres[k] the pre-activation of layer k. The last layer skips the
    activation when linear_last is set."""
    hs, pres = [x], []
    last = len(params) - 1
    for k, (w, b) in enumerate(params):
        pre = hs[-1] @ w
        if b is not None:
            pre = pre + b
        pres.append(pre)
        hs.append(pre if linear_last and k == last else _act(cfg.activation, pre))
    return hs, pres


def _backward(params, hs, pres, delta, cfg, linear_last):
    """Chain rule from delta = gradient w.r.t. the output back through what
    _forward ran on one parameter vector (not a stack). Returns the flat
    parameter gradient (layout as in _unpack) and the gradient w.r.t. x.

    Data stacked along a leading axis, hs[k] of shape (n, B, width), gives
    one flat gradient per slice, (n, len), each with the bits of its slice
    run alone: every product is one matrix product per slice.
    """
    pieces = []
    last = len(params) - 1
    lead = delta.shape[:-2]
    for k in range(last, -1, -1):
        w, b = params[k]
        if not (linear_last and k == last):
            if cfg.activation == "tanh":
                h = hs[k + 1]
                delta = delta * (1.0 - h * h)
            elif cfg.activation == "relu":
                # relu subgradient at 0 is defined as 0
                delta = delta * (pres[k] > 0.0)
        if b is not None:
            pieces.append(delta.sum(axis=-2))
        pieces.append((hs[k].swapaxes(-1, -2) @ delta).reshape(lead + (-1,)))
        delta = delta @ w.T
    return np.concatenate(pieces[::-1], axis=-1), delta


def _client_forward_cached(theta_c, batch, cfg):
    x = batch.inputs if isinstance(batch, Batch) else np.asarray(batch, dtype=np.float64)
    if x.shape[-1] != cfg.n_in:
        raise DimensionMismatchError(
            f"inputs have width {x.shape[-1]}, model expects {cfg.n_in}"
        )
    params = _unpack(np.asarray(theta_c, dtype=np.float64), cfg, client=True)
    return (params, *_forward(params, x, cfg, linear_last=False))


def _server_forward_cached(theta_s, z, cfg):
    """Server layers on z; the first layer with a non-finite value anywhere
    in it, in any slice of a stack, raises NumericalError."""
    params = _unpack(np.asarray(theta_s, dtype=np.float64), cfg, client=False)
    hs, pres = _forward(params, np.asarray(z, dtype=np.float64), cfg, linear_last=True)
    for k, pre in enumerate(pres):
        if not np.isfinite(pre).all():
            raise NumericalError(f"non-finite values after server layer {cfg.cut_index + k}")
    return params, hs, pres


# -----------------------------------------------------------------------------
# Forward passes
# -----------------------------------------------------------------------------

def client_forward(theta_c: np.ndarray, batch, cfg: SplitModelConfig) -> np.ndarray:
    """Cut-layer activation (B x D) for the client half. Pure and deterministic.

    theta_c may also be an (n, d_c) stack of parameter vectors: the result
    is then (n, B, D), and row i is byte-identical to the forward of
    theta_c[i] alone.
    """
    return _client_forward_cached(theta_c, batch, cfg)[1][-1]


def _class_sum(e: np.ndarray) -> np.ndarray:
    """Column sums of a class-major (C, N) block, with the bits of
    np.add.reduce(e.T, axis=1) on the row-major (N, C) copy.

    That reduction starts from 0.0 and adds each row pairwise: one by one
    below 8 classes; up to 128 as 8 running sums over blocks of 8, combined
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the
    leftovers one by one; above 128 as the sums of two halves, the first
    cut to a multiple of 8. The same additions run here on whole rows of
    the class-major block, each a contiguous (N,) vector. Each partial sum
    starts from 0.0 through np.add.reduce, so a sum of -0.0 entries is 0.0
    as there.
    """
    c = len(e)
    if c < 8:
        return np.add.reduce(e, axis=0)
    if c > 128:
        half = c // 2 - c // 2 % 8
        return _class_sum(e[:half]) + _class_sum(e[half:])
    whole = c - c % 8
    r = np.add.reduce(e[:whole].reshape(whole // 8, 8, -1), axis=0)
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    acc = r[0] + r[1]
    for row in e[whole:]:
        acc += row
    return acc


def _batch_means(terms: np.ndarray, b: int, lead: tuple):
    """Batch mean of each slice's terms, a float for a solo pass and an (n,)
    array for a stack of n: np.add.reduce over the slice, as np.sum and
    np.mean call it, then one division."""
    if not lead:
        return float(np.add.reduce(terms, axis=None) / b)
    return np.add.reduce(terms.reshape(lead[0], -1), axis=1) / b


def _loss_and_grad(y_hat: np.ndarray, labels, cfg: SplitModelConfig, with_grad: bool = True):
    """Batch-mean loss and its gradient w.r.t. the network output (None
    unless with_grad is set).

    y_hat is one (B, C) output, with (B,) or (B, C) labels, or an (n, B, C)
    stack with (n, B) or (n, B, C) labels; a stack gives an (n,) array of
    losses. The elementwise work runs on all n * B rows at once, then each
    slice takes its own batch mean, so slice i has the bits of the solo call.
    """
    b, c = y_hat.shape[-2:]
    lead = y_hat.shape[:-2]
    if cfg.loss == "squared_error":
        y = np.asarray(labels, dtype=np.float64)
        if y.ndim == y_hat.ndim - 1:
            y = y[..., None]
        if y.shape != y_hat.shape:
            raise DimensionMismatchError(
                f"labels {y.shape} do not match outputs {y_hat.shape}"
            )
        diff = y_hat - y
        loss = _batch_means(diff * diff, b, lead)
        return loss, 2.0 * diff / b if with_grad else None
    y = np.asarray(labels)
    if y.shape != y_hat.shape[:-1]:
        raise DimensionMismatchError(
            "class labels must be a (B,) index vector, or (n, B) for a stack")
    # Class-major: the row max (exact) runs down the contiguous columns of
    # the transposed copy, and the shift, exp and class sum along its
    # contiguous rows, each with the bits of the row-major spelling.
    shifted = np.ascontiguousarray(y_hat.reshape(-1, c).T)
    shifted -= shifted.max(axis=0)
    log_z = np.log(_class_sum(np.exp(shifted)))
    y = y.reshape(-1)
    rows = np.arange(len(y))
    loss = _batch_means(log_z - shifted[y, rows], b, lead)
    if not with_grad:
        return loss, None
    grad = np.exp(shifted - log_z)
    grad[y, rows] -= 1.0
    return loss, np.divide(grad.T, b, order="C").reshape(y_hat.shape)


def _check_loss(loss):
    if not np.isfinite(loss).all():
        raise NumericalError("non-finite loss at the output layer")


def server_loss(theta_s: np.ndarray, z: np.ndarray, labels, cfg: SplitModelConfig):
    """Forward-only batch-mean loss of the server half on a given activation.

    A stack of n activations (n, B, D) and labels, with one server half or
    an (n, d_s) stack of them (slice i on theta_s[i]), gives an (n,) array
    of losses. Non-finite values raise NumericalError: the first server
    layer with one in any slice, else the loss.
    """
    _, hs, _ = _server_forward_cached(theta_s, z, cfg)
    loss, _ = _loss_and_grad(hs[-1], labels, cfg, with_grad=False)
    _check_loss(loss)
    return loss


def server_forward_backward(theta_s: np.ndarray, z: np.ndarray, labels, cfg: SplitModelConfig):
    """One backward pass producing (loss, server gradient, activation feedback).

    Returns the batch-mean loss, the gradient of that loss w.r.t. the flat
    server parameters, and lambda = gradient w.r.t. the cut activation
    (B x D, scaled by the same batch-mean convention).

    A stack of n activations (n, B, D) with (n, B) or (n, B, C) labels gives
    (n,) losses, (n, d_s) gradients and (n, B, D) feedback, slice i with the
    bits of the solo call. When several slices go non-finite, the error names
    the first server layer that does in any slice, else the loss.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim not in (2, 3) or z.shape[-1] != cfg.cut_width:
        raise DimensionMismatchError(
            f"activation has shape {z.shape}, expected ([n,] B, {cfg.cut_width})"
        )
    params, hs, pres = _server_forward_cached(theta_s, z, cfg)
    loss, delta = _loss_and_grad(hs[-1], labels, cfg)
    _check_loss(loss)
    g_s, lam = _backward(params, hs, pres, delta, cfg, linear_last=True)
    return loss, g_s, lam


# -----------------------------------------------------------------------------
# Client-side backward (diagnostics and the first-order baseline)
# -----------------------------------------------------------------------------

def client_backward_from_lambda(theta_c: np.ndarray, batch, lam: np.ndarray,
                                cfg: SplitModelConfig) -> np.ndarray:
    """Chain-rule product of the client Jacobian with activation feedback.

    Backpropagates lam (B x D) through the client layers, returning the
    gradient w.r.t. the flat client parameters. Inputs stacked as
    (n, B, n_in), with lam (n, B, D), give one gradient per slice, (n, d_c),
    each with the bits of the solo call.
    """
    params, hs, pres = _client_forward_cached(theta_c, batch, cfg)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != hs[-1].shape:
        raise DimensionMismatchError(
            f"lambda has shape {lam.shape}, expected {hs[-1].shape}"
        )
    return _backward(params, hs, pres, lam, cfg, linear_last=False)[0]


def client_jacobian(theta_c: np.ndarray, batch, cfg: SplitModelConfig) -> np.ndarray:
    """Dense Jacobian of the stacked cut activation w.r.t. client parameters.

    Returns (B, D, d_c); row (b, k) is the gradient of z[b, k]: one forward,
    then one backward per unit feedback. Desk-scale only, used to measure
    regularity constants.
    """
    params, hs, pres = _client_forward_cached(theta_c, batch, cfg)
    b_sz, d = hs[-1].shape
    units = np.eye(b_sz * d).reshape(b_sz * d, b_sz, d)
    rows = [_backward(params, hs, pres, unit, cfg, linear_last=False)[0] for unit in units]
    return np.stack(rows).reshape(b_sz, d, cfg.d_c)


# -----------------------------------------------------------------------------
# Initialization and evaluation
# -----------------------------------------------------------------------------

def init_params(cfg: SplitModelConfig, seed: int) -> np.ndarray:
    """Deterministic init: weights N(0, 1/fan_in), biases zero."""
    chunks = []
    for i in range(cfg.n_layers):
        ni, no = cfg.layer_dims[i], cfg.layer_dims[i + 1]
        w = prng.gaussian_vector(prng.derive_stream(seed, prng.STREAM_INIT, i), ni * no)
        chunks.append(w / np.sqrt(ni))
        if cfg.bias:
            chunks.append(np.zeros(no))
    return np.concatenate(chunks)


def evaluate_model(theta: np.ndarray, batch: Batch, cfg: SplitModelConfig):
    """(loss, accuracy) of the full model; accuracy is None for regression."""
    theta = np.asarray(theta, dtype=np.float64)
    z = client_forward(theta[: cfg.d_c], batch, cfg)
    _, hs, _ = _server_forward_cached(theta[cfg.d_c:], z, cfg)
    loss, _ = _loss_and_grad(hs[-1], batch.labels, cfg, with_grad=False)
    acc = _accuracy(hs[-1], batch.labels) if cfg.loss == "softmax_cross_entropy" else None
    return loss, acc


def _accuracy(y_hat: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose top output is the label: an exact count and one
    rounded division, the bits of np.mean over the matches."""
    return float(np.count_nonzero(y_hat.argmax(axis=1) == labels) / labels.shape[0])
