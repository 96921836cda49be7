"""Exact reference quantities that only the tests need.

The composite loss and the analytic client gradient are oracles for
finite-difference and estimator checks; the zeroth-order client path never
calls them. The reference kernels below are the plain spellings that the
faster or shorter kernels of model.py, prng.py, protocol.py and traffic.py
must match byte for byte.
"""

import numpy as np

from splitsim import model, prng, zo
from splitsim.errors import DimensionMismatchError
from splitsim.model import (
    Batch,
    SplitModelConfig,
    client_backward_from_lambda,
    client_forward,
    server_forward_backward,
    server_loss,
)
from splitsim.protocol import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState
from splitsim.traffic import MessageKind


def full_loss(theta: np.ndarray, batch, cfg: SplitModelConfig) -> float:
    """Composite batch-mean loss of client forward followed by server forward."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cfg.d,):
        raise DimensionMismatchError(f"theta has shape {theta.shape}, expected ({cfg.d},)")
    if not isinstance(batch, Batch):
        raise DimensionMismatchError("full_loss requires a Batch with labels")
    z = client_forward(theta[: cfg.d_c], batch, cfg)
    return server_loss(theta[cfg.d_c:], z, batch.labels, cfg)


def analytic_client_gradient(theta: np.ndarray, batch: Batch, cfg: SplitModelConfig) -> np.ndarray:
    """Exact gradient of the composite loss w.r.t. client parameters.

    Diagnostics-only oracle: the zeroth-order client path never calls this.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (cfg.d,):
        raise DimensionMismatchError(f"theta has shape {theta.shape}, expected ({cfg.d},)")
    z = client_forward(theta[: cfg.d_c], batch, cfg)
    _, _, lam = server_forward_backward(theta[cfg.d_c:], z, batch.labels, cfg)
    return client_backward_from_lambda(theta[: cfg.d_c], batch, lam, cfg)


# -----------------------------------------------------------------------------
# Reference kernels: the plain spellings of model._unpack, _loss_and_grad
# and _accuracy. The first two take a leading stack axis as the fast ones do.
# -----------------------------------------------------------------------------

def unpack_reference(theta: np.ndarray, cfg: SplitModelConfig, client: bool):
    """(W, b) views of one half, found by walking the layer offsets."""
    lo, hi, expected = ((0, cfg.cut_index, cfg.d_c) if client
                        else (cfg.cut_index, cfg.n_layers, cfg.d_s))
    if theta.ndim < 1 or theta.shape[-1] != expected:
        raise DimensionMismatchError(
            f"parameter vector has length {theta.shape}, expected ({expected},)"
        )
    lead = theta.shape[:-1]
    params = []
    off = 0
    for i in range(lo, hi):
        ni, no = cfg.layer_dims[i], cfg.layer_dims[i + 1]
        w = theta[..., off:off + ni * no].reshape(lead + (ni, no))
        off += ni * no
        b = theta[..., None, off:off + no] if cfg.bias else None
        off += no if cfg.bias else 0
        params.append((w, b))
    return params


def loss_and_grad_reference(y_hat: np.ndarray, labels, cfg: SplitModelConfig,
                            with_grad: bool = True):
    """Batch-mean loss and its output gradient through np.max, np.sum and np.mean.

    An (n, B, C) stack runs the plain (B, C) spelling slice by slice: an
    (n,) array of losses and the (n, B, C) gradients.
    """
    if y_hat.ndim == 3:
        labels = np.asarray(labels)
        solo = [loss_and_grad_reference(y_hat[i], labels[i], cfg, with_grad)
                for i in range(len(y_hat))]
        losses = np.array([loss for loss, _ in solo])
        return losses, np.stack([grad for _, grad in solo]) if with_grad else None
    b = y_hat.shape[0]
    if cfg.loss == "squared_error":
        y = np.asarray(labels, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape != y_hat.shape:
            raise DimensionMismatchError(
                f"labels {y.shape} do not match outputs {y_hat.shape}"
            )
        diff = y_hat - y
        loss = float(np.sum(diff * diff) / b)
        return loss, 2.0 * diff / b if with_grad else None
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != b:
        raise DimensionMismatchError("class labels must be a (B,) index vector")
    shifted = y_hat - y_hat.max(axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(b), y]))
    if not with_grad:
        return loss, None
    probs = np.exp(shifted - log_z[:, None])
    grad = probs
    grad[np.arange(b), y] -= 1.0
    return loss, grad / b


def accuracy_reference(y_hat: np.ndarray, labels: np.ndarray) -> float:
    """np.mean of the rows whose top output is the label."""
    return float(np.mean(y_hat.argmax(axis=1) == labels))


# -----------------------------------------------------------------------------
# Reference spellings of the backward passes: the chain rule with relu's mask
# from the stored pre-activations and the input gradient formed after every
# layer, and the Jacobian as one backward per unit feedback
# -----------------------------------------------------------------------------

def backward_reference(params, hs, pres, delta, cfg: SplitModelConfig, linear_last: bool):
    """(flat parameter gradient, gradient w.r.t. x) through what model._forward
    ran; a leading stack axis on the data gives one gradient per slice."""
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
                delta = delta * (pres[k] > 0.0)
        if b is not None:
            pieces.append(delta.sum(axis=-2))
        pieces.append((hs[k].swapaxes(-1, -2) @ delta).reshape(lead + (-1,)))
        delta = delta @ w.T
    return np.concatenate(pieces[::-1], axis=-1), delta


def server_forward_backward_reference(theta_s, z, labels, cfg: SplitModelConfig):
    """(loss, server gradient, feedback): the cut feedback is the input
    gradient the reference backward forms."""
    params, hs, pres = model._server_forward_cached(theta_s, z, cfg)
    loss, delta = model._loss_and_grad(hs[-1], labels, cfg)
    return (loss, *backward_reference(params, hs, pres, delta, cfg, linear_last=True))


def client_backward_reference(theta_c, batch, lam, cfg: SplitModelConfig):
    """The client gradient for feedback of the forward's own shape."""
    params, hs, pres = model._client_forward_cached(theta_c, batch, cfg)
    return backward_reference(params, hs, pres, np.asarray(lam, dtype=np.float64), cfg,
                              linear_last=False)[0]


def client_jacobian_reference(theta_c, batch, cfg: SplitModelConfig):
    """(B, D, d_c): one forward, then one backward per unit feedback, stacked."""
    params, hs, pres = model._client_forward_cached(theta_c, batch, cfg)
    b_sz, d = hs[-1].shape
    units = np.eye(b_sz * d).reshape(b_sz * d, b_sz, d)
    rows = [backward_reference(params, hs, pres, unit, cfg, linear_last=False)[0]
            for unit in units]
    return np.stack(rows).reshape(b_sz, d, cfg.d_c)


# -----------------------------------------------------------------------------
# Reference spellings of the per-round helpers: the seed chain, the swap
# loop, one round's clients, batches and direction seeds, the optimizer run,
# the mean and the ledger snapshot
# -----------------------------------------------------------------------------

MASK64 = (1 << 64) - 1


def derive_stream_reference(root: int, *parts: int) -> int:
    """The whole splitmix64 chain from the root, no prefix shared."""
    h = prng.mix64(root)
    for v in parts:
        h = prng.mix64((h + 0x9E3779B97F4A7C15 + (v & MASK64)) & MASK64)
    return h


def partial_shuffle_reference(pool: list, k: int, seed: int) -> list:
    """Fisher-Yates over Python floats, one swap index at a time."""
    n = len(pool)
    for i, u in enumerate(prng.uniform_stream(seed, k).tolist()):
        j = i + int(u * (n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def sample_clients_reference(m: int, k: int, seed: int) -> list:
    """One round's K client ids: a Fisher-Yates of the list 1..M, sorted."""
    return sorted(partial_shuffle_reference(list(range(1, m + 1)), k, seed))


def draw_batch_reference(shard: np.ndarray, batch_size: int, seed: int) -> list:
    """One batch's dataset rows: a Fisher-Yates of the shard as a list, or,
    from a shard smaller than the batch, shard[int(u * n)] for each uniform."""
    n = len(shard)
    if n >= batch_size:
        return partial_shuffle_reference(shard.tolist(), batch_size, seed)
    return [int(shard[int(u * n)]) for u in prng.uniform_stream(seed, batch_size).tolist()]


def round_draws_reference(sim, t: int):
    """Round t's sorted client ids and each one's batch rows, drawn alone
    from seeds derived along the whole chain."""
    hp, root = sim.hp, sim.root_seed
    selected = sample_clients_reference(
        hp.M, hp.K, derive_stream_reference(root, prng.STREAM_SAMPLING, t))
    rows = [draw_batch_reference(sim.clients[cid].shard, hp.batch_size,
                                 derive_stream_reference(root, prng.STREAM_BATCH, t, cid))
            for cid in selected]
    return selected, rows


def direction_seeds_reference(sim, t: int, selected) -> list | None:
    """Round t's direction seeds by scalar chains from a prefix derived for
    the round: hosfl's P perturbation seeds, zosfl's [client, server] seed
    pair per selected client, in order, and None for sfl."""
    root = sim.root_seed
    if sim.protocol == "hosfl":
        prefix = prng.derive_stream(root, prng.STREAM_PERTURBATION, t)
        return [prng.extend_stream(prefix, p) for p in range(1, sim.hp.zo.P + 1)]
    if sim.protocol == "zosfl":
        prefix = prng.derive_stream(root, prng.STREAM_SPSA, t)
        per_client = [prng.extend_stream(prefix, cid) for cid in selected]
        return [[prng.extend_stream(h, 1), prng.extend_stream(h, 2)] for h in per_client]
    return None


def opt_step_reference(optimizer: str, state, theta: np.ndarray, grads: np.ndarray,
                       eta: float):
    """Optimizer transitions row by row: one theta subtraction per row, adam's
    bias corrections from a list-of-tuples array."""
    if optimizer == "sgd":
        for g in grads:
            theta = theta - np.float64(eta) * g
        return theta, state
    if state is None:
        state = AdamState(np.zeros_like(theta), np.zeros_like(theta))
    ms = (1.0 - ADAM_BETA1) * grads
    vs = (1.0 - ADAM_BETA2) * grads * grads
    m, v = state.m, state.v
    for m_row, v_row in zip(ms, vs):
        m_row += ADAM_BETA1 * m
        v_row += ADAM_BETA2 * v
        m, v = m_row, v_row
    steps = range(state.step + 1, state.step + len(grads) + 1)
    coef = np.array([(1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step) for step in steps])
    state.m, state.v, state.step = m.copy(), v.copy(), state.step + len(coef)
    ms /= coef[:, 0:1]
    vs /= coef[:, 1:2]
    for delta in eta * ms / (np.sqrt(vs) + ADAM_EPS):
        theta = theta - delta
    return theta, state


def ordered_mean_reference(vectors) -> np.ndarray:
    """Left-to-right sum started from zeros, scaled once."""
    vectors = list(vectors)
    acc = np.zeros_like(np.asarray(vectors[0], dtype=np.float64))
    for v in vectors:
        acc += v
    return acc / np.float64(len(vectors))


def snapshot_reference(ledger) -> dict:
    """Kind name -> cumulative bytes, looked up kind by kind."""
    return {kind.value: ledger.totals[kind] for kind in MessageKind}


# -----------------------------------------------------------------------------
# Reference spelling of the Monte Carlo estimator diagnostics
# -----------------------------------------------------------------------------

def estimator_diagnostics_reference(cfg: SplitModelConfig, theta: np.ndarray, batch: Batch,
                                    zo_cfg, n_trials: int, seed: int = 0):
    """Each DIAG_CHUNK chunk's directions, perturbed stack and activations
    built whole, then projected and summed."""
    theta_c, z, lam, g_true = zo._anchor(theta, batch, cfg)
    sum_g = np.zeros(cfg.d_c)
    sum_sq = 0.0
    done = 0
    while done < n_trials:
        n = min(zo.DIAG_CHUNK, n_trials - done)
        seeds = [prng.derive_stream(seed, prng.STREAM_DIAG, done + t, p)
                 for t in range(n) for p in range(zo_cfg.P)]
        u = prng.gaussian_block(seeds, cfg.d_c).reshape(n, zo_cfg.P, cfg.d_c)
        v = zo._projection_block(theta_c, lam, z, batch,
                                 u.reshape(n * zo_cfg.P, cfg.d_c), zo_cfg.mu, cfg)
        v = v.reshape(n, zo_cfg.P)
        g_hat = np.einsum("np,npd->nd", v, u) / (zo_cfg.P * zo_cfg.mu)
        sum_g += g_hat.sum(axis=0)
        sum_sq += float(np.sum(g_hat * g_hat))
        done += n
    mean_g = sum_g / n_trials
    bias = mean_g - g_true
    return zo.EstimatorDiagnostics(
        empirical_bias_sq=float(bias @ bias),
        empirical_second_moment=sum_sq / n_trials,
        true_g_c_norm_sq=float(g_true @ g_true),
    )
