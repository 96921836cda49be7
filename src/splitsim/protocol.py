"""Round orchestration for the three training protocols.

run_round is the one round skeleton: it samples clients, draws their
batches and advances the round. A small per-protocol function does the
rest, from shared phases: activation upload, server first-order step,
model pull, local step and ordered average.

The server half runs once per round for all K clients: their activations
(and, for zosfl, the 2K perturbed server halves) cross it as one stack, and
each client's slice has the bits of its own solo pass.

The hybrid protocol runs four phases per round. Synchronized clients
upload cut activations. The server backpropagates and returns per-client
activation feedback. Clients project P seeded perturbations into scalars.
The server broadcasts the aggregated scalars, from which every client (and
a canonical server-held copy) reconstructs the identical update.

The hybrid and zeroth-order rounds fill the Gaussian memo with one block
of their directions the moment they derive the seeds (prefetch_gaussians,
which generates nothing when the block would not fit the memo), so each
later perturb_fn call for them is served from the memo; every call still
happens and every value is unchanged.

Stragglers never download parameters: they replay missed rounds from the
stored (seeds, scalars) history at the run's learning rate, applying the
exact same update code path as live rounds, which is what makes catch-up
bit-exact. That path works on blocks: one stacked reconstruction rebuilds
g_hat for a run of rounds (or for the K live clients and the server copy at
once), and one optimizer pass applies a run of transitions, bit for bit as
one at a time.

All cross-client reductions consume inputs in ascending client id with
left-to-right accumulation, so results do not depend on completion order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import model, prng
from .errors import NumericalError, ProtocolViolationError, StalenessError
from .prng import (derive_stream, extend_stream, gaussian_vector, ordered_mean,
                   ordered_mean_scalar, prefetch_gaussians)
from .traffic import FLOAT_BYTES, SEED_BYTES, MessageKind, TrafficLedger, label_payload_bytes
from .zo import ZoConfig, reconstruct_gradient, zo_scalars

OPTIMIZERS = ("sgd", "adam")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class HyperParams:
    eta: float
    M: int
    K: int
    batch_size: int
    zo: ZoConfig = field(default_factory=ZoConfig)
    optimizer: str = "sgd"

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not 1 <= self.K <= self.M:
            raise ValueError("need 1 <= K <= M")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def _subtract_run(theta: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """theta - deltas[0] - deltas[1] - ..., subtracted left to right.

    One row is one subtraction. A longer run is one np.subtract.reduce down
    the rows of [theta; deltas]: the same subtractions in the same order
    (subtract has no pairwise reduction), into a new (d,) array, so nothing
    keeps the (n + 1, d) block alive. np.subtract.accumulate gives the same
    bits, but down axis 0 it runs about 4x slower than this reduce.
    """
    if len(deltas) == 1:
        return theta - deltas[0]
    return np.subtract.reduce(np.concatenate((theta[None], deltas)))


def _opt_step(optimizer: str, state, theta: np.ndarray, grads: np.ndarray, eta: float):
    """A run of optimizer transitions at learning rate eta, one per row of grads.

    Returns (new_theta, new_state), bitwise equal to taking the rows one step
    at a time. sgd subtracts eta * g for each row g in turn. adam computes
    the terms that depend only on g, the bias corrections and the steps for
    all rows at once, runs the m/v recurrences row by row, in order, then
    subtracts its steps in turn. Both subtract through _subtract_run.
    """
    if optimizer == "sgd":
        return _subtract_run(theta, np.float64(eta) * grads), state
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
    state.m, state.v, state.step = m.copy(), v.copy(), state.step + len(grads)
    # per row: the two bias corrections (Python float powers), as columns
    ms /= np.array([1.0 - ADAM_BETA1 ** step for step in steps])[:, None]
    vs /= np.array([1.0 - ADAM_BETA2 ** step for step in steps])[:, None]
    return _subtract_run(theta, eta * ms / (np.sqrt(vs) + ADAM_EPS)), state


@dataclass
class RoundRecord:
    """Broadcast history for one round; the unit catch-up replay consumes."""

    seeds: tuple
    v_bar: tuple


@dataclass
class ClientState:
    """One client. theta_c, t_sync and opt_state belong to the hosfl client;
    a baseline (sfl/zosfl) client reads only its shard."""

    client_id: int
    theta_c: np.ndarray
    shard: np.ndarray
    t_sync: int = 0
    opt_state: AdamState | None = None


@dataclass
class ServerState:
    theta_s: np.ndarray
    theta_c_global: np.ndarray
    round: int = 0
    history: dict = field(default_factory=dict)
    opt_state_s: AdamState | None = None
    opt_state_c: AdamState | None = None


@dataclass
class RoundMetrics:
    round: int
    protocol: str
    train_loss: float
    grad_norm: float
    samples: int


@dataclass
class Simulation:
    """Everything one experiment needs, wired up and ready to step."""

    protocol: str
    model_cfg: model.SplitModelConfig
    hp: HyperParams
    dataset: model.Batch
    eval_batch: model.Batch
    server: ServerState
    clients: dict
    ledger: TrafficLedger
    root_seed: int


# -----------------------------------------------------------------------------
# Sampling and batching
# -----------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)  # one entry per (pool size, draw count) a run uses
def _swap_spans(n: int, k: int) -> np.ndarray:
    """n - i for each step i < k, as float64 (exact while n < 2**53)."""
    spans = n - np.arange(k, dtype=np.float64)
    spans.setflags(write=False)
    return spans


def _partial_shuffle(pool: list, k: int, seed: int) -> list:
    """The first k items of a Fisher-Yates shuffle of pool, in place, driven
    by u = uniform_stream(seed, k).

    Step i swaps pool[i] with pool[i + int(u[i] * (n - i))]. One numpy
    expression gives every int(u[i] * (n - i)): the same float64 products
    as Python's float * int, truncated toward zero as int() truncates. The
    swaps then run in order.
    """
    offsets = (prng.uniform_stream(seed, k) * _swap_spans(len(pool), k)).astype(np.int64)
    for i, off in enumerate(offsets.tolist()):
        j = i + off
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def sample_clients(m: int, k: int, seed: int) -> list:
    """K distinct client ids from 1..M, uniform without replacement, sorted."""
    if k > m:
        raise ValueError("cannot sample more clients than exist")
    return sorted(_partial_shuffle(list(range(1, m + 1)), k, seed))


def draw_batch(dataset: model.Batch, shard: np.ndarray, batch_size: int, seed: int) -> model.Batch:
    """Deterministic batch from a client shard; without replacement when possible."""
    n = len(shard)
    if n == 0:
        raise ProtocolViolationError("sampled client has an empty data shard")
    if n >= batch_size:
        idx = np.asarray(_partial_shuffle(shard.tolist(), batch_size, seed), dtype=np.int64)
    else:
        u = prng.uniform_stream(seed, batch_size)
        idx = shard[(u * n).astype(np.int64)]
    return model.Batch(dataset.inputs[idx], dataset.labels[idx])


# -----------------------------------------------------------------------------
# Client update and catch-up replay
# -----------------------------------------------------------------------------

def client_sync(client: ClientState, history: dict, hp: HyperParams, d_c: int,
                target_round: int, perturb_fn=gaussian_vector) -> ClientState:
    """Catch-up: replay every missed round from stored history, in blocks.

    Applies the identical update transitions (including optimizer state) a
    live client would have applied, in round order and bit for bit. Every
    missed record is looked up first, so a StalenessError leaves the client
    untouched. The rounds are then replayed in chunks whose P directions fit
    the Gaussian memo (prng.MEMO_BYTES), at least one round each: one
    prefetch_gaussians call, one stacked reconstruction and one optimizer
    pass per chunk.

    Replay costs no bytes. Every client hears every SeedDown and ScalarDown
    broadcast, which the ledger charges once per round, so the history it
    replays is already its own; no parameters move over the wire.
    """
    if client.t_sync > target_round:
        raise ProtocolViolationError(
            f"client {client.client_id} is ahead of round {target_round}"
        )
    missed = []
    for tau in range(client.t_sync, target_round):
        rec = history.get(tau)
        if rec is None:
            raise StalenessError(
                f"round {tau} missing from history; client {client.client_id} "
                f"cannot catch up"
            )
        missed.append(rec)
    if not missed:
        return client
    # rounds per chunk: as many as their P float64 directions fit the memo
    # together, and at least one
    per_chunk = max(1, prng.MEMO_BYTES // (8 * hp.zo.P * d_c))
    for start in range(0, len(missed), per_chunk):
        chunk = missed[start:start + per_chunk]
        prefetch_gaussians([seed for rec in chunk for seed in rec.seeds], d_c)
        grads = reconstruct_gradient([rec.v_bar for rec in chunk],
                                     [rec.seeds for rec in chunk], hp.zo, d_c, perturb_fn)
        client.theta_c, client.opt_state = _opt_step(
            hp.optimizer, client.opt_state, client.theta_c, grads, hp.eta)
        client.t_sync += len(chunk)
    return client


# -----------------------------------------------------------------------------
# Protocol rounds
# -----------------------------------------------------------------------------

def _upload(sim: Simulation, cid: int, n_floats: int):
    """Client cid sends n_floats cut activations and its batch labels."""
    sim.ledger.record(MessageKind.ACTIVATION_UP, n_floats * FLOAT_BYTES,
                      f"client:{cid}", "server")
    sim.ledger.record(MessageKind.LABEL_UP,
                      label_payload_bytes(sim.hp.batch_size, sim.model_cfg),
                      f"client:{cid}", "server")


def _server_step(sim: Simulation, grad: np.ndarray):
    server = sim.server
    server.theta_s, server.opt_state_s = _opt_step(
        sim.hp.optimizer, server.opt_state_s, server.theta_s, grad[None], sim.hp.eta
    )


def _server_first_order(sim: Simulation, selected, activations, batches):
    """One stacked server backward for the K clients, feedback downlink, one
    averaged server step. Returns the K losses and the (K, B, D) feedback."""
    losses, server_grads, lams = model.server_forward_backward(
        sim.server.theta_s, np.array(activations),
        np.array([batches[cid].labels for cid in selected]), sim.model_cfg)
    for cid in selected:
        sim.ledger.record(MessageKind.GRAD_DOWN, lams[0].size * FLOAT_BYTES,
                          "server", f"client:{cid}")
    _server_step(sim, ordered_mean(server_grads))
    return losses, lams


def _pull_model(sim: Simulation, cid: int) -> np.ndarray:
    """Client cid downloads the current global client model."""
    sim.ledger.record(MessageKind.MODEL_DOWN, sim.model_cfg.d_c * FLOAT_BYTES,
                      "server", f"client:{cid}")
    return sim.server.theta_c_global


def _local_steps_and_average(sim: Simulation, selected, grads) -> float:
    """Each client steps the pulled model along its row of grads (in
    selected order) and uploads it; the uploads become the global model.
    Returns |mean grad|."""
    hp, theta_c = sim.hp, sim.server.theta_c_global
    updated = []
    for cid, grad in zip(selected, grads):
        updated.append(_opt_step(hp.optimizer, None, theta_c, grad[None], hp.eta)[0])
        sim.ledger.record(MessageKind.MODEL_UP, sim.model_cfg.d_c * FLOAT_BYTES,
                          f"client:{cid}", "server")
    sim.server.theta_c_global = ordered_mean(updated)
    return float(np.linalg.norm(ordered_mean(grads)))


def _hosfl_round(sim: Simulation, t: int, selected, batches, perturb_fn):
    """Hybrid: server first-order, clients seeded zeroth-order from broadcast scalars."""
    hp, cfg, server, ledger = sim.hp, sim.model_cfg, sim.server, sim.ledger
    prefix = derive_stream(sim.root_seed, prng.STREAM_PERTURBATION, t)
    seeds = tuple(extend_stream(prefix, p) for p in range(1, hp.zo.P + 1))
    prefetch_gaussians(seeds, cfg.d_c)
    ledger.record(MessageKind.SEED_DOWN, hp.zo.P * SEED_BYTES, "server", "clients:*")

    activations = []
    for cid in selected:
        client = client_sync(sim.clients[cid], server.history, hp, cfg.d_c, t, perturb_fn)
        activations.append(model.client_forward(client.theta_c, batches[cid], cfg))
        _upload(sim, cid, activations[-1].size)
    losses, lams = _server_first_order(sim, selected, activations, batches)

    projections = []
    for cid, lam, z in zip(selected, lams, activations):
        projections.append(zo_scalars(sim.clients[cid].theta_c, lam, z,
                                      batches[cid], seeds, hp.zo, cfg, perturb_fn))
        ledger.record(MessageKind.SCALAR_UP, hp.zo.P * FLOAT_BYTES, f"client:{cid}", "server")

    # per perturbation, the scalars of all clients in ascending client id
    v_bar = tuple(ordered_mean_scalar(column) for column in zip(*projections))
    if not all(np.isfinite(v_bar)):
        raise NumericalError(f"round {t} aborted: non-finite aggregated scalar")
    ledger.record(MessageKind.SCALAR_DOWN, hp.zo.P * FLOAT_BYTES, "server", "clients:*")
    server.history[t] = RoundRecord(seeds, v_bar)
    # the K clients and the server copy rebuild the same g_hat: one stacked
    # call of K+1 rows, then each party takes its own optimizer step
    g_hat = reconstruct_gradient([v_bar] * (hp.K + 1), [seeds] * (hp.K + 1), hp.zo, cfg.d_c,
                                 perturb_fn)
    for row, cid in enumerate(selected):
        client = sim.clients[cid]
        client.theta_c, client.opt_state = _opt_step(
            hp.optimizer, client.opt_state, client.theta_c, g_hat[row:row + 1], hp.eta
        )
        client.t_sync = t + 1
    server.theta_c_global, server.opt_state_c = _opt_step(
        hp.optimizer, server.opt_state_c, server.theta_c_global, g_hat[hp.K:], hp.eta
    )
    return losses, float(np.linalg.norm(g_hat[hp.K]))


def _sfl_round(sim: Simulation, t: int, selected, batches, perturb_fn):
    """First-order baseline: client backprop via feedback, then model averaging.

    The K clients' backward passes run as one stacked call on the pulled
    model, each slice with the bits of that client's own pass."""
    cfg = sim.model_cfg
    activations = []
    for cid in selected:
        activations.append(model.client_forward(_pull_model(sim, cid), batches[cid], cfg))
        _upload(sim, cid, activations[-1].size)
    losses, lams = _server_first_order(sim, selected, activations, batches)
    grads = model.client_backward_from_lambda(
        sim.server.theta_c_global, np.array([batches[cid].inputs for cid in selected]),
        lams, cfg)
    return losses, _local_steps_and_average(sim, selected, grads)


# the two signs of a zosfl client's perturbed server halves, plus then minus
_PLUS_MINUS = np.array([[1.0], [-1.0]])


def _zosfl_round(sim: Simulation, t: int, selected, batches, perturb_fn):
    """Backprop-free baseline: full-model two-point estimation per client.

    Client m perturbs its half along u_c and uploads both perturbed
    activations; the server evaluates the composite loss with its own half
    perturbed along u_s (forward passes only, no backward anywhere) and
    returns the central-difference scalar. Both halves then step along
    their own perturbation scaled by that shared scalar, and client models
    are averaged as in the first-order baseline.

    The server evaluates all 2K perturbed halves in one stacked pass, after
    every upload: theta_s + mu * u_s * (+1.0 or -1.0) has the bits of
    theta_s + mu * u_s and theta_s - mu * u_s.
    """
    cfg, server, mu = sim.model_cfg, sim.server, sim.hp.zo.mu
    prefix = derive_stream(sim.root_seed, prng.STREAM_SPSA, t)
    per_client = [extend_stream(prefix, cid) for cid in selected]
    seeds_c = [extend_stream(h, 1) for h in per_client]
    seeds_s = [extend_stream(h, 2) for h in per_client]
    prefetch_gaussians(seeds_c, cfg.d_c)
    prefetch_gaussians(seeds_s, cfg.d_s)
    directions_c, directions_s, z, labels = [], [], [], []
    for cid, seed_c, seed_s in zip(selected, seeds_c, seeds_s):
        theta_c, batch = _pull_model(sim, cid), batches[cid]
        u_c, u_s = perturb_fn(seed_c, cfg.d_c), perturb_fn(seed_s, cfg.d_s)
        z.append(model.client_forward(theta_c + mu * u_c, batch, cfg))
        z.append(model.client_forward(theta_c - mu * u_c, batch, cfg))
        _upload(sim, cid, 2 * z[-1].size)
        directions_c.append(u_c)
        directions_s.append(u_s)
        labels += [batch.labels, batch.labels]
    halves = server.theta_s + (mu * np.array(directions_s))[:, None] * _PLUS_MINUS
    pair_losses = model.server_loss(halves.reshape(-1, cfg.d_s), np.array(z),
                                    np.array(labels), cfg).reshape(-1, 2).tolist()
    losses, server_grads, client_grads = [], [], []
    for cid, (loss_plus, loss_minus), u_c, u_s in zip(selected, pair_losses,
                                                       directions_c, directions_s):
        sim.ledger.record(MessageKind.SCALAR_DOWN, FLOAT_BYTES, "server", f"client:{cid}")
        losses.append(0.5 * (loss_plus + loss_minus))
        diff = (loss_plus - loss_minus) / (2.0 * mu)
        server_grads.append(diff * u_s)
        client_grads.append(diff * u_c)
    _server_step(sim, ordered_mean(server_grads))
    return losses, _local_steps_and_average(sim, selected, client_grads)


_ROUNDS = {"hosfl": _hosfl_round, "sfl": _sfl_round, "zosfl": _zosfl_round}


def run_round(sim: Simulation, perturb_fn=gaussian_vector) -> RoundMetrics:
    """One round of sim.protocol; the protocols differ only in their phases after batching."""
    protocol_round = _ROUNDS.get(sim.protocol)
    if protocol_round is None:
        raise ValueError(f"unknown protocol {sim.protocol!r}")
    hp, t = sim.hp, sim.server.round
    selected = sample_clients(hp.M, hp.K, derive_stream(sim.root_seed, prng.STREAM_SAMPLING, t))
    prefix = derive_stream(sim.root_seed, prng.STREAM_BATCH, t)
    batches = {
        cid: draw_batch(sim.dataset, sim.clients[cid].shard, hp.batch_size,
                        extend_stream(prefix, cid))
        for cid in selected
    }
    losses, grad_norm = protocol_round(sim, t, selected, batches, perturb_fn)
    sim.server.round = t + 1
    return RoundMetrics(t, sim.protocol, ordered_mean_scalar(losses), grad_norm,
                        hp.K * hp.batch_size)


def planned_rounds(hp: HyperParams, sample_budget: int) -> int:
    """Round count: rounds of K * batch_size samples until the budget is drained."""
    return -(-sample_budget // (hp.K * hp.batch_size))  # ceil

