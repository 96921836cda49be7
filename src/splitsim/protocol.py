"""Round orchestration for the three training protocols.

run_round is the one round skeleton: it samples clients, gathers their
batches and advances the round. A small per-protocol function does the
rest, from shared phases: activation upload, server first-order step,
model pull, local step and ordered average. A round's K batches are one
gathered block, (K, B, n_in) inputs and (K, B) or (K, B, C) labels, and
client i's passes read its row i.

Clients, batches and direction seeds are drawn a window of rounds at a
time: the first round outside the current window draws it, in one
sample_clients and one draw_batch call over all its rounds
(build_simulation draws nothing), and derives the seeds of the rounds'
Gaussian directions as one uint64 table: hosfl's P perturbation seeds and
zosfl's client and server seeds per sampled client (sfl draws none). Both
draws run one chunked partial Fisher-Yates (_draw_rows). A window holds as
many rounds as both their (K, B) batch rows, in the smallest unsigned type
that holds a dataset row index, and their seeds fit WINDOW_BYTES, and at
least one round, but none past the run's last (Simulation.rounds); each
pool the draw shuffles is bounded by the same bytes. Every draw and seed is
a pure function of (root seed, round, client id), and each seed is the one
a round drawn alone derives, so a window changes no value, only when the
draw is made.

The server half runs once per round for all K clients: their activations
(and, for zosfl, the 2K perturbed server halves) cross it as one stack, and
each client's slice has the bits of its own solo pass. The baselines'
K local sgd steps are one array expression, each row with the bits of
that client's own step. A round records each message kind in the ledger
once, with the bytes of all K clients, sized from those stacked arrays.

The hybrid protocol runs four phases per round. Synchronized clients
upload cut activations. The server backpropagates and returns per-client
activation feedback. Clients project P seeded perturbations into scalars.
The server broadcasts the aggregated scalars, from which every client (and
a canonical server-held copy) reconstructs the identical update.

The hybrid and zeroth-order rounds draw their Gaussian directions a few
rounds ahead (_prefetch_directions): a round whose directions the memo does
not hold fills it with one block of them and of the next rounds' in the
draw window, as many rounds as fit LOOKAHEAD_BYTES of block and at least
its own (prefetch_gaussians, which generates nothing when the block would
not fit the memo). A round's directions are hosfl's P at d_c, and zosfl's K
client directions at d_c with its K server directions at d_s, rows of one
block cut to their dims. Each later perturb_fn call for them is served from
the memo; every call still happens and every value is unchanged, as each
row is a pure function of its (seed, dim).

Stragglers never download parameters: they replay missed rounds from the
stored (seeds, scalars) history at the run's learning rate, applying the
exact same update code path as live rounds, which is what makes catch-up
bit-exact. That path works on blocks: one stacked reconstruction rebuilds
g_hat for a run of rounds (or for the K live clients and the server copy at
once), and one optimizer pass applies a run of transitions, bit for bit as
one at a time. The history keeps only the rounds some client can still
replay, those from the stalest counted t_sync on (ServerState.sync).

Every client synced to a round holds the same (theta_c, opt_state) bit for
bit, the server copy's at that round, so clients share it instead of
copying it. Optimizer state is a value (a frozen AdamState with read-only
arrays), _opt_step writes nothing it is given, and a replay binds the client
to new objects. Each hosfl round checks every sampled client, once synced,
against the server copy (a ProtocolViolationError names a client that
differs), steps the copy once, marks its theta_c read-only and hands its
new objects to the K clients; memory holds one client state per distinct
t_sync, not one per client.

All cross-client reductions consume inputs in ascending client id with
left-to-right accumulation, so results do not depend on completion order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import model, prng
from .errors import NumericalError, ProtocolViolationError, StalenessError
from .prng import (derive_stream, extend_stream, gaussian_vector, gaussians_held, ordered_mean,
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


@dataclass(frozen=True)
class AdamState:
    """adam's moments after step transitions. A value, so many parties can
    hold one: its fields are frozen and its arrays read-only, and _opt_step
    makes a new one."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    def __post_init__(self):
        self.m.setflags(write=False)
        self.v.setflags(write=False)


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
    at a time. It is pure: it writes nothing it is given, and the theta and
    AdamState it returns are new (sgd has no state and returns state as
    given). sgd subtracts eta * g for each row g in turn. adam computes the
    terms that depend only on g, the bias corrections and the steps for all
    rows at once, runs the m/v recurrences row by row, in order, then
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
    state = AdamState(m.copy(), v.copy(), state.step + len(grads))
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
    a baseline (sfl/zosfl) client reads only its shard.

    theta_c and opt_state are values, never written in place: a hosfl
    client holds the server copy's (theta_c_global, opt_state_c) objects of
    its t_sync round, shared with every client synced to that round, and a
    fresh build_simulation gives every client and the server copy one
    read-only init theta_c. client_sync binds a client to new objects and
    writes none it held.
    """

    client_id: int
    theta_c: np.ndarray
    shard: np.ndarray
    t_sync: int = 0
    opt_state: AdamState | None = None


@dataclass
class ServerState:
    """The server half, the canonical copy of the client half, and the
    catch-up history.

    (theta_c_global, opt_state_c) is the state every hosfl client synced to
    the current round holds: each hosfl round checks that its synced
    clients equal it bit for bit, steps it once, and hands the new objects
    to the round's K clients. So memory holds one client state per distinct
    t_sync, not one per client.

    sync maps client id -> counted t_sync, least recently synced first. The
    first hosfl round builds it from every client in Simulation.clients,
    sorted by t_sync; each round then counts its K clients at the t_sync it
    gives them and moves them to the end. A client moved on outside a round
    (a client_sync between rounds) stays counted where its last round left
    it, so the first value, the catch-up floor, may lag the smallest t_sync
    but never passes it. history maps round -> RoundRecord and holds only the
    rounds a client can still replay: after each hosfl round it runs from
    the floor to that round. A client registered after the first hosfl
    round is not counted and may find its rounds gone.
    """

    theta_s: np.ndarray
    theta_c_global: np.ndarray
    round: int = 0
    history: dict = field(default_factory=dict)
    opt_state_s: AdamState | None = None
    opt_state_c: AdamState | None = None
    sync: OrderedDict | None = field(default=None, repr=False, compare=False)


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
    # the run's planned round count (build_simulation); None draws full windows
    rounds: int | None = None
    # (start, clients, rows, seeds): the draws of upcoming rounds (_round_draws)
    window: tuple | None = field(default=None, repr=False, compare=False)


# -----------------------------------------------------------------------------
# Sampling and batching
# -----------------------------------------------------------------------------

# Bytes each table of a window of drawn rounds holds: its (rounds, K, B)
# batch rows, and apart from them its uint64 direction seeds, (rounds, P)
# for hosfl and (rounds, K, 2) for zosfl. Also the most any pool of items
# being shuffled holds while it draws (a pool of one row may be larger).
# 32 KiB is 512 rounds at K=2, B=16 on a dataset of fewer than 65,536 rows,
# whose row indices are held as uint16; the seeds of 512 rounds fit it too
# for hosfl at P <= 8 and zosfl at K <= 4.
WINDOW_BYTES = 32 * 1024


def _pool_chunks(sizes: np.ndarray):
    """(lo, hi) runs of rows whose pools, sizes[lo:hi] items end to end, fit
    WINDOW_BYTES as int64 together; a run is at least one row."""
    lo, held = 0, 0
    for hi, size in enumerate(sizes.tolist()):
        if held + size > WINDOW_BYTES // 8 and hi > lo:
            yield lo, hi
            lo, held = hi, 0
        held += size
    if lo < len(sizes):
        yield lo, len(sizes)


def _partial_shuffle(pools: np.ndarray, sizes: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The first k items of a Fisher-Yates shuffle of each of len(u) pools,
    row r driven by the k uniforms u[r]; returns (len(u), k).

    pools holds the pools end to end, sizes[r] items for row r, and is
    shuffled in place. Step i swaps item i of every pool with its item
    i + int(u[r, i] * (sizes[r] - i)), all rows at once; one numpy
    expression gives every offset, the same float64 products as Python's
    float * int, truncated toward zero as int() truncates. A pool smaller
    than k is drawn from with replacement instead, on the same uniforms:
    draw i is its item int(u[r, i] * sizes[r]), and nothing is swapped.
    """
    k = u.shape[1]
    starts = (np.cumsum(sizes) - sizes)[:, None]
    full = (sizes >= k)[:, None]
    steps = np.arange(k) * full  # 0 in a row drawn with replacement
    offsets = (u * (sizes[:, None] - steps)).astype(np.int64)
    # step i swaps item swap_i[r, i] with swap_j[r, i] (both its item 0 in a
    # row drawn with replacement, so nothing moves there): one gather and one
    # scatter of the 2 * rows items, as the rows' pools do not overlap
    swap_i = starts + steps
    swap_j = swap_i + offsets * full
    for ij, ji in zip(np.hstack((swap_i.T, swap_j.T)), np.hstack((swap_j.T, swap_i.T))):
        pools[ij] = pools[ji]
    return pools[np.where(full, swap_i, starts + offsets)]


def _draw_rows(pools: list, k: int, seeds, dtype) -> np.ndarray:
    """_partial_shuffle's k draws from each of pools, row r on
    uniform_stream(seeds[r], k): (len(pools), k) of dtype, the rows taken in
    _pool_chunks runs, each run's pools copied end to end and shuffled."""
    sizes = np.array([len(pool) for pool in pools], dtype=np.int64)
    seeds = np.asarray(seeds, dtype=np.uint64)
    drawn = np.empty((len(pools), k), dtype=dtype)
    for lo, hi in _pool_chunks(sizes):
        u = prng.uniform_stream(seeds[lo:hi], k)
        drawn[lo:hi] = _partial_shuffle(np.concatenate(pools[lo:hi]), sizes[lo:hi], u)
    return drawn


def sample_clients(m: int, k: int, seeds) -> np.ndarray:
    """K distinct client ids from 1..M per seed, uniform without replacement:
    (len(seeds), K), one sorted row per seed."""
    if k > m:
        raise ValueError("cannot sample more clients than exist")
    picks = _draw_rows([np.arange(1, m + 1)] * len(seeds), k, seeds, np.int64)
    picks.sort(axis=1)
    return picks


def draw_batch(shards: list, batch_size: int, seeds, dtype=np.int64) -> np.ndarray:
    """Dataset row indices of one batch per seed: (len(seeds), batch_size)
    of dtype, row r drawn from the shard shards[r] (a shard may repeat),
    without replacement when the shard has batch_size rows or more."""
    if not all(map(len, shards)):
        raise ProtocolViolationError("sampled client has an empty data shard")
    return _draw_rows(shards, batch_size, seeds, dtype)


# the zosfl seed coordinate of a client's half: its client direction, then
# its server direction
_HALVES = np.array([1, 2], dtype=np.uint64)


def _direction_seeds(sim: Simulation, ts: np.ndarray, clients: np.ndarray):
    """The seeds of rounds ts' Gaussian directions, one row per round: hosfl's
    (rounds, P) perturbation seeds (root, STREAM_PERTURBATION, t, p) for
    p = 1..P, zosfl's (rounds, K, 2) seeds (root, STREAM_SPSA, t, cid, half)
    for half 1 (client) and 2 (server), and None for sfl."""
    if sim.protocol == "hosfl":
        prefix = derive_stream(sim.root_seed, prng.STREAM_PERTURBATION, ts)
        return extend_stream(prefix[:, None], np.arange(1, sim.hp.zo.P + 1, dtype=np.uint64))
    if sim.protocol == "zosfl":
        prefix = derive_stream(sim.root_seed, prng.STREAM_SPSA, ts)
        return extend_stream(prefix[:, None, None], clients[:, :, None], _HALVES)
    return None


def _round_draws(sim: Simulation, t: int):
    """Round t's sorted client ids, their (K, B) batch rows and its row of
    direction seeds (_direction_seeds; None for sfl).

    They are read from sim.window, (start, clients, rows, seeds) for rounds
    start, start + 1, ...; a round outside it draws a new window from round
    t in one sample_clients and one draw_batch call and one seed table. The
    window is as many rounds as both their (K, B) batch rows and their seeds
    fit WINDOW_BYTES, and at least one, each row held in the smallest
    unsigned type that holds every dataset row index. It holds no round past
    sim.rounds, when that is set, but round t itself. It ends before any
    later round that samples a client with an empty shard, so draw_batch's
    ProtocolViolationError comes from the round that samples it. Every seed
    is the one a round drawn alone derives, (root, STREAM_SAMPLING, t) and
    (root, STREAM_BATCH, t, cid) for the draws.
    """
    start, clients, rows, seeds = sim.window or (t, (), None, None)
    if not 0 <= t - start < len(clients):
        sim.window = rows = seeds = None  # freed first, so the new tables can reuse its memory
        hp, root, start = sim.hp, sim.root_seed, t
        index = np.min_scalar_type(sim.dataset.size - 1)  # holds every dataset row index
        seed_count = {"hosfl": hp.zo.P, "zosfl": 2 * hp.K}.get(sim.protocol, 0)
        round_bytes = max(index.itemsize * hp.K * hp.batch_size, 8 * seed_count)
        last = np.inf if sim.rounds is None else sim.rounds  # no round past the run's last
        rounds = max(1, min(WINDOW_BYTES // round_bytes, last - t))
        ts = np.arange(t, t + rounds, dtype=np.uint64)
        clients = sample_clients(hp.M, hp.K, derive_stream(root, prng.STREAM_SAMPLING, ts))
        shards = [sim.clients[cid].shard for cid in clients.ravel().tolist()]
        lengths = list(map(len, shards))
        if 0 in lengths:
            rounds = max(1, lengths.index(0) // hp.K)
            clients, shards, ts = clients[:rounds], shards[:rounds * hp.K], ts[:rounds]
        batch_seeds = extend_stream(derive_stream(root, prng.STREAM_BATCH, ts)[:, None], clients)
        rows = draw_batch(shards, hp.batch_size, batch_seeds.ravel(), index).reshape(
            rounds, hp.K, -1)
        seeds = _direction_seeds(sim, ts, clients)
        sim.window = start, clients, rows, seeds
    i = t - start
    return clients[i].tolist(), rows[i], None if seeds is None else seeds[i]


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
    pass per chunk. Each pass binds the client to new theta_c and opt_state
    objects; the ones it held, which other clients may share, are not written.

    Replay costs no bytes. Every client hears every SeedDown and ScalarDown
    broadcast, which the ledger charges once per round, so the history it
    replays is already its own; no parameters move over the wire.

    A run's server.history holds the rounds from the stalest counted
    t_sync on (ServerState), so any client of the run can be synced to
    any round up to the current one, between rounds or after the last.
    This call moves nothing in server.sync: a client it moves between
    rounds stays counted at the t_sync its last round gave it, so the run
    keeps those rounds until the client is sampled again.
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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or a.tobytes() == b.tobytes()


def _adopt_server_copy(client: ClientState, server: ServerState, t: int):
    """The catch-up invariant, checked: client, synced to round t, holds the
    server copy's theta_c and optimizer state bit for bit (adam's m, v and
    step). It then holds the copy's own objects, so nothing of its replay
    is kept. A ProtocolViolationError names the client and round if not."""
    mine, copy = client.opt_state, server.opt_state_c
    same_state = mine is copy or (
        mine is not None and copy is not None and mine.step == copy.step
        and _same_bits(mine.m, copy.m) and _same_bits(mine.v, copy.v))
    if not (same_state and _same_bits(client.theta_c, server.theta_c_global)):
        raise ProtocolViolationError(
            f"client {client.client_id} differs from the server copy after catch-up "
            f"to round {t}"
        )
    client.theta_c, client.opt_state = server.theta_c_global, server.opt_state_c


# -----------------------------------------------------------------------------
# Protocol rounds
# -----------------------------------------------------------------------------

def _upload(sim: Simulation, activations: np.ndarray):
    """The K clients send their stacked cut activations and batch labels."""
    sim.ledger.record(MessageKind.ACTIVATION_UP, activations.size * FLOAT_BYTES)
    sim.ledger.record(MessageKind.LABEL_UP,
                      sim.hp.K * label_payload_bytes(sim.hp.batch_size, sim.model_cfg))


def _server_step(sim: Simulation, grad: np.ndarray):
    server = sim.server
    server.theta_s, server.opt_state_s = _opt_step(
        sim.hp.optimizer, server.opt_state_s, server.theta_s, grad[None], sim.hp.eta
    )


def _server_first_order(sim: Simulation, activations: np.ndarray, labels):
    """One stacked server backward for the K clients, feedback downlink, one
    averaged server step. Returns the K losses and the (K, B, D) feedback."""
    losses, server_grads, lams = model.server_forward_backward(
        sim.server.theta_s, activations, labels, sim.model_cfg)
    sim.ledger.record(MessageKind.GRAD_DOWN, lams.size * FLOAT_BYTES)
    _server_step(sim, ordered_mean(server_grads))
    return losses, lams


def _pull_model(sim: Simulation) -> np.ndarray:
    """The K clients download the current global client model."""
    sim.ledger.record(MessageKind.MODEL_DOWN, sim.hp.K * sim.model_cfg.d_c * FLOAT_BYTES)
    return sim.server.theta_c_global


def _local_steps_and_average(sim: Simulation, grads: np.ndarray) -> float:
    """Each client takes one sgd step from the pulled model along its row of
    grads (in ascending client id) and uploads it; the uploads become the
    global model. The K steps are one array expression, each row with the
    bits of that client's one-row _opt_step. Returns |mean grad|."""
    sim.ledger.record(MessageKind.MODEL_UP, grads.size * FLOAT_BYTES)
    updated = sim.server.theta_c_global - np.float64(sim.hp.eta) * grads
    sim.server.theta_c_global = ordered_mean(updated)
    return float(np.linalg.norm(ordered_mean(grads)))


# Bytes of the Gaussian block a round draws when the memo does not hold its
# directions: its own rows and those of as many next rounds of the draw
# window as fit, and at least its own. A larger block costs its round more
# and the rounds it covers less, so it trades tail for median. 16 KiB is 3
# rounds of zosfl's 4 rows (K=2) and 2 of hosfl's P=5 at d_c=144, and one
# round from a widest direction of 257 (zosfl, K=2) or d_c=205 (hosfl, P=5) on.
LOOKAHEAD_BYTES = 16 * 1024


def _prefetch_directions(sim: Simulation, t: int):
    """Fill the Gaussian memo with round t's directions, unless it holds
    them, and with those of the rounds after t in sim.window, as one block
    of as many rounds as fit LOOKAHEAD_BYTES and at least round t. A block
    is as wide as a round's widest direction, and its rows run round by
    round: hosfl's P seeds at d_c, zosfl's K client seeds at d_c then its K
    server seeds at d_s."""
    start, _, _, seeds = sim.window
    cfg = sim.model_cfg
    if sim.protocol == "zosfl":
        seeds = seeds.swapaxes(1, 2)  # a round's (2, K): client seeds, then server seeds
        dims = [cfg.d_c] * sim.hp.K + [cfg.d_s] * sim.hp.K
    else:
        dims = [cfg.d_c] * sim.hp.zo.P
    i = t - start
    if gaussians_held(seeds[i].ravel().tolist(), dims):
        return
    rounds = max(1, LOOKAHEAD_BYTES // (8 * len(dims) * max(dims)))
    ahead = seeds[i:i + rounds]  # no row past the window's last
    prefetch_gaussians(ahead.ravel().tolist(), dims * len(ahead))


def _hosfl_round(sim: Simulation, t: int, selected, inputs, labels, seeds, perturb_fn):
    """Hybrid: server first-order, clients seeded zeroth-order from broadcast
    scalars; seeds is the round's (P,) row of perturbation seeds."""
    hp, cfg, server, ledger = sim.hp, sim.model_cfg, sim.server, sim.ledger
    seeds = tuple(seeds.tolist())
    _prefetch_directions(sim, t)
    ledger.record(MessageKind.SEED_DOWN, hp.zo.P * SEED_BYTES)

    activations = []
    for cid, x in zip(selected, inputs):
        client = client_sync(sim.clients[cid], server.history, hp, cfg.d_c, t, perturb_fn)
        _adopt_server_copy(client, server, t)
        activations.append(model.client_forward(client.theta_c, x, cfg))
    activations = np.array(activations)
    _upload(sim, activations)
    losses, lams = _server_first_order(sim, activations, labels)

    projections = [zo_scalars(sim.clients[cid].theta_c, lam, z, x, seeds, hp.zo, cfg, perturb_fn)
                   for cid, x, lam, z in zip(selected, inputs, lams, activations)]
    ledger.record(MessageKind.SCALAR_UP, hp.K * hp.zo.P * FLOAT_BYTES)

    # per perturbation, the scalars of all clients in ascending client id
    v_bar = tuple(ordered_mean_scalar(column) for column in zip(*projections))
    if not all(np.isfinite(v_bar)):
        raise NumericalError(f"round {t} aborted: non-finite aggregated scalar")
    ledger.record(MessageKind.SCALAR_DOWN, hp.zo.P * FLOAT_BYTES)
    server.history[t] = RoundRecord(seeds, v_bar)
    # g_hat for the K clients and the server copy: one stacked call of K+1
    # rows, all with the same bits. The K client rows stand for each
    # client's own rebuild (perfbench pins the (2K+1)P direction requests a
    # round makes); only the server copy's row is applied, in one step whose
    # result the K clients take
    g_hat = reconstruct_gradient([v_bar] * (hp.K + 1), [seeds] * (hp.K + 1), hp.zo, cfg.d_c,
                                 perturb_fn)
    server.theta_c_global, server.opt_state_c = _opt_step(
        hp.optimizer, server.opt_state_c, server.theta_c_global, g_hat[hp.K:], hp.eta
    )
    # the K clients share the new theta_c: a write to it in place raises
    server.theta_c_global.setflags(write=False)
    if server.sync is None:
        server.sync = OrderedDict(sorted(((cid, c.t_sync) for cid, c in sim.clients.items()),
                                         key=lambda counted: counted[1]))
    for cid in selected:
        client = sim.clients[cid]
        client.theta_c, client.opt_state = server.theta_c_global, server.opt_state_c
        client.t_sync = server.sync[cid] = t + 1
        server.sync.move_to_end(cid)
    # sync's first value is the stalest counted t_sync, and no client
    # replays a round below it: drop those records
    for tau in range(next(iter(server.history)), next(iter(server.sync.values()))):
        server.history.pop(tau, None)
    return losses, float(np.linalg.norm(g_hat[hp.K]))


def _sfl_round(sim: Simulation, t: int, selected, inputs, labels, seeds, perturb_fn):
    """First-order baseline: client backprop via feedback, then model averaging.

    The K clients' backward passes run as one stacked call on the pulled
    model, each slice with the bits of that client's own pass; it is handed
    the K activations the clients uploaded, so no client forward reruns."""
    cfg = sim.model_cfg
    theta_c = _pull_model(sim)
    activations = np.array([model.client_forward(theta_c, x, cfg) for x in inputs])
    _upload(sim, activations)
    losses, lams = _server_first_order(sim, activations, labels)
    grads = model.client_backward_from_lambda(theta_c, inputs, lams, cfg, activations)
    return losses, _local_steps_and_average(sim, grads)


# the two signs of a zosfl client's perturbed server halves, plus then minus
_PLUS_MINUS = np.array([[1.0], [-1.0]])


def _zosfl_round(sim: Simulation, t: int, selected, inputs, labels, seeds, perturb_fn):
    """Backprop-free baseline: full-model two-point estimation per client.

    Client m perturbs its half along u_c and uploads both perturbed
    activations; the server evaluates the composite loss with its own half
    perturbed along u_s (forward passes only, no backward anywhere) and
    returns the central-difference scalar. Both halves then step along
    their own perturbation scaled by that shared scalar, and client models
    are averaged as in the first-order baseline.

    seeds is the round's (K, 2) row of each client's (u_c, u_s) seeds. The
    server evaluates all 2K perturbed halves in one stacked pass, after
    every upload: theta_s + mu * u_s * (+1.0 or -1.0) has the bits of
    theta_s + mu * u_s and theta_s - mu * u_s. The K losses, central
    differences and gradients are array expressions, each row with the bits
    of that client's scalar arithmetic.
    """
    cfg, server, mu = sim.model_cfg, sim.server, sim.hp.zo.mu
    seeds_c, seeds_s = seeds.T.tolist()
    _prefetch_directions(sim, t)
    theta_c = _pull_model(sim)
    directions_c, directions_s, z = [], [], []
    for x, seed_c, seed_s in zip(inputs, seeds_c, seeds_s):
        u_c, u_s = perturb_fn(seed_c, cfg.d_c), perturb_fn(seed_s, cfg.d_s)
        z.append(model.client_forward(theta_c + mu * u_c, x, cfg))
        z.append(model.client_forward(theta_c - mu * u_c, x, cfg))
        directions_c.append(u_c)
        directions_s.append(u_s)
    z = np.array(z)
    _upload(sim, z)
    directions_c, directions_s = np.array(directions_c), np.array(directions_s)
    halves = server.theta_s + (mu * directions_s)[:, None] * _PLUS_MINUS
    plus, minus = model.server_loss(halves.reshape(-1, cfg.d_s), z,
                                    np.repeat(labels, 2, axis=0), cfg).reshape(-1, 2).T
    sim.ledger.record(MessageKind.SCALAR_DOWN, sim.hp.K * FLOAT_BYTES)
    diff = ((plus - minus) / (2.0 * mu))[:, None]
    _server_step(sim, ordered_mean(diff * directions_s))
    return 0.5 * (plus + minus), _local_steps_and_average(sim, diff * directions_c)


_ROUNDS = {"hosfl": _hosfl_round, "sfl": _sfl_round, "zosfl": _zosfl_round}


def run_round(sim: Simulation, perturb_fn=gaussian_vector) -> RoundMetrics:
    """One round of sim.protocol; the protocols differ only in their phases after batching."""
    hp, t, dataset = sim.hp, sim.server.round, sim.dataset
    protocol_round = _ROUNDS.get(sim.protocol)
    if protocol_round is None:
        raise ValueError(f"unknown protocol {sim.protocol!r}")
    if hp.optimizer != "sgd" and sim.protocol != "hosfl":
        raise ValueError(f"hp.optimizer {hp.optimizer!r} is supported by hosfl only; "
                         f"{sim.protocol} steps with sgd")
    selected, rows, seeds = _round_draws(sim, t)
    losses, grad_norm = protocol_round(sim, t, selected, dataset.inputs[rows],
                                       dataset.labels[rows], seeds, perturb_fn)
    sim.server.round = t + 1
    return RoundMetrics(t, sim.protocol, ordered_mean_scalar(losses), grad_norm,
                        hp.K * hp.batch_size)


def planned_rounds(hp: HyperParams, sample_budget: int) -> int:
    """Round count: rounds of K * batch_size samples until the budget is drained."""
    return -(-sample_budget // (hp.K * hp.batch_size))  # ceil

