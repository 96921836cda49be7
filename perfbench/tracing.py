"""Outside-in span tracing for the splitsim benchmark.

Every span is recorded by a wrapper installed around a public function of
one layer, from outside the package: nothing under ``src/`` is edited. Spans
hold a name, a start and end time (ns, ``time.perf_counter_ns``) and the
index of the span that was open when they began. They stay in memory while
the run goes and are written out once it has ended.

Where the hooks sit, and why there:

* ``protocol`` and ``zo`` import ``gaussian_vector`` by name and take it as
  a default argument, so patching ``splitsim.prng.gaussian_vector`` sees no
  call. The Gaussian layer is reached through the public ``perturb_fn``
  argument of ``runner.run_experiment`` instead (``Tracer.gaussian``).
* ``zo_scalars``, ``reconstruct_gradient``, ``client_sync``, ``draw_batch``,
  ``sample_clients`` and ``run_round`` are looked up in
  ``splitsim.protocol``'s namespace at call time, so they are patched there.
* ``model.*`` is called as ``model.<name>`` (and ``evaluate_model`` calls
  ``client_forward`` as a module global), so it is patched in
  ``splitsim.model``.
* Set-up calls ``make_classification_blobs`` and ``partition_dataset``
  through names imported into ``splitsim.runner``; ``build_simulation`` is a
  global of ``splitsim.runner`` too.
* The ledger is reached through ``TrafficLedger`` methods on the class.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from splitsim import model, protocol, runner
from splitsim.traffic import TrafficLedger

ROUND = "protocol.run_round"
GAUSSIAN = "prng.gaussian_vector"
CLIENT_SYNC = "protocol.client_sync"
LEDGER_SPANS = ("traffic.ledger.record", "traffic.ledger.close_round",
                "traffic.ledger.snapshot")

# (span name, namespace object, attribute) for every plain hook.
HOOKS = (
    ("protocol.sample_clients", protocol, "sample_clients"),
    ("protocol.draw_batch", protocol, "draw_batch"),
    ("zo.zo_scalars", protocol, "zo_scalars"),
    ("zo.reconstruct_gradient", protocol, "reconstruct_gradient"),
    ("model.client_forward", model, "client_forward"),
    ("model.server_forward_backward", model, "server_forward_backward"),
    ("model.client_backward_from_lambda", model, "client_backward_from_lambda"),
    ("model.server_loss", model, "server_loss"),
    ("model.evaluate_model", model, "evaluate_model"),
    ("model.init_params", model, "init_params"),
    ("data.make_dataset", runner, "make_classification_blobs"),
    ("data.partition_dataset", runner, "partition_dataset"),
    ("traffic.ledger.record", TrafficLedger, "record"),
    ("traffic.ledger.close_round", TrafficLedger, "close_round"),
    ("traffic.ledger.snapshot", TrafficLedger, "snapshot"),
)


def patch(stack: contextlib.ExitStack, owner, attr: str, value):
    """Set ``owner.attr`` to ``value`` until ``stack`` closes."""
    stack.callback(setattr, owner, attr, getattr(owner, attr))
    setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder; spans are parallel lists indexed by span id."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = [-1]
        self.seeds = set()
        self.replayed = 0

    def wrap(self, name: str, fn):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(open_[-1])
            ends.append(0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()
        return span

    def gaussian(self, fn):
        """A traced ``perturb_fn`` that also collects the distinct seeds."""
        traced = self.wrap(GAUSSIAN, fn)

        def perturb(seed, dim):
            self.seeds.add(seed)
            return traced(seed, dim)
        return perturb

    def install(self, stack: contextlib.ExitStack):
        """Wrap every layer hook; closing ``stack`` puts the originals back."""
        for name, owner, attr in HOOKS:
            patch(stack, owner, attr, self.wrap(name, getattr(owner, attr)))
        traced_sync = self.wrap(CLIENT_SYNC, protocol.client_sync)

        def client_sync(client, history, hp, d_c, target_round, *args, **kwargs):
            self.replayed += target_round - client.t_sync
            return traced_sync(client, history, hp, d_c, target_round, *args, **kwargs)
        patch(stack, protocol, "client_sync", client_sync)

    def write(self, path):
        """Dump spans as ``id,name,start_ns,end_ns,parent`` lines."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{row[0]},{row[1]},{row[2]},{row[3]}\n")


def layer_metrics(tr: Tracer, rounds: int, window_ns: tuple, calibrating_ns: int) -> dict:
    """Per-layer counts and times from the recorded spans.

    ``ms_per_round`` is inclusive time (a span with its children);
    ``run_round`` also gets self time, its span minus its direct children.
    ``window_ns`` is the round loop, from the first ``run_round`` entry to
    the return of ``run_experiment``; ``calibrating_ns`` of it went to the
    core-speed kernel between rounds and is not round-loop time.
    """
    starts = np.asarray(tr.starts, dtype=np.int64)
    ends = np.asarray(tr.ends, dtype=np.int64)
    parents = np.asarray(tr.parents, dtype=np.int64)
    dur = (ends - starts).astype(np.float64)
    labels = sorted(set(tr.names))
    index = {name: i for i, name in enumerate(labels)}
    ids = np.fromiter((index[n] for n in tr.names), dtype=np.int64, count=len(tr.names))
    has_parent = parents >= 0
    child_ns = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))

    def pick(name):
        return ids == index[name] if name in index else np.zeros(len(ids), dtype=bool)

    def calls(name):
        return int(pick(name).sum())

    def total_ns(name):
        return float(dur[pick(name)].sum())

    def ms_per_round(name):
        return total_ns(name) / 1e6 / rounds

    def seconds(name):
        return total_ns(name) / 1e9

    ledger = np.zeros(len(ids), dtype=bool)
    for name in LEDGER_SPANS:
        ledger |= pick(name)
    parent_in_ledger = np.zeros(len(ids), dtype=bool)
    parent_in_ledger[has_parent] = ledger[parents[has_parent]]
    ledger_top = ledger & ~parent_in_ledger

    lo, hi = window_ns
    roots = (parents < 0) & (starts >= lo) & (ends <= hi)
    round_self = pick(ROUND)

    g_calls = calls(GAUSSIAN)
    sync_ns = total_ns(CLIENT_SYNC)
    return {
        "prng.gaussian_vector.calls_per_round": g_calls / rounds,
        "prng.gaussian_vector.ms_per_round": ms_per_round(GAUSSIAN),
        "prng.gaussian_vector.us_per_call":
            total_ns(GAUSSIAN) / 1e3 / g_calls if g_calls else 0.0,
        "prng.gaussian_vector.distinct_seed_share":
            len(tr.seeds) / g_calls if g_calls else 0.0,
        "zo.zo_scalars.ms_per_round": ms_per_round("zo.zo_scalars"),
        "zo.reconstruct_gradient.calls_per_round": calls("zo.reconstruct_gradient") / rounds,
        "zo.reconstruct_gradient.ms_per_round": ms_per_round("zo.reconstruct_gradient"),
        "protocol.client_sync.rounds_replayed_per_round": tr.replayed / rounds,
        "protocol.client_sync.ms_per_round": sync_ns / 1e6 / rounds,
        "protocol.client_sync.us_per_replayed_round":
            sync_ns / 1e3 / tr.replayed if tr.replayed else 0.0,
        "protocol.run_round.self_ms_per_round":
            float((dur[round_self] - child_ns[round_self]).sum()) / 1e6 / rounds,
        "protocol.draw_batch.ms_per_round": ms_per_round("protocol.draw_batch"),
        "protocol.sample_clients.ms_per_round": ms_per_round("protocol.sample_clients"),
        "model.client_forward.calls_per_round": calls("model.client_forward") / rounds,
        "model.client_forward.ms_per_round": ms_per_round("model.client_forward"),
        "model.server_forward_backward.ms_per_round":
            ms_per_round("model.server_forward_backward"),
        "model.client_backward_from_lambda.ms_per_round":
            ms_per_round("model.client_backward_from_lambda"),
        "model.server_loss.ms_per_round": ms_per_round("model.server_loss"),
        "model.evaluate_model.ms_per_round": ms_per_round("model.evaluate_model"),
        "traffic.ledger.calls_per_round": int(ledger.sum()) / rounds,
        "traffic.ledger.ms_per_round": float(dur[ledger_top].sum()) / 1e6 / rounds,
        "data.make_dataset.s": seconds("data.make_dataset"),
        "data.partition_dataset.s": seconds("data.partition_dataset"),
        "model.init_params.s": seconds("model.init_params"),
        "runner.build_simulation.s": seconds("runner.build_simulation"),
        "runner.write_outputs.s": seconds("runner.write_outputs"),
        "trace.covered_share": float(dur[roots].sum()) / (hi - lo - calibrating_ns),
    }
