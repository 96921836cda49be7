"""Experiment execution: wiring configs into simulations and emitting files.

Outputs per run: metrics.jsonl (one self-describing JSON record per line,
header first), traffic.csv (the breakdown table), checksum.txt (SHA-256 of
the final parameter vectors). Every emitted byte is a pure function of the
configuration and root seed. Every file splitsim writes, these and the other
subcommands' files, goes through write_files, line by line, with the bytes
file_text gives.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import model, prng, protocol
from .config import ExperimentConfig, config_to_dict
from .data import make_classification_blobs, make_regression_quadratic, partition_dataset
from .errors import ConfigError
from .traffic import BreakdownRow, TrafficLedger, breakdown_report

METRICS_FILE = "metrics.jsonl"
TRAFFIC_FILE = "traffic.csv"
CHECKSUM_FILE = "checksum.txt"
DEFAULT_OUT_DIR = "out"


# slots: a run holds one record per round, and a record with a __dict__
# would keep one more dict each once anything reads its vars()
@dataclass(slots=True)
class MetricsRecord:
    round: int
    train_loss: float
    eval_loss: float
    eval_accuracy: float | None
    grad_norm: float
    samples_processed: int
    traffic: dict


# a metrics.jsonl round row's keys, and the record's values in their order
_ROW_KEYS = ("record", *(f.name for f in fields(MetricsRecord)))
_row_values = operator.attrgetter(*_ROW_KEYS[1:])


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list
    sim: protocol.Simulation


def _build_dataset(cfg: ExperimentConfig, seed: int) -> model.Batch:
    """The model's task at its widths: blobs with n_out classes under
    softmax_cross_entropy, n_out target columns under squared_error."""
    data, n_in, n_out = cfg.data, cfg.model.n_in, cfg.model.n_out
    if cfg.model.loss == "softmax_cross_entropy":
        return make_classification_blobs(data.n, n_in, n_out, data.separation, seed)
    return make_regression_quadratic(data.n, n_in, n_out, seed)


def build_simulation(cfg: ExperimentConfig) -> protocol.Simulation:
    """Deterministically construct dataset, shards, and initial states.

    The server copy and all M clients hold one read-only init theta_c, under
    every protocol, so setup memory does not grow with M x d_c."""
    root = cfg.root_seed
    full = _build_dataset(cfg, prng.derive_stream(root, prng.STREAM_DATA))
    if not np.all(np.isfinite(full.inputs)):
        raise ConfigError("the generated data has non-finite inputs; lower data.separation")
    n_eval = int(full.size * cfg.data.eval_fraction)
    n_train = full.size - n_eval
    train = model.Batch(full.inputs[:n_train], full.labels[:n_train])
    # with no held-out split, evaluation runs on the training set
    start = n_train if n_eval > 0 else 0
    eval_batch = model.Batch(full.inputs[start:], full.labels[start:])

    shards = partition_dataset(train, cfg.partition, cfg.hp.M,
                               prng.derive_stream(root, prng.STREAM_PARTITION))
    # the config rejects M above the training rows, so only dirichlet can
    # leave a shard empty
    empty = [cid for cid, shard in enumerate(shards, start=1) if len(shard) == 0]
    if empty:
        raise ConfigError(
            f"partition leaves client {empty[0]} with an empty data shard "
            f"({len(empty)} of {cfg.hp.M} empty); raise partition.alpha or data.n, "
            f"or lower hp.M"
        )

    theta = model.init_params(cfg.model, root)
    theta_c, theta_s = theta[: cfg.model.d_c], theta[cfg.model.d_c:]
    theta_c.setflags(write=False)
    server = protocol.ServerState(theta_s=theta_s, theta_c_global=theta_c)
    clients = {
        cid: protocol.ClientState(client_id=cid, theta_c=theta_c, shard=shards[cid - 1])
        for cid in range(1, cfg.hp.M + 1)
    }
    return protocol.Simulation(
        protocol=cfg.protocol, model_cfg=cfg.model, hp=cfg.hp, dataset=train,
        eval_batch=eval_batch, server=server, clients=clients,
        ledger=TrafficLedger(), root_seed=root,
    )


def run_experiment(cfg: ExperimentConfig,
                   perturb_fn=prng.gaussian_vector) -> RunResult:
    """Run one configured experiment and return the full metrics log."""
    sim = build_simulation(cfg)
    records = []
    samples = 0
    for _ in range(protocol.planned_rounds(cfg.hp, cfg.sample_budget)):
        rm = protocol.run_round(sim, perturb_fn)
        traffic = sim.ledger.close_round()
        samples += rm.samples
        theta = np.concatenate([sim.server.theta_c_global, sim.server.theta_s])
        eval_loss, eval_acc = model.evaluate_model(theta, sim.eval_batch, sim.model_cfg)
        records.append(MetricsRecord(
            round=rm.round, train_loss=rm.train_loss, eval_loss=eval_loss,
            eval_accuracy=eval_acc, grad_norm=rm.grad_norm,
            samples_processed=samples, traffic=traffic,
        ))
    return RunResult(config=cfg, records=records, sim=sim)


# -----------------------------------------------------------------------------
# File emission
# -----------------------------------------------------------------------------

def _config_digest(cfg: ExperimentConfig) -> str:
    semantic = config_to_dict(cfg)
    semantic.pop("output_dir", None)  # where files land does not change the run
    blob = json.dumps(semantic, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def metrics_lines(result: RunResult):
    """metrics.jsonl's lines, the header then one per round, each made as it
    is read."""
    header = {
        "record": "header",
        "protocol": result.config.protocol,
        "root_seed": result.config.root_seed,
        "config_sha256": _config_digest(result.config),
        "fields": list(_ROW_KEYS[1:]),
    }
    yield json.dumps(header)
    # not dataclasses.asdict, which deep-copies every traffic dict
    for r in result.records:
        yield json.dumps(dict(zip(_ROW_KEYS, ("round", *_row_values(r)))))


def traffic_lines(result: RunResult) -> list:
    return [[f.name for f in fields(BreakdownRow)]] + [
        astuple(r) for r in breakdown_report(result.sim.ledger)]


def checksum_lines(result: RunResult) -> list:
    theta_c = result.sim.server.theta_c_global.tobytes()
    theta_s = result.sim.server.theta_s.tobytes()
    return [
        f"theta_c_sha256={hashlib.sha256(theta_c).hexdigest()}",
        f"theta_s_sha256={hashlib.sha256(theta_s).hexdigest()}",
        f"combined_sha256={hashlib.sha256(theta_c + theta_s).hexdigest()}",
    ]


def _text_pieces(lines):
    """file_text in pieces, one per line: each line after the first follows
    its newline, and a last newline ends the text."""
    newline = ""
    for line in lines:
        yield newline + (line if isinstance(line, str) else ",".join(map(str, line)))
        newline = "\n"
    yield "\n"


def file_text(lines) -> str:
    """One newline-terminated line per item: a str as is, any other row as
    CSV cells joined by commas (str, not repr: numpy 2 reprs np.float64 as
    np.float64(...))."""
    return "".join(_text_pieces(lines))


def out_path(out_dir) -> Path:
    """Where write_files writes: out_dir, or DEFAULT_OUT_DIR when it is
    missing or empty; a ConfigError when the nearest existing path is a file."""
    out = Path(out_dir or DEFAULT_OUT_DIR)
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        raise ConfigError(f"output location {out} is not a directory: {nearest} is a file")
    return out


def write_files(out_dir, files: dict) -> dict:
    """Write {label: (file name, lines)} into out_path(out_dir); return {label: path}.

    Each file gets the bytes of file_text(lines), written line by line as
    lines yields them, so a write holds one line at a time, not the text.
    """
    out = out_path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, (name, lines) in files.items():
        paths[label] = out / name
        with paths[label].open("w") as fh:
            fh.writelines(_text_pieces(lines))
    return paths


def write_outputs(result: RunResult, out_dir) -> dict:
    """Write metrics, traffic breakdown, and parameter checksums; return paths."""
    return write_files(out_dir, {
        "metrics": (METRICS_FILE, metrics_lines(result)),
        "traffic": (TRAFFIC_FILE, traffic_lines(result)),
        "checksum": (CHECKSUM_FILE, checksum_lines(result)),
    })
