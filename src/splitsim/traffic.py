"""Per-kind byte accounting and breakdown reports.

Payload sizing: 8 bytes per float or seed, 4 bytes per class label; framing
headers are ignored. Broadcasts are counted once as server egress, while
per-client unicasts (activation feedback, model pushes) count per recipient:
a round charges each kind once, with the bytes of all its recipients.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

FLOAT_BYTES = 8
SEED_BYTES = 8
CLASS_LABEL_BYTES = 4

PROTOCOLS = ("hosfl", "sfl", "zosfl")


class MessageKind(str, Enum):
    ACTIVATION_UP = "ActivationUp"
    LABEL_UP = "LabelUp"
    GRAD_DOWN = "GradDown"
    MODEL_UP = "ModelUp"
    MODEL_DOWN = "ModelDown"
    SCALAR_UP = "ScalarUp"
    SCALAR_DOWN = "ScalarDown"
    SEED_DOWN = "SeedDown"

    @property
    def direction(self) -> str:
        return "up" if self.value.endswith("Up") else "down"


# snapshot keys, in MessageKind order
_KIND_NAMES = tuple(kind.value for kind in MessageKind)


class TrafficLedger:
    """Cumulative byte counts keyed by message kind; monotone by construction.

    totals holds every kind from the start, in MessageKind order, and record
    only updates it, so its values line up with _KIND_NAMES. record takes a
    MessageKind member only: anything else, its name as a str too, raises
    KeyError and counts nothing. A round records each kind once, with the
    bytes of all its clients.
    """

    def __init__(self):
        self.totals = {kind: 0 for kind in MessageKind}
        self.per_round = []

    def record(self, kind: MessageKind, nbytes: int):
        # a str equal to a kind's value hashes as the kind, so totals alone
        # would count it
        if type(kind) is not MessageKind:
            raise KeyError(kind)
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("byte counts must be non-negative")
        self.totals[kind] += nbytes

    def close_round(self) -> dict:
        """Append and return a cumulative snapshot for the round just finished."""
        snap = self.snapshot()
        self.per_round.append(snap)
        return snap

    def snapshot(self) -> dict:
        return dict(zip(_KIND_NAMES, self.totals.values()))

    @property
    def total_bytes(self) -> int:
        return sum(self.totals.values())


def label_payload_bytes(batch_size: int, model_cfg) -> int:
    """Uplink bytes for one batch of labels under the payload sizing rules."""
    if model_cfg.loss == "softmax_cross_entropy":
        return batch_size * CLASS_LABEL_BYTES
    return batch_size * model_cfg.n_out * FLOAT_BYTES


def closed_form_traffic(hp, model_cfg, protocol: str) -> dict:
    """Exact per-round byte counts each protocol generates, by message kind.

    These formulas are the oracle the recorded ledgers are checked against:
    totals after T rounds must equal T times this map, integer-exactly.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    k, b, p = hp.K, hp.batch_size, hp.zo.P
    d, d_c = model_cfg.cut_width, model_cfg.d_c
    act = k * b * d * FLOAT_BYTES
    labels = k * label_payload_bytes(b, model_cfg)
    out = {kind: 0 for kind in MessageKind}
    out[MessageKind.LABEL_UP] = labels
    if protocol == "hosfl":
        out[MessageKind.ACTIVATION_UP] = act
        out[MessageKind.GRAD_DOWN] = act
        out[MessageKind.SCALAR_UP] = k * p * FLOAT_BYTES
        out[MessageKind.SCALAR_DOWN] = p * FLOAT_BYTES
        out[MessageKind.SEED_DOWN] = p * SEED_BYTES
    elif protocol == "sfl":
        out[MessageKind.ACTIVATION_UP] = act
        out[MessageKind.GRAD_DOWN] = act
        out[MessageKind.MODEL_UP] = k * d_c * FLOAT_BYTES
        out[MessageKind.MODEL_DOWN] = k * d_c * FLOAT_BYTES
    else:  # zosfl: two perturbed activations up, loss scalars down, no feedback
        out[MessageKind.ACTIVATION_UP] = 2 * act
        out[MessageKind.MODEL_UP] = k * d_c * FLOAT_BYTES
        out[MessageKind.MODEL_DOWN] = k * d_c * FLOAT_BYTES
        out[MessageKind.SCALAR_DOWN] = k * FLOAT_BYTES
    return out


@dataclass(frozen=True)
class BreakdownRow:
    kind: str
    direction: str
    bytes: int
    share: float


def breakdown_report(ledger: TrafficLedger) -> list:
    """One row per message kind with its share of all traffic.

    Exhaustive over kinds; shares sum to 1 within 1e-9 unless the ledger is
    empty, in which case every row is zero.
    """
    total = ledger.total_bytes
    rows = []
    for kind in MessageKind:
        nbytes = ledger.totals[kind]
        share = nbytes / total if total > 0 else 0.0
        rows.append(BreakdownRow(kind.value, kind.direction, nbytes, share))
    return rows

