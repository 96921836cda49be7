"""Feasibility calculator for hiding client perturbation passes.

Models one split-transformer round: the client uploads a cut activation,
the server runs forward+backward and returns the activation gradient, and
the client's idle window (uplink + server compute + downlink) is measured
against the cost of one client forward pass. The number of perturbation
passes that fit in the window is the quantity of interest.

FLOPs model, fixed and documented: one transformer layer forward costs
24*B*S*H^2 + 4*B*S^2*H (dense blocks plus attention scores/values), the
server backward costs twice its forward, and sustained throughput is peak
FLOPS scaled by a utilization factor (default 0.7, a realistic fraction of
peak for transformer inference on accelerators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import prng
from .errors import ConfigError


@dataclass(frozen=True)
class NetworkProfile:
    """Link speeds in bits per second plus round-trip time in seconds."""

    uplink_bps: float = 30e6
    downlink_bps: float = 200e6
    rtt_seconds: float = 0.030

    def __post_init__(self):
        if min(self.uplink_bps, self.downlink_bps) <= 0 or self.rtt_seconds < 0:
            raise ValueError("network profile values must be positive")


@dataclass(frozen=True)
class DeviceProfile:
    """Peak FLOP/s of the two devices and the sustained-utilization fraction."""

    client_flops_per_s: float = 2.0e12
    server_flops_per_s: float = 312e12
    flops_utilization: float = 0.7

    def __post_init__(self):
        if min(self.client_flops_per_s, self.server_flops_per_s) <= 0:
            raise ValueError("device speeds must be positive")
        if not 0 < self.flops_utilization <= 1:
            raise ValueError("utilization must lie in (0, 1]")


@dataclass(frozen=True)
class WorkloadProfile:
    """Split-transformer round geometry; defaults follow a 1B-parameter model.
    How many of the layers the client keeps is the sweep's variable."""

    batch: int = 32
    seq_len: int = 256
    hidden: int = 2048
    total_layers: int = 18
    bytes_per_activation: int = 2

    def __post_init__(self):
        if min(self.batch, self.seq_len, self.hidden, self.total_layers,
               self.bytes_per_activation) < 1:
            raise ValueError("workload dimensions must be positive")


def _as_float(n: int) -> float:
    """n as a float; inf past the float range, as float arithmetic overflows."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def _per(amount: float, rate: float) -> float:
    """amount / rate, where a rate that underflowed to zero takes forever."""
    return amount / rate if rate else math.inf


def transformer_layer_flops(batch: int, seq_len: int, hidden: int) -> float:
    """Forward FLOPs of one transformer layer (dense blocks plus attention), as a float."""
    b, s, h = _as_float(batch), _as_float(seq_len), _as_float(hidden)
    return 24.0 * b * s * (h * h) + 4.0 * b * (s * s) * h


def activation_payload_bytes(work: WorkloadProfile) -> int:
    return work.batch * work.seq_len * work.hidden * work.bytes_per_activation


@dataclass(frozen=True)
class RoundTimeline:
    client_layers: int
    t_client_fwd: float
    t_uplink: float
    t_server: float
    t_downlink: float
    idle_window: float

    def __post_init__(self):
        # p_max floors this quotient into an int, so it must be finite
        if math.isfinite(_per(self.idle_window, self.t_client_fwd)):
            return
        if math.isinf(self.t_uplink + self.t_downlink):
            section, advice = "network", "raise the link speeds or lower rtt_seconds"
        elif math.isinf(self.idle_window):
            section, advice = "device", "raise the server speed"
        else:
            section, advice = "device", "lower the client speed"
        raise ConfigError(f"{section}: the idle window overflows at client_layers="
                          f"{self.client_layers}; {advice}")

    @property
    def p_max(self) -> int:
        """How many perturbation passes fit inside the client idle window."""
        return int(self.idle_window // self.t_client_fwd)


def round_timeline(net: NetworkProfile, dev: DeviceProfile, work: WorkloadProfile,
                   client_layers: int, jitter=(1.0, 1.0, 1.0, 1.0)) -> RoundTimeline:
    """Phase times for one round, the client keeping client_layers layers,
    and the client idle window.

    Half the RTT is attributed to each direction. The idle window covers
    activation uplink, server forward+backward, and feedback downlink; the
    client's own anchor forward sits outside it. jitter scales the uplink,
    downlink, client and server speeds. The times are Python floats, and an
    overflow is a ConfigError naming its profile section.
    """
    if not 1 <= client_layers < work.total_layers:
        raise ValueError("need 1 <= client_layers < total_layers")
    layer = transformer_layer_flops(work.batch, work.seq_len, work.hidden)
    client_flops = client_layers * layer
    server_flops = 3.0 * (work.total_layers - client_layers) * layer
    payload_bits = _as_float(activation_payload_bytes(work) * 8)
    if math.isinf(client_flops + server_flops + payload_bits):
        raise ConfigError(f"workload: the FLOPs or the activation payload overflow a float "
                          f"at client_layers={client_layers}; shrink the workload")
    up, down, client, server = jitter
    t_fwd = _per(client_flops, dev.client_flops_per_s * client * dev.flops_utilization)
    t_up = _per(payload_bits, net.uplink_bps * up) + net.rtt_seconds / 2
    t_down = _per(payload_bits, net.downlink_bps * down) + net.rtt_seconds / 2
    t_server = _per(server_flops, dev.server_flops_per_s * server * dev.flops_utilization)
    idle = t_up + t_server + t_down
    return RoundTimeline(client_layers, t_fwd, t_up, t_server, t_down, idle)


def noisy_pmax_stats(net: NetworkProfile, dev: DeviceProfile, work: WorkloadProfile,
                     client_layers: int, noise_frac: float = 0.1, trials: int = 100,
                     seed: int = 0):
    """(mean, min, max) of the overlap count at client_layers under
    +-noise_frac speed jitter."""
    if trials < 1:
        raise ValueError("need at least one trial")
    values = []
    for t in range(trials):
        u = prng.uniform_stream(prng.derive_stream(seed, prng.STREAM_PROBE, t), 4).tolist()
        jitter = [1.0 + noise_frac * (2.0 * x - 1.0) for x in u]
        values.append(round_timeline(net, dev, work, client_layers, jitter).p_max)
    return sum(values) / len(values), min(values), max(values)
