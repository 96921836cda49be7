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


def transformer_layer_flops(batch: int, seq_len: int, hidden: int) -> float:
    """Forward FLOPs of one transformer layer: dense blocks plus attention."""
    return 24.0 * batch * seq_len * hidden ** 2 + 4.0 * batch * seq_len ** 2 * hidden


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
        if not math.isfinite(self.idle_window / self.t_client_fwd):
            slow = "network" if math.isinf(self.t_uplink + self.t_downlink) else "device"
            raise ValueError(f"{slow}: the idle window overflows at client_layers="
                             f"{self.client_layers}; raise the {slow} speeds or "
                             f"shrink the workload")

    @property
    def p_max(self) -> int:
        """How many perturbation passes fit inside the client idle window."""
        return int(self.idle_window // self.t_client_fwd)


def round_timeline(net: NetworkProfile, dev: DeviceProfile, work: WorkloadProfile,
                   client_layers: int) -> RoundTimeline:
    """Phase times for one round, the client keeping client_layers layers,
    and the client idle window.

    Half the RTT is attributed to each direction. The idle window covers
    activation uplink, server forward+backward, and feedback downlink; the
    client's own anchor forward sits outside it.
    """
    if not 1 <= client_layers < work.total_layers:
        raise ValueError("need 1 <= client_layers < total_layers")
    layer = transformer_layer_flops(work.batch, work.seq_len, work.hidden)
    client_speed = dev.client_flops_per_s * dev.flops_utilization
    server_speed = dev.server_flops_per_s * dev.flops_utilization
    t_fwd = client_layers * layer / client_speed
    payload_bits = activation_payload_bytes(work) * 8
    t_up = payload_bits / net.uplink_bps + net.rtt_seconds / 2
    t_down = payload_bits / net.downlink_bps + net.rtt_seconds / 2
    t_server = 3.0 * (work.total_layers - client_layers) * layer / server_speed
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
        u = prng.uniform_stream(prng.derive_stream(seed, prng.STREAM_PROBE, t), 4)
        f = 1.0 + noise_frac * (2.0 * u - 1.0)
        jittered_net = NetworkProfile(net.uplink_bps * f[0], net.downlink_bps * f[1],
                                      net.rtt_seconds)
        jittered_dev = DeviceProfile(dev.client_flops_per_s * f[2],
                                     dev.server_flops_per_s * f[3],
                                     dev.flops_utilization)
        values.append(round_timeline(jittered_net, jittered_dev, work, client_layers).p_max)
    return sum(values) / len(values), min(values), max(values)
