"""Latency-hiding feasibility model."""

import math

import pytest

from splitsim.latency import (
    DeviceProfile,
    NetworkProfile,
    WorkloadProfile,
    RoundTimeline,
    activation_payload_bytes,
    noisy_pmax_stats,
    round_timeline,
    transformer_layer_flops,
)

EDGE_NET = NetworkProfile()       # 30 Mbps up, 200 Mbps down, 30 ms RTT
EDGE_DEV = DeviceProfile()        # 2 TFLOPS client, 312 TFLOPS server
MODEL_1B = WorkloadProfile()      # B=32, S=256, H=2048, 18 layers, fp16


def _pmax(net, dev, client_layers, work=MODEL_1B):
    return round_timeline(net, dev, work, client_layers).p_max


class TestLayerFlops:
    def test_unit_geometry(self):
        # 24*1*1*1 + 4*1*1*1 = 28
        assert transformer_layer_flops(1, 1, 1) == 28.0

    def test_linear_in_batch(self):
        assert transformer_layer_flops(64, 256, 2048) == 2 * transformer_layer_flops(32, 256, 2048)

    def test_stack_additivity(self):
        one = transformer_layer_flops(32, 256, 2048)
        tl = round_timeline(EDGE_NET, EDGE_DEV, MODEL_1B, 4)
        per_layer = tl.t_client_fwd / 4
        assert per_layer * 18 == pytest.approx(18 * one / (2.0e12 * 0.7))

    def test_activation_payload(self):
        assert activation_payload_bytes(MODEL_1B) == 32 * 256 * 2048 * 2


class TestTimeline:
    def test_ideal_network_and_server_has_no_idle(self):
        net = NetworkProfile(uplink_bps=1e18, downlink_bps=1e18, rtt_seconds=0.0)
        dev = DeviceProfile(server_flops_per_s=1e24)
        tl = round_timeline(net, dev, MODEL_1B, 4)
        assert tl.idle_window < 1e-6

    def test_idle_window_decomposition(self):
        tl = round_timeline(EDGE_NET, EDGE_DEV, MODEL_1B, 4)
        assert tl.idle_window == tl.t_uplink + tl.t_server + tl.t_downlink

    def test_idle_window_covers_several_forward_passes(self):
        tl = round_timeline(EDGE_NET, EDGE_DEV, MODEL_1B, 4)
        assert tl.idle_window > 3 * tl.t_client_fwd

    def test_half_rtt_each_direction(self):
        fast = NetworkProfile(uplink_bps=1e18, downlink_bps=1e18, rtt_seconds=0.030)
        tl = round_timeline(fast, EDGE_DEV, MODEL_1B, 4)
        assert tl.t_uplink == pytest.approx(0.015)
        assert tl.t_downlink == pytest.approx(0.015)


class TestOverlapCount:
    def test_reference_depth_gives_four(self):
        assert _pmax(EDGE_NET, EDGE_DEV, 4) in (3, 4, 5)

    def test_non_increasing_in_client_depth(self):
        counts = [_pmax(EDGE_NET, EDGE_DEV, lc) for lc in range(2, 9)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_infinitely_slow_client_fits_none(self):
        dev = DeviceProfile(client_flops_per_s=1e-18)
        tl = round_timeline(EDGE_NET, dev, MODEL_1B, 4)
        assert tl.t_client_fwd > tl.idle_window
        assert tl.p_max == 0
        # a sustained speed that underflows to zero takes forever, never divides by it
        dev = DeviceProfile(client_flops_per_s=5e-324, flops_utilization=0.1)
        assert round_timeline(EDGE_NET, dev, MODEL_1B, 4).p_max == 0

    def test_non_decreasing_in_rtt_and_server_time(self):
        base = _pmax(EDGE_NET, EDGE_DEV, 4)
        slow_rtt = NetworkProfile(rtt_seconds=5.0)
        assert _pmax(slow_rtt, EDGE_DEV, 4) >= base
        slow_server = DeviceProfile(server_flops_per_s=1e12)
        assert _pmax(EDGE_NET, slow_server, 4) >= base
        slow_uplink = NetworkProfile(uplink_bps=1e6)
        assert _pmax(slow_uplink, EDGE_DEV, 4) >= base

    def test_noise_band_brackets_deterministic_value(self):
        mean, lo, hi = noisy_pmax_stats(EDGE_NET, EDGE_DEV, MODEL_1B, 4, 0.1, 100, 0)
        assert lo <= _pmax(EDGE_NET, EDGE_DEV, 4) <= hi
        assert 3 <= mean <= 5

    def test_noise_stats_deterministic_per_seed(self):
        assert noisy_pmax_stats(EDGE_NET, EDGE_DEV, MODEL_1B, 4, 0.1, 50, 7) == \
            noisy_pmax_stats(EDGE_NET, EDGE_DEV, MODEL_1B, 4, 0.1, 50, 7)

    def test_timeline_never_floors_a_non_finite_quotient(self):
        with pytest.raises(ValueError, match="^device: the idle window overflows"):
            RoundTimeline(4, 1e-300, 1e10, 0.0, 0.0, 1e10)
        assert RoundTimeline(4, math.inf, 1.0, 1.0, 1.0, 3.0).p_max == 0


class TestSweep:
    def test_profile_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile(uplink_bps=-1)
        with pytest.raises(ValueError):
            DeviceProfile(flops_utilization=0.0)
        with pytest.raises(ValueError):
            WorkloadProfile(total_layers=0)
        for depth in (0, 18):
            with pytest.raises(ValueError, match="client_layers < total_layers"):
                round_timeline(EDGE_NET, EDGE_DEV, MODEL_1B, depth)
