"""Latency-hiding feasibility model."""

from dataclasses import replace

import pytest

from splitsim.latency import (
    DeviceProfile,
    NetworkProfile,
    WorkloadProfile,
    activation_payload_bytes,
    latency_sweep,
    max_overlapped_perturbations,
    noisy_pmax_stats,
    round_timeline,
    transformer_layer_flops,
)

EDGE_NET = NetworkProfile()       # 30 Mbps up, 200 Mbps down, 30 ms RTT
EDGE_DEV = DeviceProfile()        # 2 TFLOPS client, 312 TFLOPS server
MODEL_1B = WorkloadProfile()      # B=32, S=256, H=2048, 18 layers, fp16


class TestLayerFlops:
    def test_unit_geometry(self):
        # 24*1*1*1 + 4*1*1*1 = 28
        assert transformer_layer_flops(1, 1, 1) == 28.0

    def test_linear_in_batch(self):
        assert transformer_layer_flops(64, 256, 2048) == 2 * transformer_layer_flops(32, 256, 2048)

    def test_stack_additivity(self):
        one = transformer_layer_flops(32, 256, 2048)
        tl = round_timeline(EDGE_NET, EDGE_DEV, MODEL_1B)
        per_layer = tl.t_client_fwd / MODEL_1B.client_layers
        assert per_layer * 18 == pytest.approx(18 * one / (2.0e12 * 0.7))

    def test_activation_payload(self):
        assert activation_payload_bytes(MODEL_1B) == 32 * 256 * 2048 * 2


class TestTimeline:
    def test_ideal_network_and_server_has_no_idle(self):
        net = NetworkProfile(uplink_bps=1e18, downlink_bps=1e18, rtt_seconds=0.0)
        dev = DeviceProfile(server_flops_per_s=1e24)
        tl = round_timeline(net, dev, MODEL_1B)
        assert tl.idle_window < 1e-6

    def test_idle_window_decomposition(self):
        tl = round_timeline(EDGE_NET, EDGE_DEV, MODEL_1B)
        assert tl.idle_window == tl.t_uplink + tl.t_server + tl.t_downlink

    def test_idle_window_covers_several_forward_passes(self):
        tl = round_timeline(EDGE_NET, EDGE_DEV, MODEL_1B)
        assert tl.idle_window > 3 * tl.t_client_fwd

    def test_half_rtt_each_direction(self):
        fast = NetworkProfile(uplink_bps=1e18, downlink_bps=1e18, rtt_seconds=0.030)
        tl = round_timeline(fast, EDGE_DEV, MODEL_1B)
        assert tl.t_uplink == pytest.approx(0.015)
        assert tl.t_downlink == pytest.approx(0.015)


class TestOverlapCount:
    def test_reference_depth_gives_four(self):
        work = replace(MODEL_1B, client_layers=4)
        assert max_overlapped_perturbations(EDGE_NET, EDGE_DEV, work) in (3, 4, 5)

    def test_non_increasing_in_client_depth(self):
        counts = [max_overlapped_perturbations(EDGE_NET, EDGE_DEV,
                                               replace(MODEL_1B, client_layers=lc))
                  for lc in range(2, 9)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_infinitely_slow_client_fits_none(self):
        dev = DeviceProfile(client_flops_per_s=1e-18)
        work = replace(MODEL_1B, client_layers=4)
        tl = round_timeline(EDGE_NET, dev, work)
        assert tl.t_client_fwd > tl.idle_window
        assert max_overlapped_perturbations(EDGE_NET, dev, work) == 0

    def test_non_decreasing_in_rtt_and_server_time(self):
        work = replace(MODEL_1B, client_layers=4)
        base = max_overlapped_perturbations(EDGE_NET, EDGE_DEV, work)
        slow_rtt = NetworkProfile(rtt_seconds=5.0)
        assert max_overlapped_perturbations(slow_rtt, EDGE_DEV, work) >= base
        slow_server = DeviceProfile(server_flops_per_s=1e12)
        assert max_overlapped_perturbations(EDGE_NET, slow_server, work) >= base
        slow_uplink = NetworkProfile(uplink_bps=1e6)
        assert max_overlapped_perturbations(slow_uplink, EDGE_DEV, work) >= base

    def test_noise_band_brackets_deterministic_value(self):
        work = replace(MODEL_1B, client_layers=4)
        mean, lo, hi = noisy_pmax_stats(EDGE_NET, EDGE_DEV, work, 0.1, 100, 0)
        assert lo <= max_overlapped_perturbations(EDGE_NET, EDGE_DEV, work) <= hi
        assert 3 <= mean <= 5

    def test_noise_stats_deterministic_per_seed(self):
        work = replace(MODEL_1B, client_layers=4)
        assert noisy_pmax_stats(EDGE_NET, EDGE_DEV, work, 0.1, 50, 7) == \
            noisy_pmax_stats(EDGE_NET, EDGE_DEV, work, 0.1, 50, 7)


class TestSweep:
    def test_rows_cover_range(self):
        rows = latency_sweep(EDGE_NET, EDGE_DEV, MODEL_1B, range(2, 9))
        assert [r.client_layers for r in rows] == list(range(2, 9))

    def test_pmax_column_non_increasing(self):
        rows = latency_sweep(EDGE_NET, EDGE_DEV, MODEL_1B, range(2, 9))
        pm = [r.p_max for r in rows]
        assert all(a >= b for a, b in zip(pm, pm[1:]))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            NetworkProfile(uplink_bps=-1)
        with pytest.raises(ValueError):
            DeviceProfile(flops_utilization=0.0)
        with pytest.raises(ValueError):
            WorkloadProfile(client_layers=18, total_layers=18)
