"""Byte accounting: ledger arithmetic, closed forms, breakdown shares."""

from pathlib import Path

import pytest

from splitsim import runner
from splitsim.config import parse_config
from splitsim.model import SplitModelConfig
from splitsim.protocol import HyperParams
from splitsim.traffic import (
    MessageKind,
    TrafficLedger,
    breakdown_report,
    closed_form_traffic,
    label_payload_bytes,
)
from splitsim.zo import ZoConfig

SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "blobs_hosfl.yaml"


def _hp(k=10, b=32, p=5, m=20):
    return HyperParams(eta=0.1, M=m, K=k, batch_size=b, zo=ZoConfig(P=p, mu=1e-3))


CE_MODEL = SplitModelConfig((8, 4, 2), "tanh", 1, "softmax_cross_entropy")


class TestLedger:
    def test_zero_bytes_no_change(self):
        led = TrafficLedger()
        led.record(MessageKind.SCALAR_UP, 0)
        assert led.totals[MessageKind.SCALAR_UP] == 0

    def test_records_accumulate(self):
        led = TrafficLedger()
        led.record(MessageKind.MODEL_UP, 5)
        led.record(MessageKind.MODEL_UP, 5)
        assert led.totals[MessageKind.MODEL_UP] == 10

    def test_kinds_accumulate_independently(self):
        led = TrafficLedger()
        led.record(MessageKind.ACTIVATION_UP, 3)
        led.record(MessageKind.GRAD_DOWN, 4)
        led.record(MessageKind.ACTIVATION_UP, 7)
        assert led.totals[MessageKind.ACTIVATION_UP] == 10
        assert led.totals[MessageKind.GRAD_DOWN] == 4

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            TrafficLedger().record(MessageKind.SEED_DOWN, -1)

    def test_trace_keeps_message_records(self):
        led = TrafficLedger(trace=True)
        led.record(MessageKind.ACTIVATION_UP, 64, "client:3", "server")
        led.record(MessageKind.SEED_DOWN, 8, "server", "clients:*")
        assert len(led.messages) == 2
        assert led.messages[0].sender == "client:3"
        assert led.messages[1].kind is MessageKind.SEED_DOWN

    def test_trace_off_by_default(self):
        led = TrafficLedger()
        led.record(MessageKind.MODEL_UP, 8)
        assert led.messages is None

    def test_snapshots_are_cumulative(self):
        led = TrafficLedger()
        led.record(MessageKind.SCALAR_UP, 8)
        led.close_round()
        led.record(MessageKind.SCALAR_UP, 8)
        assert led.close_round() == led.snapshot()
        assert [s["ScalarUp"] for s in led.per_round] == [8, 16]

    def test_kind_given_by_name_counts_under_its_kind(self):
        led = TrafficLedger(trace=True)
        led.record("GradDown", 12)
        assert led.totals[MessageKind.GRAD_DOWN] == 12
        assert led.messages[0].kind is MessageKind.GRAD_DOWN
        assert led.total_bytes == 12

    def test_unknown_kind_rejected(self):
        led = TrafficLedger()
        with pytest.raises(ValueError):
            led.record("Bogus", 8)
        assert led.total_bytes == 0

    def test_snapshot_keys_in_kind_order(self):
        led = TrafficLedger()
        for kind in reversed(MessageKind):
            led.record(kind, 1)
        assert list(led.snapshot()) == [k.value for k in MessageKind]
        assert list(led.close_round()) == [k.value for k in MessageKind]


class TestClosedForm:
    def test_hybrid_scalar_uplink_independent_of_dimension(self):
        # K=10, P=5 -> 400 bytes/round regardless of client width
        for hidden in (4, 4000):
            model = SplitModelConfig((8, hidden, 2), "tanh", 1, "softmax_cross_entropy")
            out = closed_form_traffic(_hp(), model, "hosfl")
            assert out[MessageKind.SCALAR_UP] == 400

    def test_first_order_model_uplink_scales(self):
        # K=10, d_c = 1e6 -> 80 MB/round
        model = SplitModelConfig((1000, 1000, 2), "tanh", 1,
                                 "softmax_cross_entropy", bias=False)
        assert model.d_c == 10 ** 6
        out = closed_form_traffic(_hp(), model, "sfl")
        assert out[MessageKind.MODEL_UP] == 80_000_000

    def test_hybrid_sends_no_parameters(self):
        out = closed_form_traffic(_hp(), CE_MODEL, "hosfl")
        assert out[MessageKind.MODEL_UP] == 0
        assert out[MessageKind.MODEL_DOWN] == 0

    def test_two_point_doubles_activation_and_drops_feedback(self):
        sfl = closed_form_traffic(_hp(), CE_MODEL, "sfl")
        zo = closed_form_traffic(_hp(), CE_MODEL, "zosfl")
        assert zo[MessageKind.ACTIVATION_UP] == 2 * sfl[MessageKind.ACTIVATION_UP]
        assert zo[MessageKind.GRAD_DOWN] == 0
        assert sfl[MessageKind.GRAD_DOWN] > 0

    def test_label_payload_rules(self):
        assert label_payload_bytes(32, CE_MODEL) == 32 * 4
        reg = SplitModelConfig((8, 4, 3), "tanh", 1, "squared_error")
        assert label_payload_bytes(32, reg) == 32 * 3 * 8

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            closed_form_traffic(_hp(), CE_MODEL, "fedavg")


class TestBreakdown:
    def test_shares_sum_to_one(self):
        led = TrafficLedger()
        led.record(MessageKind.ACTIVATION_UP, 700)
        led.record(MessageKind.GRAD_DOWN, 200)
        led.record(MessageKind.SCALAR_UP, 100)
        rows = breakdown_report(led)
        assert abs(sum(r.share for r in rows) - 1.0) < 1e-9

    def test_exhaustive_over_kinds(self):
        rows = breakdown_report(TrafficLedger())
        assert {r.kind for r in rows} == {k.value for k in MessageKind}

    def test_empty_ledger_all_zero(self):
        rows = breakdown_report(TrafficLedger())
        assert all(r.bytes == 0 and r.share == 0.0 for r in rows)

    def test_directions(self):
        rows = {r.kind: r.direction for r in breakdown_report(TrafficLedger())}
        assert rows["ActivationUp"] == "up"
        assert rows["GradDown"] == "down"
        assert rows["SeedDown"] == "down"

    def test_csv_header(self, tmp_path):
        text = SHIPPED.read_text().replace("sample_budget: 3200", "sample_budget: 0")
        result = runner.run_experiment(parse_config(text))
        lines = runner.write_outputs(result, tmp_path)["traffic"].read_text().splitlines()
        assert lines[0] == "kind,direction,bytes,share"
        assert lines[1:] == [f"{k.value},{k.direction},0,0.0" for k in MessageKind]
