"""Bit stability of the shipped configuration across code changes.

Every emitted byte is a pure function of (config, root seed), so the final
parameter checksum of the shipped config is pinned per protocol. A change
that moves one of these values changes the simulator's numbers and must
say so.
"""

from pathlib import Path

import pytest
import yaml

from splitsim import runner
from splitsim.config import parse_config

SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "blobs_hosfl.yaml"

GOLDEN = {
    "hosfl": "741a3c1ad609e153af4715ffd993e8e2636d87217166a42557dd496391aeecbe",
    "sfl": "0dd8a38777e64beac8d36e258f5f827ad68dd7f230a18f3b12106fec283812be",
    "zosfl": "38af915bb9074238740aeb61c4a0ba49adb259d9107396978179ac463542827e",
}


@pytest.mark.parametrize("proto", sorted(GOLDEN))
def test_shipped_config_combined_checksum(proto):
    text = SHIPPED.read_text().replace("protocol: hosfl", f"protocol: {proto}")
    cfg = parse_config(text)
    assert cfg.protocol == proto
    result = runner.run_experiment(cfg)
    assert len(result.records) == 100
    assert runner.checksum_lines(result)[2] == f"combined_sha256={GOLDEN[proto]}"


# layer_dims [8, 16, 8, 2] cut at 2: two tanh layers on each side of the cut
DEEP = {
    "hosfl": "3518c8a16eb773a792fec728ae1e144d379119a746f2e7c5923eee8bcf647c09",
    "sfl": "fa7b58845dacb5ddc211f056a39983d9550fdb8fe2b889a62100354dd5d79855",
    "zosfl": "0f37ad7dd60538b873d93451d71209e3f364ef7b65a180e71e131c968e1f0bb6",
}


@pytest.mark.parametrize("proto", sorted(DEEP))
def test_deep_split_combined_checksum(proto):
    cfg = yaml.safe_load(SHIPPED.read_text())
    cfg["protocol"] = proto
    cfg["model"].update(layer_dims=[8, 16, 8, 2], cut_index=2)
    result = runner.run_experiment(parse_config(yaml.safe_dump(cfg)))
    assert len(result.records) == 100
    assert runner.checksum_lines(result)[2] == f"combined_sha256={DEEP[proto]}"


def test_stragglers_adam_combined_checksum():
    # M=32 with K=2: most rounds replay a long catch-up under adam state
    cfg = yaml.safe_load(SHIPPED.read_text())
    cfg["hp"].update(M=32, K=2, optimizer="adam", eta=0.01)
    cfg["partition"] = {"mode": "iid"}
    result = runner.run_experiment(parse_config(yaml.safe_dump(cfg)))
    assert len(result.records) == 100
    assert runner.checksum_lines(result)[2] == (
        "combined_sha256=886b2bc02a4da0d04d217622efa4781a5f4cd7fa7ca45d247d4c57139ca38317")


# config_sha256 in every metrics.jsonl header; sample_budget unset falls back to hp.T
CONFIG_DIGEST = {
    "shipped": "db9a150fbf8501b6d5e7a418065a24542bfc389db6d28ec7620809d45c58afce",
    "no_budget": "3823e574fb540c97ca428021b033b3af29871ea9e26a0288c74afafcf0469192",
}


def test_shipped_config_digest():
    text = SHIPPED.read_text()
    assert "sample_budget: 3200\n" in text
    assert runner._config_digest(parse_config(text)) == CONFIG_DIGEST["shipped"]
    no_budget = parse_config(text.replace("sample_budget: 3200\n", ""))
    assert runner._config_digest(no_budget) == CONFIG_DIGEST["no_budget"]
