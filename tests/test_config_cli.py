"""Configuration schema and the command-line surface."""

import functools
import json
import math
import re
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim import cli, config, latency, prng, protocol, runner
from splitsim.config import (
    DataConfig,
    LatencyProfileConfig,
    SweepConfig,
    config_to_dict,
    parse_config,
    parse_latency_profile,
)
from splitsim.data import PARTITION_MODES, PartitionSpec
from splitsim.errors import ConfigError, NumericalError
from splitsim.latency import DeviceProfile, NetworkProfile, WorkloadProfile
from splitsim.traffic import MessageKind

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LATENCY_EDGE = CONFIGS / "latency_edge.yaml"
SHIPPED = CONFIGS / "blobs_hosfl.yaml"

GOOD = """
protocol: hosfl
root_seed: 1234
model:
  layer_dims: [8, 4, 2]
  activation: tanh
  cut_index: 1
  loss: softmax_cross_entropy
hp:
  eta: 0.05
  M: 4
  K: 2
  batch_size: 8
  zo: {P: 3, mu: 1.0e-3}
partition: {mode: iid}
data: {n: 200, separation: 3.0}
sample_budget: 160
"""


REGRESSION = (GOOD.replace("loss: softmax_cross_entropy", "loss: squared_error")
              .replace("n: 200, separation: 3.0", "n: 200"))


def _with(text, path, value):
    """text with the YAML field at dotted path set to value."""
    raw = yaml.safe_load(text) or {}
    *parents, leaf = path.split(".")
    node = raw
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return yaml.safe_dump(raw)


class TestParsing:
    def test_good_config_parses(self):
        cfg = parse_config(GOOD)
        assert cfg.protocol == "hosfl"
        assert cfg.hp.zo.P == 3
        assert cfg.model.d_c == 8 * 4 + 4

    def test_missing_protocol_names_field(self):
        bad = GOOD.replace("protocol: hosfl\n", "")
        with pytest.raises(ConfigError, match="protocol"):
            parse_config(bad)

    def test_k_greater_than_m_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("K: 2", "K: 9"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config(GOOD + "\nmystery: 1\n")

    @pytest.mark.parametrize("path,value", [
        ("hp.warmup", 3),
        # keys the schema no longer has: the sample budget fixes the run
        # length, and the model's widths fix the data's shape
        ("hp.T", 40), ("data.dim", 8), ("data.classes", 2), ("data.out_dim", 2),
        ("data.noise", 0.0),
    ])
    def test_unknown_nested_key_rejected(self, path, value):
        section, key = path.split(".")
        with pytest.raises(ConfigError,
                           match=re.escape(f"unknown key {key!r} in section {section!r}")):
            parse_config(_with(GOOD, path, value))

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("protocol: [unclosed\nhp: {")

    def test_defaults_applied(self):
        text = GOOD.replace("  zo: {P: 3, mu: 1.0e-3}\n", "")
        cfg = parse_config(text)
        assert cfg.hp.zo.P == 5
        assert cfg.hp.zo.mu == 1e-3
        assert cfg.hp.optimizer == "sgd"

    def test_data_shape_comes_from_the_model(self):
        # a 3-class model needs no class count in its data section
        cfg = parse_config(GOOD.replace("[8, 4, 2]", "[5, 4, 3]"))
        dataset = runner.build_simulation(cfg).dataset
        assert dataset.inputs.shape[1] == 5
        assert sorted(set(dataset.labels.tolist())) == [0, 1, 2]
        reg = parse_config(REGRESSION.replace("[8, 4, 2]", "[5, 4, 3]"))
        assert runner.build_simulation(reg).dataset.labels.shape[1] == 3

    @pytest.mark.parametrize("width,n", [(1, 200), (3, 2)])
    def test_blob_class_count_rejected(self, width, n):
        # one class, or fewer samples than classes, cannot make blobs
        text = GOOD.replace("[8, 4, 2]", f"[8, 4, {width}]").replace("n: 200,", f"n: {n},")
        with pytest.raises(ConfigError, match="data.n >= classes >= 2"):
            parse_config(text)

    @pytest.mark.parametrize("proto", ["sfl", "zosfl"])
    def test_adam_rejected_for_baselines(self, proto):
        text = GOOD.replace("protocol: hosfl", f"protocol: {proto}")
        with pytest.raises(ConfigError, match="optimizer"):
            parse_config(text.replace("batch_size: 8", "batch_size: 8\n  optimizer: adam"))

    def test_bias_parses_yaml_booleans(self):
        text = GOOD.replace("cut_index: 1", "cut_index: 1\n  bias: false")
        assert parse_config(text).model.bias is False
        assert parse_config(GOOD).model.bias is True

    @pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null", "[true]"])
    def test_bias_rejects_non_booleans(self, value):
        text = GOOD.replace("cut_index: 1", f"cut_index: 1\n  bias: {value}")
        with pytest.raises(ConfigError, match="model.bias"):
            parse_config(text)

    @pytest.mark.parametrize("path,value", [
        ("hp.M", 8.9), ("hp.K", True), ("hp.batch_size", 16.7),
        ("hp.zo.P", 5.5), ("model.cut_index", 1.5), ("data.n", 1200.5),
        ("root_seed", 3.7), ("root_seed", False), ("sample_budget", 160.5),
        ("model.layer_dims", [8, 16.9, 2]), ("model.layer_dims", [8, True, 2]),
        ("hp.M", "8"), ("root_seed", "12"), ("data.n", "1200"),
    ])
    def test_integer_fields_reject_bools_and_fractions(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(_with(GOOD, path, value))

    def test_float_fields_accept_numeric_strings(self):
        # PyYAML reads 1e-3 (no dot) as the string "1e-3", so a float field
        # must keep parsing strings
        assert yaml.safe_load("mu: 1e-3") == {"mu": "1e-3"}
        cfg = parse_config(_with(GOOD.replace("mu: 1.0e-3", "mu: 1e-3"), "hp.eta", "0.05"))
        assert (cfg.hp.zo.mu, cfg.hp.eta) == (1e-3, 0.05)

    @pytest.mark.parametrize("path,value", [
        ("hp.eta", True), ("hp.zo.mu", False), ("partition.alpha", True),
        ("data.separation", True), ("data.eval_fraction", True),
    ])
    def test_float_fields_reject_bools(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(_with(GOOD, path, value))

    @pytest.mark.parametrize("path,value", [
        ("network.uplink_bps", True), ("device.flops_utilization", False),
        ("workload.batch", 32.5), ("workload.hidden", True), ("sweep.layer_min", 2.5),
        ("sweep.noise_trials", True), ("sweep.noise_frac", True), ("sweep.noise_seed", 7.5),
        ("sweep.noise_seed", "7"),
    ])
    def test_latency_fields_reject_bools_and_fractions(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_latency_profile(_with("", path, value))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "nan", "-inf"])
    @pytest.mark.parametrize("path", ["hp.eta", "hp.zo.mu", "partition.alpha",
                                      "data.separation", "data.eval_fraction",
                                      "network.uplink_bps"])
    def test_float_fields_reject_non_finite(self, path, value):
        latency = path.startswith("network.")
        parse = parse_latency_profile if latency else parse_config
        with pytest.raises(ConfigError, match=re.escape(f"{path} must be a finite number")):
            parse(_with("" if latency else GOOD, path, value))

    def test_layer_dims_must_be_a_list(self):
        with pytest.raises(ConfigError, match="model.layer_dims"):
            parse_config(_with(GOOD, "model.layer_dims", 8))

    def test_integral_numbers_still_parse(self):
        cfg = parse_config(_with(_with(GOOD, "hp.M", 4.0), "hp.eta", 1))
        assert (cfg.hp.M, cfg.hp.eta) == (4, 1.0)
        assert isinstance(cfg.hp.M, int) and isinstance(cfg.hp.eta, float)

    def test_regression_parses_with_iid(self):
        cfg = parse_config(REGRESSION)
        assert (cfg.data.separation, cfg.partition.mode) == (None, "iid")

    def test_dirichlet_rejected_for_regression(self):
        with pytest.raises(ConfigError, match="dirichlet needs class labels"):
            parse_config(REGRESSION.replace("{mode: iid}", "{mode: dirichlet, alpha: 1.0}"))

    def test_round_trip(self):
        cfg = parse_config(GOOD)
        assert parse_config(yaml.safe_dump(config_to_dict(cfg))) == cfg

    def test_shipped_latency_profile(self):
        prof = parse_latency_profile(LATENCY_EDGE.read_text())
        assert prof.network == NetworkProfile(uplink_bps=30e6, downlink_bps=200e6,
                                              rtt_seconds=0.030)
        assert prof.device == DeviceProfile(client_flops_per_s=2e12,
                                            server_flops_per_s=312e12,
                                            flops_utilization=0.7)
        assert prof.workload == WorkloadProfile(batch=32, seq_len=256, hidden=2048,
                                                total_layers=18, bytes_per_activation=2)
        assert prof.sweep == SweepConfig(layer_min=2, layer_max=8, noise_trials=100,
                                         noise_frac=0.1, noise_seed=7)

    def test_null_sections_take_defaults(self):
        prof = parse_latency_profile("network: null\nsweep:\n")
        assert prof == LatencyProfileConfig()
        cfg = parse_config(GOOD.replace("partition: {mode: iid}", "partition: null"))
        assert cfg.partition == PartitionSpec()

    @pytest.mark.parametrize("path", ["sample_budget", "root_seed", "model.activation",
                                      "data.n"])
    def test_null_rejected_for_plain_fields(self, path):
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(_with(GOOD, path, None))

    @pytest.mark.parametrize("path,value", [("partition", 0), ("hp.zo", False),
                                            ("data", []), ("output_dir", 0)])
    def test_non_mapping_sections_and_non_string_text_rejected(self, path, value):
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(_with(GOOD, path, value))

    def test_latency_profile_defaults(self):
        prof = parse_latency_profile("")
        assert prof.network.uplink_bps == 30e6
        assert prof.workload.total_layers == 18

    def test_latency_profile_overrides(self):
        prof = parse_latency_profile(
            "network: {uplink_bps: 1.0e6}\nsweep: {layer_min: 3, layer_max: 5}\n"
        )
        assert prof.network.uplink_bps == 1e6
        assert (prof.sweep.layer_min, prof.sweep.layer_max) == (3, 5)

    def test_latency_profile_bad_range(self):
        with pytest.raises(ConfigError):
            parse_latency_profile("sweep: {layer_min: 9, layer_max: 2}\n")

    @pytest.mark.parametrize("frac", [0.0, 1.0])
    def test_latency_noise_frac_bounds_accepted(self, frac):
        prof = parse_latency_profile(f"sweep: {{noise_trials: 5, noise_frac: {frac}}}\n")
        assert (prof.sweep.noise_trials, prof.sweep.noise_frac) == (5, frac)

    @pytest.mark.parametrize("sweep", ["{noise_trials: 5, noise_frac: 1.5}",
                                       "{noise_trials: 5, noise_frac: -0.1}",
                                       "{noise_frac: .nan}",
                                       "{noise_trials: -3}",
                                       # derive_stream masks to 64 bits: -1 would alias 2**64-1
                                       "{noise_seed: -1}",
                                       f"{{noise_seed: {2**64}}}"])
    def test_latency_noise_settings_rejected(self, sweep):
        with pytest.raises(ConfigError, match="noise_"):
            parse_latency_profile(f"sweep: {sweep}\n")

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_latency_noise_seed_edges_accepted(self, seed):
        assert parse_latency_profile(f"sweep: {{noise_seed: {seed}}}\n").sweep.noise_seed == seed

    def test_latency_non_numeric_sweep_rejected(self):
        with pytest.raises(ConfigError):
            parse_latency_profile("sweep: {layer_min: two}\n")


# YAML the pure-Python and the libyaml parser must read alike: an anchor
# with its alias and a merge, a duplicate key (the last one wins), YAML 1.1
# scalars and a string PyYAML leaves unresolved
EDGE_DOCUMENT = """
base: &base {x: 1, y: [1, 2]}
alias: *base
merged: {<<: *base, y: 3}
dup: 1
dup: 2
inf: .inf
ninf: -.Inf
underscored: 1_000
hex: 0x1F
yes_flag: yes
no_flag: No
nothing: ~
unresolved: 1e-3
quoted: '012'
"""


class TestYamlLoader:
    @pytest.mark.parametrize("text", [
        SHIPPED.read_text(), LATENCY_EDGE.read_text(), GOOD, REGRESSION, EDGE_DOCUMENT,
    ])
    def test_loads_as_the_pure_python_loader_does(self, text):
        fast = yaml.load(text, Loader=config._LOADER)
        # repr tells True from 1 and 1000 from 1000.0, which == does not
        assert repr(fast) == repr(yaml.load(text, Loader=yaml.SafeLoader))
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)

    def test_edge_document_values(self):
        raw = yaml.load(EDGE_DOCUMENT, Loader=config._LOADER)
        assert raw["alias"] == {"x": 1, "y": [1, 2]}
        assert raw["merged"] == {"x": 1, "y": 3}
        assert (raw["dup"], raw["inf"], raw["ninf"]) == (2, math.inf, -math.inf)
        assert (raw["underscored"], raw["hex"]) == (1000, 31)
        assert (raw["yes_flag"], raw["no_flag"], raw["nothing"]) == (True, False, None)
        assert (raw["unresolved"], raw["quoted"]) == ("1e-3", "012")

    def test_libyaml_is_used_when_built(self):
        # a silent fall-back to the pure-Python parser fails here
        if yaml.__with_libyaml__:
            assert config._LOADER is yaml.CSafeLoader
        else:
            assert config._LOADER is yaml.SafeLoader

    def test_malformed_run_config_exits_1_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text(GOOD.replace("partition: {mode: iid}", "partition: {mode: iid"))
        assert cli.main(["run", "--config", str(path)]) == 1
        # the parser stops on the line after the unclosed mapping
        line = GOOD.splitlines().index("partition: {mode: iid}") + 2
        assert f": parse error at line {line}: " in capsys.readouterr().err


SUBCOMMANDS = ["run", "sweep-latency", "diagnose-estimator", "report-traffic"]


def _config_args(sub, config_file):
    """sweep-latency runs on its default profile; the rest read config_file."""
    return [] if sub == "sweep-latency" else ["--config", str(config_file)]


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output location was checked")


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(GOOD)
    return path


class TestCli:
    def test_run_writes_outputs_and_exits_zero(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", str(config_file), "--out", str(out)])
        assert rc == 0
        assert (out / "metrics.jsonl").exists()
        assert (out / "traffic.csv").exists()
        assert (out / "checksum.txt").exists()
        lines = (out / "metrics.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        # budget 160 at K=2, B=8 -> exactly 10 rounds
        assert len(lines) == 11

    def test_zero_budget_header_only(self, config_file, tmp_path):
        text = config_file.read_text().replace("sample_budget: 160", "sample_budget: 0")
        config_file.write_text(text)
        out = tmp_path / "out0"
        assert cli.main(["run", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["record"] == "header"

    def test_reruns_byte_identical(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(config_file), "--out", str(out_a)])
        cli.main(["run", "--config", str(config_file), "--out", str(out_b)])
        for name in ("metrics.jsonl", "traffic.csv", "checksum.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_outputs(self, config_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["run", "--config", str(config_file), "--out", str(out_a)])
        cli.main(["run", "--config", str(config_file), "--out", str(out_b),
                  "--seed", "777"])
        assert (out_a / "checksum.txt").read_text() != (out_b / "checksum.txt").read_text()

    def test_protocol_sweep_scalar_up_only_for_hybrid(self, config_file, tmp_path):
        ups = {}
        for proto in ("hosfl", "sfl", "zosfl"):
            text = GOOD.replace("protocol: hosfl", f"protocol: {proto}")
            path = tmp_path / f"{proto}.yaml"
            path.write_text(text)
            out = tmp_path / proto
            assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
            rows = (out / "traffic.csv").read_text().splitlines()[1:]
            cells = {r.split(",")[0]: int(r.split(",")[2]) for r in rows}
            ups[proto] = cells["ScalarUp"]
        assert ups["hosfl"] > 0
        assert ups["sfl"] == 0 and ups["zosfl"] == 0

    @pytest.mark.parametrize("seed", [str(1 << 64), "-1"])
    def test_seed_override_outside_64_bits_is_usage_error(self, seed, config_file,
                                                          tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["run", "--config", str(config_file), "--out", str(out), "--seed", seed])
        assert rc == 1
        assert "root_seed must fit in 64 bits" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["run", "--config", str(tmp_path / "nope.yaml")])
        assert rc == 1

    def test_invalid_config_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(GOOD.replace("K: 2", "K: 99"))
        assert cli.main(["run", "--config", str(path)]) == 1

    def test_adam_for_baseline_is_usage_error(self, tmp_path):
        path = tmp_path / "adam.yaml"
        text = GOOD.replace("protocol: hosfl", "protocol: sfl")
        path.write_text(text.replace("batch_size: 8", "batch_size: 8\n  optimizer: adam"))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("sub", ["run", "diagnose-estimator"])
    @pytest.mark.parametrize("partition,n,hint", [
        ("{mode: dirichlet, alpha: 0.01}", 200, "raise partition.alpha or data.n, or lower hp.M"),
        # 16 training samples cannot fill 40 shards
        ("{mode: iid}", 20, "raise data.n, or lower hp.M"),
    ])
    def test_empty_shard_is_usage_error(self, sub, partition, n, hint, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text(GOOD.replace("M: 4", "M: 40").replace("n: 200,", f"n: {n},").replace(
            "partition: {mode: iid}", f"partition: {partition}"))
        rc = cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.search(r"client \d+ with an empty data shard \(\d+ of 40 empty\); ", err)
        assert err.endswith(hint + "\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path,value,message", [
        ("data.n", 1, "data: n must be at least 2, got 1"),
        ("data.eval_fraction", 1.0, "data: eval_fraction must lie in [0, 1), got 1.0"),
    ])
    def test_data_error_names_its_section_once(self, path, value, message, tmp_path, capsys):
        cfg_path = tmp_path / "data.yaml"
        cfg_path.write_text(_with(GOOD, path, value))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: invalid config {cfg_path}: {message}\n"

    def test_non_finite_generated_inputs_are_usage_error(self, tmp_path, capsys):
        # blob centers scaled by 1e308 overflow to inf
        path = tmp_path / "huge.yaml"
        path.write_text(GOOD.replace("separation: 3.0", "separation: 1.0e308"))
        rc = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "non-finite inputs; lower data.separation" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_string_bias_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bias.yaml"
        path.write_text(GOOD.replace("cut_index: 1", 'cut_index: 1\n  bias: "false"'))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "model.bias" in capsys.readouterr().err

    @pytest.mark.parametrize("path,value", [("hp.M", 8.9), ("hp.K", True),
                                            ("model.layer_dims", [8, 4.5, 2]), ("hp.M", "4")])
    def test_non_integer_field_is_usage_error(self, path, value, tmp_path, capsys):
        cfg_path = tmp_path / "num.yaml"
        cfg_path.write_text(_with(GOOD, path, value))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert path in capsys.readouterr().err

    def test_dirichlet_regression_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "reg.yaml"
        path.write_text(REGRESSION.replace("{mode: iid}", "{mode: dirichlet, alpha: 1.0}"))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "class labels" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_single_class_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "one.yaml"
        path.write_text(GOOD.replace("[8, 4, 2]", "[8, 4, 1]"))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "data.n >= classes >= 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text,message", [
        (_with(GOOD, "data.classes", 2), "unknown key 'classes' in section 'data'"),
        # the model's loss picks the task
        (_with(GOOD, "data.task", "classification_blobs"),
         "unknown key 'task' in section 'data'"),
        # a data key is required where it is read and rejected where it is not
        (_with(REGRESSION, "data.separation", 3.0),
         "data.separation is read under loss softmax_cross_entropy only"),
        (GOOD.replace("n: 200, separation: 3.0", "n: 200"),
         "data.separation is required under loss softmax_cross_entropy"),
        (_with(GOOD, "partition.alpha", 1.0),
         "partition: alpha is read under mode dirichlet only"),
        (_with(GOOD, "partition.mode", "dirichlet"),
         "partition: alpha is required under mode dirichlet"),
        # top-level fields out of range
        (_with(GOOD, "protocol", "fedavg"),
         "protocol must be one of ('hosfl', 'sfl', 'zosfl'), got 'fedavg'"),
        (_with(GOOD, "sample_budget", -1), "sample_budget must be non-negative"),
    ])
    def test_removed_unread_or_missing_key_is_usage_error(self, text, message, tmp_path,
                                                          capsys):
        cfg_path = tmp_path / "old.yaml"
        cfg_path.write_text(text)
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_non_utf8_config_is_usage_error(self, sub, tmp_path, capsys):
        path = tmp_path / "latin.yaml"
        path.write_bytes(b"\xff" + GOOD.encode())
        out = tmp_path / "o"
        assert cli.main([sub, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ") and f" {path}: " in err
        assert "can't decode byte 0xff" in err
        assert not out.exists()

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    # None: no --out and no output_dir, so the files would go to out/, as in write_files
    @pytest.mark.parametrize("out", [None, "out", "out/sub"])
    def test_output_location_that_is_a_file_fails_before_any_work(
            self, sub, out, config_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        blocker = tmp_path / runner.DEFAULT_OUT_DIR
        blocker.write_text("kept\n")
        monkeypatch.setattr(runner, "build_simulation", _no_work)
        monkeypatch.setattr(latency, "round_timeline", _no_work)
        monkeypatch.setattr(cli, "closed_form_traffic", _no_work)
        args = [sub, *_config_args(sub, config_file)] + ([] if out is None else ["--out", out])
        assert cli.main(args) == 1
        assert capsys.readouterr().err == (
            f"error: output location {out or 'out'} is not a directory: out is a file\n")
        assert blocker.read_text() == "kept\n"

    DIVERGING = _with(_with(_with(REGRESSION.replace("protocol: hosfl", "protocol: sfl"),
                                  "model.layer_dims", [4, 4, 1]),
                            "model.activation", "identity"), "hp.eta", 50.0)

    def test_diverging_run_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "diverge.yaml"
        path.write_text(self.DIVERGING)
        out = tmp_path / "o"
        # the command line itself keeps numpy's overflow warnings off stderr
        rc = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "runtime error: non-finite loss at the output layer\n")
        assert not out.exists()

    def test_diverging_run_warns_library_callers(self):
        cfg = parse_config(self.DIVERGING)
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericalError):
            runner.run_experiment(cfg)

    _build = staticmethod(runner.build_simulation)  # kept from before any monkeypatch

    @classmethod
    def _one_client_overflows(cls, cfg):
        """The simulation of cfg with the round-0 server half scaled by 1e10
        and the inputs of the first client sampled in round 0 by 1e300: that
        client's identity layers carry about 1e300 to the cut, where the
        server layer overflows, while the other client's server layer stays
        finite."""
        sim = cls._build(cfg)
        first = int(protocol.sample_clients(cfg.hp.M, cfg.hp.K, [prng.derive_stream(
            cfg.root_seed, prng.STREAM_SAMPLING, 0)])[0, 0])
        sim.dataset.inputs[sim.clients[first].shard] *= 1e300
        sim.server.theta_s *= 1e10
        return sim

    OVERFLOWING = _with(GOOD, "model.activation", "identity")

    @pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
    def test_one_client_overflowing_in_the_stack_is_numerical_error(self, proto):
        cfg = parse_config(self.OVERFLOWING.replace("protocol: hosfl", f"protocol: {proto}"))
        sim = self._one_client_overflows(cfg)
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(NumericalError, match="non-finite values after server layer 1"):
            protocol.run_round(sim)

    @pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
    def test_one_client_overflowing_is_runtime_error(self, proto, tmp_path, capsys,
                                                     monkeypatch):
        path = tmp_path / "overflow.yaml"
        path.write_text(self.OVERFLOWING.replace("protocol: hosfl", f"protocol: {proto}"))
        monkeypatch.setattr(runner, "build_simulation", self._one_client_overflows)
        out = tmp_path / "o"
        # a numpy warning here would raise under the suite's filterwarnings
        # and print its own message instead
        rc = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "runtime error: non-finite values after server layer 1\n")
        assert not out.exists()

    def test_report_traffic_takes_no_seed(self, config_file, tmp_path, capsys):
        out = tmp_path / "rt"
        rc = cli.main(["report-traffic", "--config", str(config_file), "--seed", "1",
                       "--out", str(out)])
        assert rc == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["run", "report-traffic"])
    def test_empty_output_dir_means_out(self, sub, tmp_path, monkeypatch):
        path = tmp_path / "empty_out.yaml"
        path.write_text(GOOD + 'output_dir: ""\n')
        monkeypatch.chdir(tmp_path)
        assert cli.main([sub, "--config", str(path)]) == 0
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                   if p.is_file() and p != path}
        assert written == ({"out/metrics.jsonl", "out/traffic.csv", "out/checksum.txt"}
                           if sub == "run" else {"out/traffic_closed_form.csv"})

    def test_bad_noise_profile_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "noise.yaml"
        path.write_text("sweep: {noise_trials: 5, noise_frac: 1.5}\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep-latency", "--config", str(path), "--out", str(out)]) == 1
        assert "noise_frac" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("profile, message", [
        ("workload: {client_layers: 4}\n", "unknown key 'client_layers' in section 'workload'"),
        ("device: {server_flops_per_s: 1.0e-300}\n", "device: the idle window overflows at client_layers=2"),
        ("network: {uplink_bps: 1.0e-320}\n", "network: the idle window overflows at client_layers=2"),
    ])
    def test_unread_or_overflowing_profile_is_usage_error(self, profile, message, tmp_path,
                                                          capsys):
        path = tmp_path / "profile.yaml"
        path.write_text(profile)
        out = tmp_path / "sw"
        assert cli.main(["sweep-latency", "--config", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("profile, section", [
        ("device: {server_flops_per_s: 4.0e-295}\n"
         "sweep: {noise_trials: 20, noise_frac: 0.5}\n", "device"),
        ("device: {client_flops_per_s: 1.7e+308, flops_utilization: 1.0}\n"
         "sweep: {noise_trials: 20, noise_frac: 0.5}\n", "device"),
        ("workload: {batch: 1.0e+308}\n", "workload"),
        ("workload: {hidden: 1.0e+200}\n", "workload"),
        ("workload: {seq_len: 1.0e+200}\n", "workload"),
        ("workload: {batch: 1.0e+300}\n", "workload"),
    ])
    def test_overflowing_profile_names_its_section(self, profile, section, tmp_path, capsys):
        # jittered rows included: every row is checked before anything is written
        path = tmp_path / "profile.yaml"
        path.write_text(profile)
        out = tmp_path / "sw"
        assert cli.main(["sweep-latency", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {section}: ")
        assert not out.exists()

    def test_noise_seed_outside_64_bits_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "seed.yaml"
        path.write_text("sweep: {noise_trials: 5, noise_seed: -1}\n")
        out = tmp_path / "sw"
        assert cli.main(["sweep-latency", "--config", str(path), "--out", str(out)]) == 1
        assert "noise_seed must fit in 64 bits" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.main(["fly"]) == 1

    @pytest.mark.parametrize("sub", ["run", "sweep-latency", "diagnose-estimator",
                                     "report-traffic"])
    def test_help_available_on_every_subcommand(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([sub, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_sweep_latency_deterministic_file(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep-latency", "--out", str(out_a)]) == 0
        assert cli.main(["sweep-latency", "--out", str(out_b)]) == 0
        fa = (out_a / "latency_sweep.csv").read_bytes()
        assert fa == (out_b / "latency_sweep.csv").read_bytes()

    def test_sweep_latency_reference_row(self, tmp_path):
        out = tmp_path / "sw"
        cli.main(["sweep-latency", "--out", str(out)])
        rows = (out / "latency_sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        pmax_col = header.index("p_max")
        by_layers = {int(r.split(",")[0]): int(r.split(",")[pmax_col]) for r in rows[1:]}
        # one row per depth from the default layer_min to layer_max
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(2, 9))
        assert by_layers[4] in (3, 4, 5)
        pm = [by_layers[lc] for lc in sorted(by_layers)]
        assert all(a >= b for a, b in zip(pm, pm[1:]))

    def test_report_traffic_all_protocols(self, config_file, tmp_path, capsys):
        out = tmp_path / "rt"
        rc = cli.main(["report-traffic", "--config", str(config_file),
                       "--all-protocols", "--out", str(out)])
        assert rc == 0
        text = (out / "traffic_closed_form.csv").read_text()
        assert "hosfl,ScalarUp,up,48" in text  # K=2 * P=3 * 8 bytes
        assert "zosfl,GradDown,down,0" in text

    def test_diagnose_estimator_report(self, config_file, tmp_path):
        out = tmp_path / "di"
        rc = cli.main(["diagnose-estimator", "--config", str(config_file),
                       "--trials", "2000", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "estimator_report.json").read_text())
        assert report["empirical_second_moment"] <= report["second_moment_bound"]
        assert report["c1"] == 2 * (1 + (report["d_c"] + 1) / report["P"])

    @pytest.mark.parametrize("trials", ["0", "-5", "many"])
    def test_diagnose_estimator_bad_trials_is_usage_error(self, trials, config_file,
                                                          tmp_path, capsys):
        out = tmp_path / "di"
        rc = cli.main(["diagnose-estimator", "--config", str(config_file),
                       "--trials", trials, "--out", str(out)])
        assert rc == 1
        assert "--trials" in capsys.readouterr().err
        assert not out.exists()


class TestMetricsEmission:
    def test_round_records_monotone(self, config_file):
        cfg = parse_config(GOOD)
        result = runner.run_experiment(cfg)
        rounds = [r.round for r in result.records]
        assert rounds == sorted(rounds) and len(set(rounds)) == len(rounds)
        samples = [r.samples_processed for r in result.records]
        assert samples == sorted(samples)

    def test_traffic_snapshot_embedded(self):
        cfg = parse_config(GOOD)
        result = runner.run_experiment(cfg)
        snap = result.records[-1].traffic
        assert [r.traffic for r in result.records] == result.sim.ledger.per_round
        assert set(snap) == {k.value for k in MessageKind}
        assert snap["ScalarUp"] == 10 * 2 * 3 * 8  # rounds * K * P * bytes

    def test_writing_outputs_holds_a_line_not_the_text(self, tmp_path):
        # 2,000 rounds make 0.7 MB of metrics.jsonl; the write holds one
        # line at a time and the file's buffers, with file_text's bytes
        raw = yaml.safe_load(SHIPPED.read_text())
        raw["sample_budget"] = 2000 * raw["hp"]["K"] * raw["hp"]["batch_size"]
        result = runner.run_experiment(parse_config(yaml.safe_dump(raw)))
        assert len(result.records) == 2000
        tracemalloc.start()
        try:
            paths = runner.write_outputs(result, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024
        for label, lines in (("metrics", runner.metrics_lines), ("traffic", runner.traffic_lines),
                             ("checksum", runner.checksum_lines)):
            assert paths[label].read_bytes() == runner.file_text(lines(result)).encode()

    def test_checksum_stable(self):
        cfg = parse_config(GOOD)
        a = runner.checksum_lines(runner.run_experiment(cfg))
        b = runner.checksum_lines(runner.run_experiment(cfg))
        assert a == b


DATA_KEYS = [f"{section}.{f.name}" for section, cls in (("data", DataConfig),
                                                        ("partition", PartitionSpec))
             for f in fields(cls)]
# a value other than either base config's for every key in DATA_KEYS but the
# mode, which flips to the other mode
CHANGED = {"data.n": 1000, "data.separation": 9.0, "data.eval_fraction": 0.5,
           "partition.alpha": 7.0}


def _data_base(base: str) -> str:
    """The shipped config (blobs, dirichlet) or its iid squared_error variant."""
    raw = yaml.safe_load(SHIPPED.read_text())
    if base == "iid-regression":
        raw["model"]["loss"] = "squared_error"
        raw["partition"] = {"mode": "iid"}
        del raw["data"]["separation"]
    return yaml.safe_dump(raw)


@functools.cache
def _checksum(text: str) -> list:
    return runner.checksum_lines(runner.run_experiment(parse_config(text)))


@pytest.mark.parametrize("base", ["shipped", "iid-regression"])
@pytest.mark.parametrize("path", DATA_KEYS)
def test_every_data_key_is_honoured_or_rejected(base, path):
    """A changed data or partition value changes checksum.txt or is a ConfigError."""
    text = _data_base(base)
    section, key = path.split(".")
    current = yaml.safe_load(text)[section].get(key)
    value = (next(mode for mode in PARTITION_MODES if mode != current)
             if path == "partition.mode" else CHANGED[path])
    assert value != current
    try:
        changed = _checksum(_with(text, path, value))
    except ConfigError:
        return
    assert changed != _checksum(text)


LATENCY_KEYS = [f"{section}.{key}"
                for section, body in config_to_dict(LatencyProfileConfig()).items()
                for key in body]


def _sweep_file(text: str, tmp_path: Path, name: str) -> bytes | None:
    """latency_sweep.csv for a profile text, or None when the CLI exits 1."""
    path = tmp_path / f"{name}.yaml"
    path.write_text(text)
    out = tmp_path / name
    rc = cli.main(["sweep-latency", "--config", str(path), "--out", str(out)])
    assert rc in (0, 1)
    return (out / "latency_sweep.csv").read_bytes() if rc == 0 else None


@pytest.mark.parametrize("path", LATENCY_KEYS)
def test_every_latency_key_is_honoured_or_rejected(path, tmp_path):
    """Half of a latency_edge.yaml value changes latency_sweep.csv or exits 1."""
    text = LATENCY_EDGE.read_text()
    section, key = path.split(".")
    value = getattr(getattr(parse_latency_profile(text), section), key)
    half = value // 2 if isinstance(value, int) else value / 2
    changed = _sweep_file(_with(text, path, half), tmp_path, "changed")
    assert changed is None or changed != _sweep_file(text, tmp_path, "edge")


_POSITIVE = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
_DIMENSION = st.one_of(st.integers(1, 4096), st.integers(1, 10 ** 400))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sweep_latency_never_exits_2(data):
    """Any finite, positive profile runs (exit 0) or is rejected before output (exit 1)."""
    total = data.draw(st.integers(2, 64))
    layer_min = data.draw(st.integers(1, total - 1))
    profile = {
        "network": {"uplink_bps": data.draw(_POSITIVE), "downlink_bps": data.draw(_POSITIVE),
                    "rtt_seconds": data.draw(st.floats(0.0, 1.7976931348623157e308))},
        "device": {"client_flops_per_s": data.draw(_POSITIVE),
                   "server_flops_per_s": data.draw(_POSITIVE),
                   "flops_utilization": data.draw(st.floats(5e-324, 1.0))},
        "workload": {"batch": data.draw(_DIMENSION), "seq_len": data.draw(_DIMENSION),
                     "hidden": data.draw(_DIMENSION), "total_layers": total,
                     "bytes_per_activation": data.draw(_DIMENSION)},
        "sweep": {"layer_min": layer_min, "layer_max": data.draw(st.integers(layer_min, total - 1)),
                  "noise_trials": data.draw(st.integers(0, 20)),
                  "noise_frac": data.draw(st.floats(0.0, 1.0)),
                  "noise_seed": data.draw(st.integers(0, 2 ** 64 - 1))},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "profile.yaml", Path(tmp) / "sw"
        path.write_text(yaml.safe_dump(profile))
        rc = cli.main(["sweep-latency", "--config", str(path), "--out", str(out)])
        assert rc in (0, 1)
        assert (rc == 0) == out.exists()
