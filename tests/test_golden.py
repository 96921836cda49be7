"""Bit stability of the shipped configuration across code changes.

Every emitted byte is a pure function of (config, root seed), so the final
parameter checksum and the output files of the shipped configs are pinned
per protocol. A change that moves one of these values changes the
simulator's numbers and must say so.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from splitsim import cli, model, runner
from splitsim.config import parse_config
from splitsim.errors import ConfigError

from test_kernels import ROUNDS, _shape_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = CONFIGS / "blobs_hosfl.yaml"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _shipped(proto: str) -> str:
    return SHIPPED.read_text().replace("protocol: hosfl", f"protocol: {proto}")


GOLDEN = {
    "hosfl": "741a3c1ad609e153af4715ffd993e8e2636d87217166a42557dd496391aeecbe",
    "sfl": "0dd8a38777e64beac8d36e258f5f827ad68dd7f230a18f3b12106fec283812be",
    "zosfl": "38af915bb9074238740aeb61c4a0ba49adb259d9107396978179ac463542827e",
}


# sha256 of the other files `run` writes for the shipped config
OUTPUT_FILES = {
    "hosfl": {
        "metrics.jsonl": "0c9e8877b577277ac21d7638b2706e6532bf7ce1a8b09563d8879a97e1a4a70a",
        "traffic.csv": "415b44b8207d536a8b2a14d23596f105f1c064fabcd5c6949eee78a3e736ed8b",
    },
    "sfl": {
        "metrics.jsonl": "36094bcefdde1abdd44579862a4051411edd4215bb0ce14f55c9dd72f1d83bc6",
        "traffic.csv": "81ce09fdc8fe0f185840c03ebac9affe78dcda983908c631e8e4cce6d2108523",
    },
    "zosfl": {
        "metrics.jsonl": "e950a486bf79c9a2fa89b477558ba0f8a4102afd6336e9f17e35ec037202b613",
        "traffic.csv": "f1ef7862bb5e3e4302e44c123c9f7fbfa702fdef408ec4b5fdc9e19bec931250",
    },
}


# sha256 of metrics.jsonl without its header line: the round records alone,
# which do not move when the config gains or loses a field
METRICS_ROWS = {
    "hosfl": "3bad3898c1513aa623f60c3ed7dacd92e042be5d97cc9d1f0f62206fa9167cbf",
    "sfl": "c22c1a641e4b69467cc4ceb15ddf2b8def1637b01c44880650cd8677f55ef63e",
    "zosfl": "e7f7dbd9f8cab16bdd687990bf945005779f6fd3ffc82d3c3491fc8383808f2e",
}


@pytest.mark.parametrize("proto", sorted(GOLDEN))
def test_shipped_config_combined_checksum(proto, tmp_path):
    cfg = parse_config(_shipped(proto))
    assert cfg.protocol == proto
    result = runner.run_experiment(cfg)
    assert len(result.records) == 100
    assert runner.checksum_lines(result)[2] == f"combined_sha256={GOLDEN[proto]}"
    runner.write_outputs(result, tmp_path)
    for name, digest in OUTPUT_FILES[proto].items():
        assert _sha256(tmp_path / name) == digest, name
    rows = (tmp_path / "metrics.jsonl").read_bytes().split(b"\n", 1)[1]
    assert hashlib.sha256(rows).hexdigest() == METRICS_ROWS[proto]


def test_metrics_rows_carry_exactly_the_header_fields(tmp_path):
    runner.write_outputs(runner.run_experiment(parse_config(SHIPPED.read_text())), tmp_path)
    header, *rows = [json.loads(line)
                     for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert header["record"] == "header"
    assert len(rows) == 100
    for row in rows:
        assert list(row) == ["record"] + header["fields"]
        assert row["record"] == "round"


def test_no_eval_split_evaluates_on_the_training_set():
    cfg = parse_config(SHIPPED.read_text().replace("eval_fraction: 0.25", "eval_fraction: 0.0"))
    result = runner.run_experiment(cfg)
    sim = result.sim
    assert sim.dataset.size == cfg.data.n
    theta = np.concatenate([sim.server.theta_c_global, sim.server.theta_s])
    loss, acc = model.evaluate_model(theta, sim.dataset, cfg.model)
    assert (result.records[-1].eval_loss, result.records[-1].eval_accuracy) == (loss, acc)


def test_latency_edge_sweep_file(tmp_path):
    assert cli.main(["sweep-latency", "--config", str(CONFIGS / "latency_edge.yaml"),
                     "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "latency_sweep.csv") == (
        "8fbc82131eb5fb216e7ea8de276d9bb26b4c2f2d57730ff232f25732bfa279a6")


def test_measured_regularity_constant(tmp_path):
    # gamma does not depend on the Monte Carlo trial count
    assert cli.main(["diagnose-estimator", "--config", str(SHIPPED), "--trials", "10",
                     "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "estimator_report.json").read_text())
    assert report["gamma_measured"] == 13.500144221911645


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


def _stragglers(cfg: dict):
    cfg["hp"].update(M=32, optimizer="adam", eta=0.01)
    cfg["partition"] = {"mode": "iid"}
    cfg["data"].update(n=4000, eval_fraction=0.075)


# the benchmark workloads at the shipped root seed, built from the shipped
# config as perfbench/run.py builds them: name -> (protocol, rounds, edit,
# combined_sha256). Each run crosses two to four draw windows
WORKLOADS = {
    "blobs-hosfl": ("hosfl", 2000, None,
                    "9c6897a1851616439f15e5bbbf4a2f3b5c42736e2594117aab4cfe99ebbde708"),
    "blobs-sfl": ("sfl", 2000, None,
                  "6d001db09db7739fe41a8fb25c266eea9f3e6f323bd38431351f9b9bc32213ca"),
    "blobs-zosfl": ("zosfl", 2000, None,
                    "3a09fb703717ea96e955eaa9b57a40da2389511e5fb6708c69d8b7e95537f5b0"),
    "stragglers-hosfl": ("hosfl", 1000, _stragglers,
                         "53fcfc04c7886ae0c4408b4f24042eb78b7167e05b83c642258a48c24b6af142"),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_combined_checksum(name):
    proto, rounds, edit, digest = WORKLOADS[name]
    cfg = yaml.safe_load(SHIPPED.read_text())
    cfg["protocol"] = proto
    if edit is not None:
        edit(cfg)
    cfg["root_seed"] = 20260808
    cfg["sample_budget"] = rounds * cfg["hp"]["K"] * cfg["hp"]["batch_size"]
    result = runner.run_experiment(parse_config(yaml.safe_dump(cfg, sort_keys=False)))
    assert len(result.records) == rounds
    assert runner.checksum_lines(result)[2] == f"combined_sha256={digest}"
    # a window holds 512 rounds on every workload, and the last one stops at
    # the run's last round
    assert len(result.sim.window[1]) == (rounds - 1) % 512 + 1


# test_kernels.py's SHAPES at ROUNDS rounds, per protocol: float (K, B, C)
# labels, K=3, B=1, 12 classes and a cut at 2, which no pin above holds
SHAPE_PINS = {
    "batch-of-one": {
        "hosfl": "127a526ba875508d6f554eb28e27eb60391ce1eed36a045cf75882a5d88ff959",
        "sfl": "a629bb61571eb929b0e64df085c671f6905848bc28dc1c3c80b65ced4eff9232",
        "zosfl": "2f2169ed0449bbb2a6a5fa080fdf642bc839846b8aec963936310384a9abb0e6",
    },
    "relu-cut-2": {
        "hosfl": "eb94b51bc1f0d6fe092decc9c9801635d67d65e7234c0bdfa4cf07c5ede4eb80",
        "sfl": "bc0fa4c6a9cd8f68b34e8b9477d433a6aecf9344fb84f071592906e784da4e5f",
        "zosfl": "db93c3dc9ce0069d57df00e784712d0528f67ed3f4b2c037ac08fc2063da8c88",
    },
    "squared-error": {
        "hosfl": "c6a4825a6d1b9fc3bd6da75973931c4bef50e3a8dab72ae821f29f5e27ae60f0",
        "sfl": "8298b3de3a1bce11103ae5fecf9ecc39c5e7687a85089831a1f670f9e1712fd2",
        "zosfl": "01c6416e51b4c6ce968405f7d9a147d61a9ac411ac2a1bd7b85f37dfaf3e6719",
    },
    "three-clients": {
        "hosfl": "8acc6fdd2ce16d2532be0b0c2b083222412a33d1d2f5480d1548b14469e73e6d",
        "sfl": "cfcd787c0bd57cad53b19b1e871a0b4e1124dc164b0f21634b7271edd472d101",
        "zosfl": "79aa1bcd872f7671e0a8e00767ec754c31024b9c52e07b426fea161fd275df93",
    },
    "twelve-classes": {
        "hosfl": "f2fa6d368bb534ceb475f2ea6d44449847e93d019fdccd713cd3a6601198538e",
        "sfl": "22fe24532252fdb7ed2f35aab0a6bbf397e8b1e9f98496ec7f71fbb2c47e1ef2",
        "zosfl": "07ec49da0206eaee6730d660218aac0349690d480a14f2dd5316329f006bb1a9",
    },
}


@pytest.mark.parametrize("proto", ["hosfl", "sfl", "zosfl"])
@pytest.mark.parametrize("shape", sorted(SHAPE_PINS))
def test_kernel_shape_combined_checksum(shape, proto):
    result = runner.run_experiment(_shape_config(shape, proto))
    assert len(result.records) == ROUNDS
    assert runner.checksum_lines(result)[2] == f"combined_sha256={SHAPE_PINS[shape][proto]}"


# config_sha256 in every metrics.jsonl header
CONFIG_DIGEST = {
    "shipped": "fb862f55093f82a332e8f62437ed873c9fc72d96dbb4562e2b34cac82757a5bc",
}


def test_shipped_config_digest():
    text = SHIPPED.read_text()
    assert runner._config_digest(parse_config(text)) == CONFIG_DIGEST["shipped"]


def test_sample_budget_is_required():
    text = SHIPPED.read_text()
    assert "sample_budget: 3200\n" in text
    with pytest.raises(ConfigError, match="missing required field 'sample_budget'"):
        parse_config(text.replace("sample_budget: 3200\n", ""))


# sha256 of what each subcommand emits for the shipped configs: the stdout
# (output directory replaced by <out>) and the file it writes, if pinned here
SUBCOMMANDS = {
    "run": ["run", "--config", str(SHIPPED)],
    "sweep-latency": ["sweep-latency", "--config", str(CONFIGS / "latency_edge.yaml")],
    "diagnose-estimator": ["diagnose-estimator", "--config", str(SHIPPED), "--trials", "10"],
    "report-traffic": ["report-traffic", "--config", str(SHIPPED), "--all-protocols"],
}
STDOUT = {
    "run": "530906a7192c18f26da22e358891a70c458ab8191db8c70bc8f83cd4f197b6bd",
    "sweep-latency": "0ae1aa171e909c89afc9dcd0e8cb6e0771bd1abb8b08afb82d6bc03d6c901b60",
    "diagnose-estimator": "afb7a8b89918df9d9947cc2654c73b287196e8386880bd7df0c6292dd928eba7",
    "report-traffic": "b466ec85dd5121af02819ca2dfb2cefcf170f4ca1a278a680f24c2baaeb062c6",
}
EMITTED = {
    "diagnose-estimator": ("estimator_report.json",
                           "9023bfb2b60c2f3fed791106113c204b2dd1d51ef6cde0799a62fba455037045"),
    "report-traffic": ("traffic_closed_form.csv",
                       "4914cd16df26d54c9eb6501852d37f0f92b03a8677ae4a826610d8f937cad6a4"),
}


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_subcommand_stdout_and_file(sub, tmp_path, capsys):
    assert cli.main(SUBCOMMANDS[sub] + ["--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<out>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT[sub]
    if sub in EMITTED:
        name, digest = EMITTED[sub]
        assert _sha256(tmp_path / name) == digest
