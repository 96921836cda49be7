"""Property tests: every valid config survives a dump and a parse unchanged.

config_to_dict is the parse walk run in reverse, so for any config the
dataclasses accept, parsing the YAML dump of its mapping gives it back.
"""

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsim.config import (
    DataConfig,
    ExperimentConfig,
    LatencyProfileConfig,
    SweepConfig,
    config_to_dict,
    parse_config,
    parse_latency_profile,
)
from splitsim.data import PartitionSpec
from splitsim.latency import DeviceProfile, NetworkProfile, WorkloadProfile
from splitsim.model import ACTIVATIONS, LOSSES, SplitModelConfig
from splitsim.protocol import OPTIMIZERS, HyperParams
from splitsim.traffic import PROTOCOLS
from splitsim.zo import ZoConfig

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-12, max_value=1e12)
counts = st.integers(min_value=1, max_value=1 << 20)


@st.composite
def experiment_configs(draw) -> ExperimentConfig:
    protocol = draw(st.sampled_from(PROTOCOLS))
    loss = draw(st.sampled_from(LOSSES))
    blobs = loss == "softmax_cross_entropy"
    # at least one hidden layer, so the network has a cut
    widths = draw(st.lists(st.integers(1, 64), min_size=3, max_size=5))
    if blobs:
        widths[-1] = max(widths[-1], 2)
    model = SplitModelConfig(
        layer_dims=tuple(widths),
        activation=draw(st.sampled_from(ACTIVATIONS)),
        cut_index=draw(st.integers(1, len(widths) - 2)),
        loss=loss,
        bias=draw(st.booleans()),
    )
    M = draw(counts)
    hp = HyperParams(
        eta=draw(positive), M=M, K=draw(st.integers(1, M)), batch_size=draw(counts),
        zo=ZoConfig(P=draw(counts), mu=draw(st.floats(min_value=1e-12, max_value=0.999))),
        optimizer=draw(st.sampled_from(OPTIMIZERS)) if protocol == "hosfl" else "sgd",
    )
    mode = draw(st.sampled_from(("iid", "dirichlet"))) if blobs else "iid"
    # separation and alpha are drawn only where they are read
    partition = PartitionSpec(mode=mode,
                              alpha=draw(positive) if mode == "dirichlet" else None)
    data = DataConfig(
        # blobs need at least one sample per class
        n=draw(st.integers(model.n_out if blobs else 2, 1 << 20)),
        separation=draw(finite) if blobs else None,
        eval_fraction=draw(st.floats(min_value=0.0, max_value=0.99)),
    )
    return ExperimentConfig(
        protocol=protocol, model=model, hp=hp, partition=partition, data=data,
        sample_budget=draw(st.integers(0, 1 << 40)),
        root_seed=draw(st.integers(0, (1 << 64) - 1)),
        output_dir=draw(st.none() | st.text(max_size=20)),
    )


@st.composite
def latency_profiles(draw) -> LatencyProfileConfig:
    total = draw(st.integers(2, 200))
    layer_max = draw(st.integers(1, total - 1))
    return LatencyProfileConfig(
        network=NetworkProfile(uplink_bps=draw(positive), downlink_bps=draw(positive),
                               rtt_seconds=draw(st.floats(min_value=0.0, max_value=10.0))),
        device=DeviceProfile(client_flops_per_s=draw(positive),
                             server_flops_per_s=draw(positive),
                             flops_utilization=draw(st.floats(min_value=1e-6, max_value=1.0))),
        workload=WorkloadProfile(batch=draw(counts), seq_len=draw(counts),
                                 hidden=draw(counts), total_layers=total,
                                 bytes_per_activation=draw(st.integers(1, 8))),
        sweep=SweepConfig(layer_min=draw(st.integers(1, layer_max)), layer_max=layer_max,
                          noise_trials=draw(st.integers(0, 1000)),
                          noise_frac=draw(st.floats(min_value=0.0, max_value=1.0)),
                          noise_seed=draw(st.integers(0, (1 << 64) - 1))),
    )


@settings(deadline=None)
@given(experiment_configs())
def test_experiment_config_round_trip(cfg):
    assert parse_config(yaml.safe_dump(config_to_dict(cfg))) == cfg


@settings(deadline=None)
@given(latency_profiles())
def test_latency_profile_round_trip(prof):
    assert parse_latency_profile(yaml.safe_dump(config_to_dict(prof))) == prof
