"""Experiment configuration: YAML schema, strict validation, round-tripping.

YAML is the one configuration format. Unknown keys are rejected everywhere
so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .data import PartitionSpec, TASKS
from .errors import ConfigError
from .latency import DeviceProfile, NetworkProfile, WorkloadProfile
from .model import SplitModelConfig
from .protocol import HyperParams
from .traffic import PROTOCOLS
from .zo import ZoConfig

MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True)
class DataConfig:
    task: str = "classification_blobs"
    n: int = 1024
    dim: int = 8
    classes: int = 2
    separation: float = 3.0
    noise: float = 0.0
    out_dim: int = 1
    eval_fraction: float = 0.2

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"data.task must be one of {TASKS}")
        if self.n < 2 or self.dim < 1:
            raise ConfigError("data.n and data.dim must be positive")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ConfigError("data.eval_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    model: SplitModelConfig
    hp: HyperParams
    partition: PartitionSpec
    data: DataConfig
    sample_budget: int | None = None
    root_seed: int = 0
    output_dir: str | None = None


def _take(section: dict, name: str, allowed: set) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in section {name!r}")
    return section


def _require(section: dict, key: str, where: str):
    if key not in section or section[key] is None:
        raise ConfigError(f"missing required field {key!r} in {where}")
    return section[key]


def _int(value, where: str) -> int:
    """value as an int. A bool or a non-integral number is a ConfigError,
    never truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be an integer, got {value!r}") from exc


def _float(value, where: str) -> float:
    """value as a float. A bool is a ConfigError, never 0.0 or 1.0."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc


def _load_yaml(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"parse error{where}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate one experiment configuration document."""
    raw = _load_yaml(text)
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a mapping")
    _take(raw, "top level", {"protocol", "model", "hp", "partition", "data",
                             "sample_budget", "root_seed", "output_dir"})

    protocol = _require(raw, "protocol", "top level")
    if protocol not in PROTOCOLS:
        raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")

    msec = _take(_require(raw, "model", "top level"), "model",
                 {"layer_dims", "activation", "cut_index", "loss", "bias"})
    bias = msec.get("bias", True)
    if not isinstance(bias, bool):
        raise ConfigError(f"model.bias must be true or false, got {bias!r}")
    layer_dims = _require(msec, "layer_dims", "model")
    if not isinstance(layer_dims, list):
        raise ConfigError(f"model.layer_dims must be a list of integers, got {layer_dims!r}")
    layer_dims = tuple(_int(d, "model.layer_dims") for d in layer_dims)
    cut_index = _int(msec.get("cut_index", 1), "model.cut_index")
    try:
        model_cfg = SplitModelConfig(
            layer_dims=layer_dims,
            activation=msec.get("activation", "tanh"),
            cut_index=cut_index,
            loss=msec.get("loss", "squared_error"),
            bias=bias,
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    hsec = _take(_require(raw, "hp", "top level"), "hp",
                 {"eta", "T", "M", "K", "batch_size", "optimizer", "zo"})
    zsec = _take(hsec.get("zo") or {}, "hp.zo", {"P", "mu"})
    P, mu = _int(zsec.get("P", 5), "hp.zo.P"), _float(zsec.get("mu", 1e-3), "hp.zo.mu")
    ints = {key: _int(_require(hsec, key, "hp"), f"hp.{key}")
            for key in ("M", "K", "batch_size")}
    eta = _float(_require(hsec, "eta", "hp"), "hp.eta")
    T = _int(hsec.get("T", 0), "hp.T")
    try:
        hp = HyperParams(eta=eta, T=T, zo=ZoConfig(P=P, mu=mu),
                         optimizer=hsec.get("optimizer", "sgd"), **ints)
    except ValueError as exc:
        raise ConfigError(f"hp: {exc}") from exc

    psec = _take(raw.get("partition") or {}, "partition", {"mode", "alpha"})
    alpha = _float(psec.get("alpha", 1.0), "partition.alpha")
    try:
        partition = PartitionSpec(mode=psec.get("mode", "iid"), alpha=alpha, M=hp.M)
    except ValueError as exc:
        raise ConfigError(f"partition: {exc}") from exc

    dsec = _take(raw.get("data") or {}, "data",
                 {"task", "n", "dim", "classes", "separation", "noise",
                  "out_dim", "eval_fraction"})
    numbers = {key: _int(dsec.get(key, default), f"data.{key}") for key, default in
               (("n", 1024), ("dim", model_cfg.n_in), ("classes", 2),
                ("out_dim", model_cfg.n_out))}
    numbers.update({key: _float(dsec.get(key, default), f"data.{key}") for key, default in
                    (("separation", 3.0), ("noise", 0.0), ("eval_fraction", 0.2))})
    try:
        data_cfg = DataConfig(task=dsec.get("task", "classification_blobs"), **numbers)
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"data: {exc}") from exc

    budget = raw.get("sample_budget")
    if budget is not None:
        budget = _int(budget, "sample_budget")
        if budget < 0:
            raise ConfigError("sample_budget must be non-negative")
    root_seed = _int(raw.get("root_seed", 0), "root_seed")
    if not 0 <= root_seed <= MAX_SEED:
        raise ConfigError("root_seed must fit in 64 bits")

    cfg = ExperimentConfig(
        protocol=protocol, model=model_cfg, hp=hp, partition=partition,
        data=data_cfg, sample_budget=budget, root_seed=root_seed,
        output_dir=raw.get("output_dir"),
    )
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ExperimentConfig):
    if cfg.hp.optimizer != "sgd" and cfg.protocol != "hosfl":
        raise ConfigError(
            f"hp.optimizer {cfg.hp.optimizer!r} is supported by hosfl only; "
            f"{cfg.protocol} steps with sgd"
        )
    if cfg.partition.mode == "dirichlet" and cfg.data.task != "classification_blobs":
        raise ConfigError(
            f"partition.mode dirichlet needs class labels: Dirichlet label skew "
            f"splits each class across clients, and {cfg.data.task} targets "
            f"have no classes; use partition.mode iid"
        )
    if cfg.data.dim != cfg.model.n_in:
        raise ConfigError(
            f"data.dim ({cfg.data.dim}) must equal the model input width "
            f"({cfg.model.n_in})"
        )
    if cfg.data.task == "classification_blobs":
        if cfg.model.loss != "softmax_cross_entropy":
            raise ConfigError("classification_blobs requires loss softmax_cross_entropy")
        if cfg.data.classes != cfg.model.n_out:
            raise ConfigError(
                f"data.classes ({cfg.data.classes}) must equal the model output "
                f"width ({cfg.model.n_out})"
            )
    else:
        if cfg.model.loss != "squared_error":
            raise ConfigError("regression_quadratic requires loss squared_error")
        if cfg.data.out_dim != cfg.model.n_out:
            raise ConfigError("data.out_dim must equal the model output width")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {
        "protocol": cfg.protocol,
        "model": {
            "layer_dims": list(cfg.model.layer_dims),
            "activation": cfg.model.activation,
            "cut_index": cfg.model.cut_index,
            "loss": cfg.model.loss,
            "bias": cfg.model.bias,
        },
        "hp": {
            "eta": cfg.hp.eta,
            "T": cfg.hp.T,
            "M": cfg.hp.M,
            "K": cfg.hp.K,
            "batch_size": cfg.hp.batch_size,
            "optimizer": cfg.hp.optimizer,
            "zo": {"P": cfg.hp.zo.P, "mu": cfg.hp.zo.mu},
        },
        "partition": {"mode": cfg.partition.mode, "alpha": cfg.partition.alpha},
        "data": {
            "task": cfg.data.task,
            "n": cfg.data.n,
            "dim": cfg.data.dim,
            "classes": cfg.data.classes,
            "separation": cfg.data.separation,
            "noise": cfg.data.noise,
            "out_dim": cfg.data.out_dim,
            "eval_fraction": cfg.data.eval_fraction,
        },
        "root_seed": cfg.root_seed,
    }
    if cfg.sample_budget is not None:
        out["sample_budget"] = cfg.sample_budget
    if cfg.output_dir is not None:
        out["output_dir"] = cfg.output_dir
    return out


def serialize_config(cfg: ExperimentConfig) -> str:
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False)


# -----------------------------------------------------------------------------
# Latency profile documents
# -----------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyProfileConfig:
    network: NetworkProfile = field(default_factory=NetworkProfile)
    device: DeviceProfile = field(default_factory=DeviceProfile)
    workload: WorkloadProfile = field(default_factory=WorkloadProfile)
    layer_min: int = 2
    layer_max: int = 8
    noise_trials: int = 0
    noise_frac: float = 0.1
    noise_seed: int = 0


def parse_latency_profile(text: str) -> LatencyProfileConfig:
    raw = _load_yaml(text) or {}
    _take(raw, "top level", {"network", "device", "workload", "sweep"})
    nsec = _take(raw.get("network") or {}, "network",
                 {"uplink_bps", "downlink_bps", "rtt_seconds"})
    dsec = _take(raw.get("device") or {}, "device",
                 {"client_flops_per_s", "server_flops_per_s", "flops_utilization"})
    wsec = _take(raw.get("workload") or {}, "workload",
                 {"batch", "seq_len", "hidden", "total_layers", "client_layers",
                  "bytes_per_activation"})
    ssec = _take(raw.get("sweep") or {}, "sweep",
                 {"layer_min", "layer_max", "noise_trials", "noise_frac", "noise_seed"})
    net = {k: _float(v, f"network.{k}") for k, v in nsec.items()}
    dev = {k: _float(v, f"device.{k}") for k, v in dsec.items()}
    work = {k: _int(v, f"workload.{k}") for k, v in wsec.items()}
    sweep = {key: _int(ssec.get(key, default), f"sweep.{key}") for key, default in
             (("layer_min", 2), ("layer_max", 8), ("noise_trials", 0), ("noise_seed", 0))}
    noise_frac = _float(ssec.get("noise_frac", 0.1), "sweep.noise_frac")
    try:
        prof = LatencyProfileConfig(
            network=NetworkProfile(**net), device=DeviceProfile(**dev),
            workload=WorkloadProfile(**work), noise_frac=noise_frac, **sweep,
        )
    except ValueError as exc:
        raise ConfigError(f"latency profile: {exc}") from exc
    if not 1 <= prof.layer_min <= prof.layer_max < prof.workload.total_layers:
        raise ConfigError("sweep layer range must satisfy 1 <= min <= max < total_layers")
    if prof.noise_trials < 0:
        raise ConfigError(f"sweep.noise_trials must be non-negative, got {prof.noise_trials}")
    # the jitter factors 1 +- noise_frac must keep every speed positive
    if not 0.0 <= prof.noise_frac <= 1.0:
        raise ConfigError(f"sweep.noise_frac must lie in [0, 1], got {prof.noise_frac}")
    return prof
