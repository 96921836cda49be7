"""Experiment configuration: YAML schema, strict validation, round-tripping.

YAML is the one configuration format, and the config dataclasses are its
schema: each field's name, type and default is written once, on its
dataclass. One walker (_parse) turns a YAML mapping into any of them and
its reverse (config_to_dict) turns one back into a mapping. A nested
dataclass field is a YAML section; a missing or null section means {}.
Unknown keys are rejected everywhere so typos fail loudly instead of
silently using defaults, and values are strictly typed: a bool is never a
number, a fraction never an integer, a non-finite number never accepted.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import yaml

from .data import PartitionSpec
from .errors import ConfigError
from .latency import DeviceProfile, NetworkProfile, WorkloadProfile
from .model import SplitModelConfig
from .protocol import HyperParams
from .traffic import PROTOCOLS

MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True)
class DataConfig:
    """The synthetic task, picked by the model's loss: Gaussian blobs for
    softmax_cross_entropy, linear-map targets for squared_error. Its shape is
    the model's: model.n_in inputs, and model.n_out classes or target
    columns. separation, the blob centers' scale, is read by blobs only."""

    n: int = 1024
    separation: float | None = None
    eval_fraction: float = 0.2

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ValueError(f"eval_fraction must lie in [0, 1), got {self.eval_fraction}")


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: str
    model: SplitModelConfig
    hp: HyperParams
    partition: PartitionSpec
    data: DataConfig
    sample_budget: int
    root_seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if not 0 <= self.root_seed <= MAX_SEED:
            raise ConfigError("root_seed must fit in 64 bits")
        if self.sample_budget < 0:
            raise ConfigError("sample_budget must be non-negative")
        if self.hp.optimizer != "sgd" and self.protocol != "hosfl":
            raise ConfigError(
                f"hp.optimizer {self.hp.optimizer!r} is supported by hosfl only; "
                f"{self.protocol} steps with sgd"
            )
        if self.model.loss == "softmax_cross_entropy":
            if self.data.separation is None:
                raise ConfigError("data.separation is required under loss "
                                  "softmax_cross_entropy: it scales the blob centers")
            if not self.data.n >= self.model.n_out >= 2:
                raise ConfigError(
                    f"softmax_cross_entropy blobs need data.n >= classes >= 2, where "
                    f"classes is the model output width; got n={self.data.n}, "
                    f"classes={self.model.n_out}"
                )
        elif self.data.separation is not None:
            raise ConfigError(f"data.separation is read under loss softmax_cross_entropy "
                              f"only; loss {self.model.loss} takes no separation")
        elif self.partition.mode == "dirichlet":
            raise ConfigError(
                f"partition.mode dirichlet needs class labels: Dirichlet label skew "
                f"splits each class across clients, and {self.model.loss} targets "
                f"have no classes; use partition.mode iid"
            )


@dataclass(frozen=True)
class SweepConfig:
    """Client depths to sweep, and the speed-jitter table (skipped at 0 trials)."""

    layer_min: int = 2
    layer_max: int = 8
    noise_trials: int = 0
    noise_frac: float = 0.1
    noise_seed: int = 0

    def __post_init__(self):
        if self.noise_trials < 0:
            raise ValueError(f"noise_trials must be non-negative, got {self.noise_trials}")
        if not 0 <= self.noise_seed <= MAX_SEED:
            raise ValueError(f"noise_seed must fit in 64 bits, got {self.noise_seed}")
        # the jitter factors 1 +- noise_frac must keep every speed positive
        if not 0.0 <= self.noise_frac <= 1.0:
            raise ValueError(f"noise_frac must lie in [0, 1], got {self.noise_frac}")


@dataclass(frozen=True)
class LatencyProfileConfig:
    network: NetworkProfile = field(default_factory=NetworkProfile)
    device: DeviceProfile = field(default_factory=DeviceProfile)
    workload: WorkloadProfile = field(default_factory=WorkloadProfile)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        if not 1 <= self.sweep.layer_min <= self.sweep.layer_max < self.workload.total_layers:
            raise ConfigError("sweep layer range must satisfy 1 <= min <= max < total_layers")


# -----------------------------------------------------------------------------
# Strict scalar coercions
# -----------------------------------------------------------------------------

def _int(value, where: str) -> int:
    """value as an int. Only an int or an integral float is one: a bool, a
    string or a fraction is a ConfigError, never parsed or truncated."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _float(value, where: str) -> float:
    """value as a finite float. A bool is a ConfigError, never 0.0 or 1.0,
    and so are NaN and +-inf."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return number


def _bool(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


# -----------------------------------------------------------------------------
# The schema walker
# -----------------------------------------------------------------------------

_SCALARS = {int: _int, float: _float, bool: _bool, str: _str}


def _converter(hint):
    """A (value, where) -> value function for one field type annotation."""
    if is_dataclass(hint):
        _schema(hint)  # a section's schema resolves with its parent's
        return functools.partial(_parse, hint)
    args = typing.get_args(hint)
    if type(None) in args:  # X | None: null is a value of its own
        convert = _converter(next(a for a in args if a is not type(None)))
        return lambda value, where: None if value is None else convert(value, where)
    if typing.get_origin(hint) is tuple:  # tuple[X, ...], a YAML list
        convert = _converter(args[0])

        def to_tuple(value, where):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{where} must be a list, got {value!r}")
            return tuple(convert(item, where) for item in value)
        return to_tuple
    return _SCALARS[hint]


@functools.cache
def _schema(cls) -> dict:
    """name -> (convert, required, section) for each init field of cls, resolved once."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (_converter(hints[f.name]),
                 f.default is MISSING and f.default_factory is MISSING,
                 is_dataclass(hints[f.name]))
        for f in fields(cls) if f.init
    }


def _parse(cls, raw, where: str = ""):
    """Build dataclass cls from a YAML mapping; where is its dotted section path.

    Keys missing from raw take the dataclass defaults; a missing section is
    parsed from {}. Any failure is a ConfigError naming the field or section.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {where or 'top level'!r} must be a mapping")
    schema = _schema(cls)
    unknown = raw.keys() - schema.keys()
    if unknown:
        raise ConfigError(f"unknown key {sorted(map(str, unknown))[0]!r} "
                          f"in section {where or 'top level'!r}")
    kwargs = {}
    for name, (convert, required, section) in schema.items():
        path = f"{where}.{name}" if where else name
        if name in raw or section:
            kwargs[name] = convert(raw.get(name), path)
        elif required:
            raise ConfigError(f"missing required field {path!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not where:  # a whole document raises ConfigError from its own checks
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def config_to_dict(cfg) -> dict:
    """The YAML mapping that parses back to cfg; None values are left out."""
    out = {}
    for name in _schema(type(cfg)):
        value = getattr(cfg, name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[name] = value
    return out


# libyaml's parser when PyYAML was built with it. Both loaders build values
# with the same SafeConstructor and Resolver, so a config parses to the
# same values; only a syntax error's message drops the source snippet.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text: str):
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"parse error{where}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate one experiment configuration document."""
    return _parse(ExperimentConfig, _load_yaml(text))


def parse_latency_profile(text: str) -> LatencyProfileConfig:
    return _parse(LatencyProfileConfig, _load_yaml(text))


# Resolve both documents' schemas once, at import: get_type_hints evaluates
# every annotation string, which costs more than a whole parse.
_schema(ExperimentConfig)
_schema(LatencyProfileConfig)
