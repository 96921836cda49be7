"""Exception types shared across the simulator."""


class DimensionMismatchError(ValueError):
    """Vector or matrix shapes do not line up; indicates a caller bug."""


class NumericalError(ArithmeticError):
    """A computation produced NaN or Inf where finite values are required."""


class ProtocolViolationError(RuntimeError):
    """A round-level contract was broken (a client ahead of the round, an empty shard, ...)."""


class StalenessError(ProtocolViolationError):
    """A client missed rounds whose history is no longer available."""


class ConfigError(ValueError):
    """Experiment configuration failed to parse or validate."""
