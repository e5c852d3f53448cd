"""Exception types raised across the package, and the config-section parser
that turns a bad config into a `ConfigError`."""

import dataclasses
import typing
from numbers import Integral


class EgolocError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleSpecError(EgolocError):
    """Scene specification cannot produce a valid scene (e.g. empty camera)."""


class TooFewVisibleError(EgolocError):
    """Requested view sees fewer points than the minimum needed downstream."""


class DegenerateModelError(EgolocError):
    """Model has no cameras or no points; compression is undefined."""


class TooFewDescriptorsError(EgolocError):
    """Model holds fewer descriptors than the requested vocabulary size."""


class EmptyQueryError(EgolocError):
    """Query view carries no features."""


class DegenerateConfigurationError(EgolocError):
    """Correspondence set is degenerate for DLT (coplanar/collinear/rank-deficient)."""


class SingularBlockError(EgolocError):
    """Left 3x3 block of a projection matrix is not invertible."""


class NoModelFoundError(EgolocError):
    """RANSAC exhausted its budget without a usable pose hypothesis."""


class RegistrationFailedError(EgolocError):
    """Localization pipeline failed; `stage` names the step that gave up."""

    def __init__(self, stage: str, message: str = ""):
        self.stage = stage
        super().__init__(f"registration failed at stage '{stage}'"
                         + (f": {message}" if message else ""))


class PoolEmptyError(EgolocError):
    """Model pool holds no records."""


class EmptyInputError(EgolocError):
    """An operation that needs at least one element received none."""


class ModelIOError(EgolocError):
    """Base class for model file serialization errors."""


class CorruptHeaderError(ModelIOError):
    """Model file header failed magic or checksum validation."""


class VersionMismatchError(ModelIOError):
    """Model file was written by an unsupported format version."""


class TruncatedPayloadError(ModelIOError):
    """Model file payload is shorter than its header declares."""


class ConfigError(EgolocError):
    """Benchmark or CLI configuration, or a requested scene camera, is invalid."""


def parse_config(cls, values, **fixed):
    """`cls(**values, **fixed)` for one config section, a JSON object.

    A field whose type is itself a dataclass holds a nested section, parsed
    into that class the same way; an absent one gives that class's
    defaults. `fixed` overrides keys of the section. A section that is not
    an object, an unknown key, a bad value, or a bool or non-integer number
    for a field typed `int` raises `ConfigError`.
    """
    if not isinstance(values, dict):
        raise ConfigError(
            f"{cls.__name__} config must be a JSON object, got {type(values).__name__}"
        )
    hints = typing.get_type_hints(cls)
    nested = {
        k: parse_config(kind, values.get(k, {}))
        for k, kind in hints.items()
        if dataclasses.is_dataclass(kind)
    }
    kwargs = {**values, **nested, **fixed}
    for key, value in kwargs.items():
        if hints.get(key) is int and (isinstance(value, bool) or not isinstance(value, Integral)):
            raise ConfigError(
                f"invalid {cls.__name__} config: {key} must be an integer, not {value!r}"
            )
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__} config: {exc}") from exc
