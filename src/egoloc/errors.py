"""Exception types raised across the package, and the config-section parser
that turns a bad config into a `ConfigError`."""

import dataclasses
import sys
import types
import typing
from numbers import Integral, Real


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
    """A correspondence set is degenerate for DLT (coplanar/collinear/rank-deficient)."""


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


def is_integer(value) -> bool:
    """Whether `value` is an integer and not a bool (a JSON `true` is no count)."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether `value` is a real number and not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """Whether `value` is a real number, not a bool, that a float holds
    finitely: not NaN, not infinite and not an integer beyond float range."""
    return is_number(value) and abs(value) <= sys.float_info.max


_UNIONS = (typing.Union, types.UnionType)


def _fits(kind, value) -> bool:
    """Whether JSON `value` fits the field type `kind`. Only `int` (never a
    bool), `float` (any non-bool number), `None` and `tuple[...]` (a list of
    fitting items) are judged, alone or in a union; other kinds fit anything
    and are left to the class."""
    if typing.get_origin(kind) in _UNIONS:
        return any(_fits(k, value) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, (list, tuple)) and all(_fits(item, v) for v in value)
    if kind in (int, float):
        return is_integer(value) if kind is int else is_number(value)
    return kind is not type(None) or value is None


def parse_config(cls, values, **fixed):
    """`cls(**values, **fixed)` for one config section, a JSON object.

    A field whose type is itself a dataclass holds a nested section, parsed
    into that class the same way; an absent one gives that class's
    defaults. `fixed` overrides keys of the section. A section that is not
    an object, an unknown key, a bad value, or a value that does not fit
    the field's type (see `_fits`) raises `ConfigError`.
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
        kind = hints.get(key)
        if not _fits(kind, value):
            name = kind.__name__ if isinstance(kind, type) else kind
            raise ConfigError(f"invalid {cls.__name__} config: {key} must be {name}, not {value!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__} config: {exc}") from exc
