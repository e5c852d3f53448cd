"""Exception types raised across the package, the field-type check every
config class runs, and the config-section parser that turns a bad config
into a `ConfigError`."""

import dataclasses
import functools
import math
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
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


_UNIONS = (typing.Union, types.UnionType)
_MISFIT = object()
# How an error message names a field type; any other by its annotation.
_KIND_NAMES = {int: "an integer", int | None: "an integer", float: "a number"}
_field_types = functools.cache(typing.get_type_hints)


def _fit(kind, value):
    """`value` as a field of type `kind` stores it, or `_MISFIT`. Only `int`
    (never a bool; stored as `int`), `float` (a float, or another non-bool
    number that a float holds finitely; stored as `float`), `None`,
    `tuple[...]` (a list of fitting items; stored as a tuple) and a
    dataclass (an instance of it) are judged, alone or in a union; other
    kinds fit anything."""
    if typing.get_origin(kind) in _UNIONS:
        fits = (_fit(k, value) for k in typing.get_args(kind))
        return next((v for v in fits if v is not _MISFIT), _MISFIT)
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            return _MISFIT
        items = tuple(_fit(typing.get_args(kind)[0], v) for v in value)
        return _MISFIT if any(v is _MISFIT for v in items) else items
    if kind is int:
        return int(value) if is_integer(value) else _MISFIT
    if kind is float:
        return float(value) if isinstance(value, float) or is_finite_number(value) else _MISFIT
    if dataclasses.is_dataclass(kind):
        fits = isinstance(value, kind)
    else:
        fits = kind is not type(None) or value is None
    return value if fits else _MISFIT


def check_fields(obj) -> None:
    """Store each field of the dataclass `obj` as `_fit` stores it for its
    annotated type; raise ValueError naming the first that does not fit.
    Every config class runs this in its `__post_init__`."""
    for name, kind in _field_types(type(obj)).items():
        value = getattr(obj, name)
        fitted = _fit(kind, value)
        if fitted is _MISFIT:
            wanted = _KIND_NAMES.get(kind) or (kind.__name__ if isinstance(kind, type) else kind)
            raise ValueError(f"{name} must be {wanted}, not {value!r}")
        object.__setattr__(obj, name, fitted)


def parse_config(cls, values, **fixed):
    """`cls(**values, **fixed)` for one config section, a JSON object.

    A field whose type is itself a dataclass holds a nested section, parsed
    into that class the same way; an absent one gives that class's
    defaults. `fixed` overrides keys of the section. A section that is not
    an object, an unknown key, or a value the class refuses (its own checks
    and `check_fields`) raises `ConfigError`; an error in a nested section
    starts with its key.
    """
    if not isinstance(values, dict):
        raise ConfigError(
            f"{cls.__name__} config must be a JSON object, got {type(values).__name__}"
        )
    nested = {}
    for k, kind in _field_types(cls).items():
        if dataclasses.is_dataclass(kind):
            try:
                nested[k] = parse_config(kind, values.get(k, {}))
            except ConfigError as exc:
                raise ConfigError(f"{k}: {exc}") from exc
    try:
        return cls(**{**values, **nested, **fixed})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__} config: {exc}") from exc
