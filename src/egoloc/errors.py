"""Exception types raised across the package, the check of each config field
and function argument (its type and interval), and the config-section
parser that turns a bad config into a `ConfigError`."""

import dataclasses
import functools
import operator
import types
import typing
from numbers import Integral, Real
from typing import Annotated, get_args, get_origin


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


class In:
    """An interval a number must lie in, written as in mathematics:
    `In("(0, 1]")`, `In("[1, inf)")`. An end written as an integer is kept
    as one, so it compares exactly with an integer value."""

    def __init__(self, text: str):
        self.text = text
        ends = (e.strip() for e in text[1:-1].split(","))
        self.low, self.high = (int(e) if e.lstrip("-").isdigit() else float(e) for e in ends)
        self.above_low = operator.lt if text[0] == "(" else operator.le
        self.below_high = operator.lt if text[-1] == ")" else operator.le

    def __contains__(self, value) -> bool:
        return self.above_low(self.low, value) and self.below_high(value, self.high)

    def __repr__(self) -> str:
        return self.text


_UNIONS = (typing.Union, types.UnionType)
_MISFIT = object()
# How an error message names a field type; any other by its annotation.
_KIND_NAMES = {int: "an integer", int | None: "an integer", float: "a number", str: "a string"}


@functools.cache
def _field_types(cls) -> dict[str, tuple]:
    """Each field of the dataclass `cls` by name: its type, then the
    intervals its `Annotated[type, *intervals]` annotation gives."""
    hints = typing.get_type_hints(cls, include_extras=True).items()
    return {k: get_args(h) if get_origin(h) is Annotated else (h,) for k, h in hints}


def _fit(kind, value):
    """`value` as a field of type `kind` stores it, or `_MISFIT`. Only `int`
    (never a bool; stored as `int`), `float` (a non-bool real number that a
    float holds, infinite or NaN too; stored as `float`), `str`,
    `None`, `tuple[...]` (a list of fitting items; stored as a tuple) and a
    dataclass (an instance of it) are judged, alone or in a union; other
    kinds fit anything."""
    if get_origin(kind) in _UNIONS:
        fits = (_fit(k, value) for k in get_args(kind))
        return next((v for v in fits if v is not _MISFIT), _MISFIT)
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            return _MISFIT
        items = tuple(_fit(get_args(kind)[0], v) for v in value)
        return _MISFIT if any(v is _MISFIT for v in items) else items
    if kind is int:
        return int(value) if is_integer(value) else _MISFIT
    if kind is float:
        try:
            return float(value) if is_number(value) else _MISFIT
        except OverflowError:  # an integer too large for a float
            return _MISFIT
    if dataclasses.is_dataclass(kind) or kind is str:
        fits = isinstance(value, kind)
    else:
        fits = kind is not type(None) or value is None
    return value if fits else _MISFIT


def check_value(name: str, kind, value, *bounds: In):
    """`value` as a field or argument `name` of type `kind` stores it (see
    `_fit`); a ValueError naming `name` unless it fits `kind` and lies in
    each interval of `bounds`. None is not judged by the intervals, and each
    item of a tuple is."""
    fitted = _fit(kind, value)
    if fitted is _MISFIT:
        wanted = _KIND_NAMES.get(kind) or (kind.__name__ if isinstance(kind, type) else kind)
        raise ValueError(f"{name} must be {wanted}, not {value!r}")
    for item in fitted if isinstance(fitted, tuple) else (fitted,):
        for interval in bounds:
            if item is not None and item not in interval:
                raise ValueError(f"{name} must be in {interval}, not {item!r}")
    return fitted


def check_fields(obj, *names: str) -> None:
    """Store each field of the dataclass `obj`, or each one in `names`, as
    `check_value` stores it for its annotated type and intervals. Every
    config class runs this on all its fields in its `__post_init__`."""
    types = _field_types(type(obj))
    for name in names or types:
        kind, *bounds = types[name]
        object.__setattr__(obj, name, check_value(name, kind, getattr(obj, name), *bounds))


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
    for k, (kind, *_) in _field_types(cls).items():
        if dataclasses.is_dataclass(kind):
            try:
                nested[k] = parse_config(kind, values.get(k, {}))
            except ConfigError as exc:
                raise ConfigError(f"{k}: {exc}") from exc
    try:
        return cls(**{**values, **nested, **fixed})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__} config: {exc}") from exc
