"""The package's public names, and the names the benchmark uses."""

import ast
import dataclasses
import importlib
import inspect
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import egoloc
from egoloc.bench import BenchConfig, SessionSimConfig
from egoloc.compression import CompressedModel
from egoloc.errors import ConfigError, is_finite_number, parse_config
from egoloc.matching import MatchParams
from egoloc.pool import PoolParams, ServedView, SessionOutcome
from egoloc.pose import PoseEstimate, RansacParams
from egoloc.structures import DetectParams, StructureLabeling
from egoloc.synthetic import SceneSpec
from egoloc.tracking import TrackParams

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in egoloc.__all__ if not hasattr(egoloc, name)]
    assert missing == []
    assert len(set(egoloc.__all__)) == len(egoloc.__all__)


def _has(owner, name: str) -> bool:
    """`name` is an attribute of `owner` or, for a dataclass, one of its fields."""
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, name) or name in {f.name for f in fields}


def test_benchmark_names_resolve():
    """The benchmark in `egobench/` is not changed with the package, so the
    package names it uses must stay: what `egobench/workloads.py` imports,
    what `egobench.layers.TRACED` rebinds, and what its counters read."""
    tree = ast.parse((ROOT / "egobench" / "workloads.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("egoloc", "egoloc.bench", "egoloc.errors")
        for alias in node.names
    ]
    assert {("egoloc.bench", "tune_k"), ("egoloc.bench", "held_out_views")} <= set(imported)
    missing = [f"{m}.{n}" for m, n in imported if not _has(importlib.import_module(m), n)]
    assert missing == []

    # Each call to one of those names binds to its signature: the same
    # number of positional arguments and the same keyword names.
    package = {n: getattr(importlib.import_module(m), n) for m, n in imported}
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in package
    ]
    assert {"ModelPool", "ModelRecord", "ingest_session"} <= {c.func.id for c in calls}
    unbound = []
    for call in calls:
        try:
            inspect.signature(package[call.func.id]).bind(
                *call.args, **{k.arg: k.value for k in call.keywords}
            )
        except TypeError as exc:
            unbound.append(f"workloads.py:{call.lineno} {call.func.id}: {exc}")
    assert unbound == []

    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from egobench.layers import TRACED

    targets = [(module, attr) for module, attr, *_ in TRACED]
    assert [f"{m.__name__}.{a}" for m, a in targets if not _has(m, a)] == []

    read = [
        (SessionOutcome, "num_new_models"),
        (SessionOutcome, "served"),
        (ServedView, "verified"),
        (PoseEstimate, "n_inliers"),
        (PoseEstimate, "n_correspondences"),
        (StructureLabeling, "num_structures"),
        (CompressedModel, "num_points"),
    ]
    assert [f"{c.__name__}.{a}" for c, a in read if not _has(c, a)] == []


def test_benchmark_counters_read_the_result_types(small_scene, small_model):
    """The counters `egobench.layers.TRACED` takes from what `match_features`
    and `ransac_pose` return (`matching.correspondences` and
    `pose.inlier_ratio`) count the matches and the inliers of real results,
    whatever form those results take."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from egobench.layers import TRACED

    counter = {attr: count for module, attr, _, count in TRACED if module is egoloc.pose}
    index = egoloc.build_index(small_model, 16, seed=1)
    view = egoloc.render_view(small_scene, 0, seed=2)
    matches = egoloc.match_features(view, index, egoloc.MatchParams(max_matches=50))
    n = len(matches["feature_index"])
    assert counter["match_features"](matches) == {"correspondences": n}

    px = view.pixels[matches["feature_index"]]
    pts = index.positions_of(matches["point_id"])
    estimate = egoloc.ransac_pose(px, pts, egoloc.RansacParams(), intrinsics=view.intrinsics)
    assert 0 < len(estimate.inlier_ids) <= n
    assert counter["ransac_pose"](estimate) == {
        "inliers": len(estimate.inlier_ids),
        "correspondences": n,
    }


def test_no_unused_imports():
    """Every name a module imports is used in it (`__init__.py` re-exports)."""
    unused = []
    for path in sorted((ROOT / "src" / "egoloc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # A quoted annotation, such as a name imported under TYPE_CHECKING.
        used |= {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        unused += [f"{path.name}:{line} {n}" for n, line in imported.items() if n not in used]
    assert unused == []


def _names_read(trees) -> set[str]:
    """The names and attributes that the modules parsed into `trees` read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_is_read_in_the_package():
    """Every name in `egoloc.__all__` is read, as a name or an attribute, in
    a module of the package other than `__init__.py`: no public API lives
    for the tests alone."""
    paths = sorted((ROOT / "src" / "egoloc").glob("*.py"))
    read = _names_read(ast.parse(p.read_text()) for p in paths if p.name != "__init__.py")
    assert [name for name in egoloc.__all__ if name not in read] == []


def test_no_unreferenced_private_names():
    """Every private module-level function, class or constant of the package
    is read somewhere in it, as a name or an attribute; dunder names are
    exempt. A helper left behind by a refactor fails here."""
    paths = sorted((ROOT / "src" / "egoloc").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    read = _names_read(trees.values())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{module}:{node.lineno} {name}"
                for name in names
                if name.startswith("_") and not name.endswith("__") and name not in read
            ]
    assert unread == []


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (MatchParams, "max_matches", 7.5),
        (MatchParams, "max_matches", 6.0),
        (RansacParams, "max_iterations", 10.5),
        (RansacParams, "seed", 1.5),
        (RansacParams, "seed", True),
        (DetectParams, "max_iterations_per_structure", 100.5),
        (DetectParams, "seed", 0.5),
        (DetectParams, "min_members", 50.5),
        (PoolParams, "t1", 2.5),
        (PoolParams, "invalid_window", 5.5),
        (PoolParams, "invalid_quota", 2.5),
    ],
)
def test_integer_parameter_fields_are_checked(cls, field, value):
    """A library caller gets the check a config file gets: an integer field
    refuses a fraction, an integral float and a bool where it is defined."""
    with pytest.raises(ValueError, match=f"^{field} must be an integer, not {value!r}$"):
        cls(**{field: value})


CONFIG_CLASSES = (
    SceneSpec,
    DetectParams,
    MatchParams,
    RansacParams,
    PoolParams,
    TrackParams,
    BenchConfig,
    SessionSimConfig,
)


def _wrong_values(kind) -> list:
    """Values of the wrong type for a field annotated `kind`: a bool for a
    number, a fraction for an integer or a list, a string for any field,
    and a dict for a nested section."""
    if dataclasses.is_dataclass(kind):
        return [{"num_planes": 2}, "x"]
    return [True if kind is float else 2.5, "x"]


def _field_cases(make):
    return [
        pytest.param(cls, name, value, id=f"{cls.__name__}-{name}-{value!r}")
        for cls in CONFIG_CLASSES
        for name, kind in typing.get_type_hints(cls).items()
        for value in make(cls, name, kind)
    ]


def _required(cls) -> dict:
    """The fields `cls` cannot be built without, at valid values."""
    return {"scene": SceneSpec()} if cls in (BenchConfig, SessionSimConfig) else {}


@pytest.mark.parametrize(
    "cls, field, value",
    _field_cases(lambda cls, name, kind: _wrong_values(kind)),
)
def test_every_config_field_is_checked_by_its_type(cls, field, value):
    """One rule for a library caller and a config file: a value that does
    not fit the field's annotated type raises ValueError naming the field,
    and the same value in a config section raises ConfigError."""
    with pytest.raises(ValueError, match=f"^{field} must be "):
        cls(**{**_required(cls), field: value})
    if not isinstance(value, dict):  # in a config file a dict is the section itself
        with pytest.raises(ConfigError, match=rf"(^|: ){field}\b"):
            parse_config(cls, {field: value})


def _numpy_integers(cls, name, kind) -> list:
    """The field's default as numpy integers, if it holds integers."""
    default = getattr(cls(**_required(cls)), name)
    many = isinstance(default, tuple)
    items = default if many else (default,)
    if not all(type(v) is int for v in items):
        return []
    return [[np.int64(v) for v in items] if many else np.int64(default)]


@pytest.mark.parametrize("cls, field, value", _field_cases(_numpy_integers))
def test_numpy_integers_are_stored_as_int(cls, field, value):
    stored = getattr(cls(**{**_required(cls), field: value}), field)
    items = stored if isinstance(value, list) else (stored,)
    assert isinstance(stored, tuple) == isinstance(value, list)
    assert all(type(v) is int for v in items) and np.array_equal(items, np.ravel(value))


def _narrow_floats(cls, name, kind) -> list:
    """The field's default as a float32 and, if whole, as an int, if it is
    a finite number."""
    default = getattr(cls(**_required(cls)), name)
    if kind is not float or not np.isfinite(default):
        return []
    return [np.float32(default)] + ([int(default)] if default == int(default) else [])


@pytest.mark.parametrize("cls, field, value", _field_cases(_narrow_floats))
def test_numbers_are_stored_as_float(cls, field, value):
    stored = getattr(cls(**{**_required(cls), field: value}), field)
    assert type(stored) is float and stored == float(value)


@pytest.mark.parametrize(
    "value, finite",
    [
        (np.float32(1.5), True),
        (np.float32("inf"), False),
        (np.float32("-inf"), False),
        (np.float32("nan"), False),
        (np.float16(65504), True),
        (np.float16("inf"), False),
        (np.float16("nan"), False),
        (10**400, False),
        (-(10**400), False),
        (10**300, True),
        (True, False),
    ],
    ids=lambda v: f"int-{len(str(v))}-digits" if type(v) is int and abs(v) > 10**20 else repr(v),
)
def test_is_finite_number(value, finite):
    assert is_finite_number(value) is finite


@pytest.mark.parametrize("cls, field", [(RansacParams, "inlier_threshold"), (PoolParams, "ttl")])
def test_a_narrow_float_infinity_is_not_a_finite_number(cls, field):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        cls(**{field: np.float32("inf")})
