"""The package's public names, and the names the benchmark uses."""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import re
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import egoloc
from egoloc import cli
from egoloc.bench import BenchConfig, SessionSimConfig, held_out_views
from egoloc.geometry import CameraIntrinsics, VisibilityMatrix
from egoloc.compression import (
    CompressedModel,
    compress,
    compress_set_kcover,
    compress_top_visibility,
)
from egoloc.errors import ConfigError, In, check_value, parse_config
from egoloc.matching import MatchParams, build_index
from egoloc.pool import (
    ModelPool,
    ModelRecord,
    PoolParams,
    ServedView,
    SessionBatch,
    SessionOutcome,
    ingest_session,
    prune,
    score_model,
)
from egoloc.pose import PoseEstimate, RansacParams
from egoloc.structures import DetectParams, StructureLabeling
from egoloc.synthetic import SceneSpec, build_model, render_view, resample_descriptors
from egoloc.tracking import TrackParams, _measurement

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
    """The one finiteness rule is `check_value` over (-inf, inf)."""
    if finite:
        assert check_value("value", float, value, In("(-inf, inf)")) == float(value)
    else:
        with pytest.raises(ValueError, match="^value must be "):
            check_value("value", float, value, In("(-inf, inf)"))


@pytest.mark.parametrize("cls, field", [(RansacParams, "inlier_threshold"), (PoolParams, "ttl")])
def test_a_narrow_float_infinity_is_not_a_finite_number(cls, field):
    """A float32 infinity is read as `inf`: a finite interval refuses it,
    and `ttl`'s interval (0, inf] stores it as `float("inf")`."""
    if cls is PoolParams:
        stored = cls(**{field: np.float32("inf")}).ttl
        assert type(stored) is float and stored == float("inf")
        return
    with pytest.raises(ValueError, match=f"^{field} must be "):
        cls(**{field: np.float32("inf")})


BELOW_0 = np.nextafter(0.0, -1.0)
ABOVE_1 = np.nextafter(1.0, 2.0)
INF = float("inf")
INTRINSICS = dict(
    focal_x=500.0,
    focal_y=500.0,
    principal_x=450.0,
    principal_y=300.0,
    image_width=900,
    image_height=600,
)

# Every field that has an interval, written out by hand: its class, its
# name, the values just outside it (an open end itself, one step past a
# closed end: `np.nextafter` for a number, 1 for an integer) and its closed
# ends. A number field also refuses NaN.
BOUNDED_FIELDS = [
    (SceneSpec, "num_planes", [-1], [0]),
    (SceneSpec, "num_lines", [-1], [0]),
    (SceneSpec, "points_per_plane", [-1, (5, -1)], [0, (0, 0)]),
    (SceneSpec, "points_per_line", [-1], [0]),
    (SceneSpec, "num_clutter", [-1], [0]),
    (SceneSpec, "scene_extent", [0.0, INF], []),
    (SceneSpec, "num_cameras", [-1], [0]),
    (SceneSpec, "descriptor_dim", [-1], [0]),
    (SceneSpec, "descriptor_noise_sigma", [BELOW_0, INF], [0.0]),
    (SceneSpec, "pixel_noise_sigma", [BELOW_0, INF], [0.0]),
    (SceneSpec, "outlier_fraction", [BELOW_0, 1.0], [0.0]),
    (SceneSpec, "visibility_dropout", [BELOW_0, 1.0], [0.0]),
    (SceneSpec, "seed", [-1], [0]),
    (DetectParams, "inlier_threshold", [0.0, INF], []),
    (DetectParams, "min_members", [2], [3]),
    (DetectParams, "max_iterations_per_structure", [0], [1]),
    (DetectParams, "seed", [-1], [0]),
    (MatchParams, "ratio_threshold", [0.0, 1.0], []),
    (MatchParams, "max_matches", [5], [6]),
    (RansacParams, "inlier_threshold", [0.0, INF], []),
    (RansacParams, "max_iterations", [0], [1]),
    (RansacParams, "confidence", [0.0, 1.0], []),
    (RansacParams, "seed", [-1], [0]),
    (PoolParams, "t1", [-1], [0]),
    (PoolParams, "t2", [0.0, ABOVE_1], [1.0]),
    (PoolParams, "swap_threshold", [BELOW_0, ABOVE_1], [0.0, 1.0]),
    (PoolParams, "invalid_window", [0, sys.maxsize + 1], [1, sys.maxsize]),
    (PoolParams, "invalid_quota", [0], [1]),
    (PoolParams, "ttl", [0.0], [INF]),
    (TrackParams, "process_noise", [0.0, INF], []),
    (TrackParams, "measurement_variance", [0.0, INF], []),
    (TrackParams, "gate_threshold", [0.0, INF], []),
    (TrackParams, "frame_interval", [0.0, INF], []),
    (BenchConfig, "target_fraction", [0.0, ABOVE_1], [1.0]),
    (BenchConfig, "num_queries", [0], [1]),
    (BenchConfig, "reconstruction_noise", [BELOW_0, INF], [0.0]),
    (BenchConfig, "num_words", [0], [1]),
    (BenchConfig, "seed", [-1], [0]),
    (SessionSimConfig, "pool_regimes", [(-1,), (1, -1)], [(0,)]),
    (SessionSimConfig, "schedule", [(-1,)], [(0,)]),
    (SessionSimConfig, "views_per_session", [0], [1]),
    (SessionSimConfig, "score_views", [0], [1]),
    (SessionSimConfig, "num_words", [0], [1]),
    (SessionSimConfig, "seed", [-1], [0]),
    (CameraIntrinsics, "focal_x", [0.0, INF], []),
    (CameraIntrinsics, "focal_y", [0.0, INF], []),
    (CameraIntrinsics, "principal_x", [-INF, INF], []),
    (CameraIntrinsics, "principal_y", [-INF, INF], []),
    (CameraIntrinsics, "image_width", [0], [1]),
    (CameraIntrinsics, "image_height", [0], [1]),
]


def _valid(cls) -> dict:
    """Values at which `cls` is built while one field is varied: a bounded
    `invalid_window` may be as small as 1 only with a quota of 1."""
    return {CameraIntrinsics: INTRINSICS, PoolParams: {"invalid_quota": 1}}.get(cls, _required(cls))


def _bounded_cases(values):
    return [
        pytest.param(cls, field, value, id=f"{cls.__name__}-{field}-{value!r}")
        for cls, field, *table in BOUNDED_FIELDS
        for value in values(typing.get_type_hints(cls)[field], *table)
    ]


def test_the_table_lists_every_bounded_field():
    bounded = {
        (cls, name)
        for cls in (*CONFIG_CLASSES, CameraIntrinsics)
        for name, hint in typing.get_type_hints(cls, include_extras=True).items()
        if typing.get_origin(hint) is typing.Annotated
    }
    assert {(cls, field) for cls, field, *_ in BOUNDED_FIELDS} == bounded


@pytest.mark.parametrize(
    "cls, field, value",
    _bounded_cases(lambda kind, outside, ends: outside + ([np.nan] if kind is float else [])),
)
def test_a_value_outside_its_interval_is_refused(cls, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be in "):
        cls(**{**_valid(cls), field: value})
    section = {**_valid(cls), field: value}
    section.pop("scene", None)  # parse_config builds the default scene
    with pytest.raises(ConfigError, match=rf"^invalid {cls.__name__} config: {field} must be in "):
        parse_config(cls, section)


@pytest.mark.parametrize("cls, field, value", _bounded_cases(lambda kind, outside, ends: ends))
def test_a_closed_end_is_accepted(cls, field, value):
    assert getattr(cls(**{**_valid(cls), field: value}), field) == value


def _cli_seed(world, value):
    """`egoloc gen --seed <value>`, raising the ValueError `main` reports."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert cli.main(["gen", "--seed", str(value), "--out", str(world.out)]) == 1
    raise ValueError(stderr.getvalue().removeprefix("error[ValueError]: "))


# Every function argument judged by `check_value`: the function, the
# argument's name as its error gives it, its kind, the values it refuses
# (one step past a closed end of its interval or the open end itself; for
# `compress`'s `parameter`, a string and a fraction), and a call that passes
# the value. The cases add a bool to each, NaN to a number and 2.5 to an
# integer; `--seed` reaches `main` only as argparse's `int` parses it, so it
# gets none of these.
ARGUMENT_INTERVALS = [
    ("_greedy_kcover", "k", int, [0], lambda w, v: compress_set_kcover(w.model, v)),
    (
        "compress",
        "parameter",
        float,
        ["2", 2.5],
        lambda w, v: compress(w.model, None, "set_kcover", v),
    ),
    (
        "compress_top_visibility",
        "fraction",
        float,
        [0.0, ABOVE_1],
        lambda w, v: compress_top_visibility(w.model, w.labeling, v),
    ),
    (
        "build_model",
        "reconstruction_noise_sigma",
        float,
        [BELOW_0, INF],
        lambda w, v: build_model(w.scene, v),
    ),
    ("build_model", "seed", int, [-1], lambda w, v: build_model(w.scene, seed=v)),
    ("render_view", "seed", int, [-1], lambda w, v: render_view(w.scene, 0, seed=v)),
    (
        "resample_descriptors",
        "regime_seed",
        int,
        [-1],
        lambda w, v: resample_descriptors(w.scene, v),
    ),
    ("held_out_views", "seed", int, [-1], lambda w, v: held_out_views(w.scene, 1, v)),
    (
        "ingest_session",
        "score_views",
        int,
        [0],
        lambda w, v: ingest_session(w.pool, w.session, score_views=v),
    ),
    (
        "score_model",
        "num_views",
        int,
        [0],
        lambda w, v: score_model(w.record, w.views, num_views=v),
    ),
    ("prune", "now", float, [-INF, INF], lambda w, v: prune(w.pool, v)),
    ("VisibilityMatrix", "num_points", int, [-1], lambda w, v: VisibilityMatrix(v, [])),
    (
        "_measurement",
        "measurement row 1: timestamp",
        float,
        [-INF, INF],
        lambda w, v: _measurement(1, (v, None)),
    ),
    ("build_index", "num_words", int, [0], lambda w, v: build_index(w.model, v)),
    ("build_index", "seed", int, [-1], lambda w, v: build_index(w.model, 16, seed=v)),
    ("main", "seed", None, [-1], _cli_seed),
]


@pytest.fixture(scope="module")
def argument_world(small_scene, small_model, tmp_path_factory):
    """A scene, its model and labeling, and a one-record pool with a
    one-view session: what the table's calls take."""
    record = ModelRecord("only", small_model, build_index(small_model, 16, seed=1), 0.0, 0.0)
    views = [render_view(small_scene, 0)]
    return types.SimpleNamespace(
        scene=small_scene,
        model=small_model,
        labeling=small_scene.true_labeling,
        record=record,
        pool=ModelPool([record], "only", PoolParams()),
        views=views,
        session=SessionBatch(views, [0.0]),
        out=tmp_path_factory.mktemp("argument-cli"),
    )


def _argument_cases():
    extra = {int: [True, 2.5], float: [True, np.nan], None: []}
    return [
        pytest.param(name, call, value, id=f"{function}-{name}-{value!r}")
        for function, name, kind, outside, call in ARGUMENT_INTERVALS
        for value in outside + extra[kind]
    ]


@pytest.mark.parametrize("name, call, value", _argument_cases())
def test_an_argument_outside_its_interval_is_refused(argument_world, name, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(argument_world, value)


def test_the_table_lists_every_checked_argument():
    """Every `check_value` call in the package that names its argument by a
    string literal has a row in `ARGUMENT_INTERVALS`."""
    checked = {
        node.args[0].value
        for path in sorted((ROOT / "src" / "egoloc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "check_value"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    }
    assert checked
    assert checked <= {name for _, name, *_ in ARGUMENT_INTERVALS}
