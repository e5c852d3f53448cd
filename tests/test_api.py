"""The package's public names, and the names the benchmark uses."""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import egoloc
from egoloc.compression import CompressedModel
from egoloc.pool import ServedView, SessionOutcome
from egoloc.pose import PoseEstimate
from egoloc.structures import StructureLabeling

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


def test_no_unreferenced_private_names():
    """Every private module-level function, class or constant of the package
    is read somewhere in it, as a name or an attribute; dunder names are
    exempt. A helper left behind by a refactor fails here."""
    paths = sorted((ROOT / "src" / "egoloc").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in paths}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
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
