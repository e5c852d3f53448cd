"""The package's public names, and the names the benchmark uses."""

import ast
import dataclasses
import importlib
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
