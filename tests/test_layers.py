"""The package's layering, read from its source: every import at module
level and used, no cycle between its modules, and one pinned top-level API."""

import ast
import graphlib
from itertools import chain
from pathlib import Path

import pytest

# read from the source tree, so that a cycle which breaks importing the
# package is still reported as a cycle
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "masktrack"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}

# the user-level API; stage internals are imported from their own module
PUBLIC = [
    "run_pipeline",
    "PipelineConfig",
    "load_config",
    "parse_config_text",
    "dump_config",
    "load_detections",
    "write_detections",
    "read_results",
    "write_results",
    "render_overlays",
    "evaluate",
    "format_report",
    "EvalReport",
    "SequenceMeta",
    "ResultRecord",
    "Detection",
    "Tracklet",
    "CAR",
    "PEDESTRIAN",
    "BBox",
    "BinaryMask",
    "mask_iou",
    "rle_encode",
    "rle_decode",
    "rle_to_string",
    "rle_from_string",
    "ScenarioSpec",
    "generate",
    "generate_files",
    "scenario_clean",
    "scenario_detector_gaps",
    "scenario_long_occlusions",
]


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a module imports, relatively or by full name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative to the package
                module = f"masktrack.{module}".rstrip(".")
            # "from . import x" names a module; "from .x import y" names its member
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "masktrack" and len(parts) > 1 and parts[1] in MODULES:
                found.add(parts[1])
    return found


def imported_names(tree: ast.Module):
    """(name, line) for every name an import binds in a module, ``from
    __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_was_read():
    assert {"__init__", "geometry", "metrics", "pipeline", "synth"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    for node in ast.walk(MODULES[name]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not nested, f"{name}.{node.name} imports at line {nested[0].lineno}"


# __init__ imports only to re-export. An import kept unused only so that the
# benchmark can patch it by name needs an exemption here that says so.
BENCHMARK_ONLY = {
    # perfbench's piece clock and tracer patch metrics.mask_iou by name; the
    # evaluator takes IOU from the interval table's intersection areas
    ("metrics", "mask_iou"),
    # the same for tracker.mask_iou: every step's IOU comes from
    # frame_pair_ious, a pair-table merge (geometry.pair_intersections) over a
    # block of frame pairs, scored before the first step in run_pipeline
    ("tracker", "mask_iou"),
    # and for reid.bank_cross_similarity: candidate_pairs compares each
    # tracklet with its whole window in one bank_cross_similarities call
    ("reid", "bank_cross_similarity"),
    # and for formats.mask_merge: resolve_records paints every frame's masks
    # by rank over one interval table (geometry.paint_by_rank)
    ("formats", "mask_merge"),
    # and for postfilter.mask_iou: dedup_tracks takes every shared frame's
    # intersection area from one pair-table merge (geometry.pair_intersections)
    ("postfilter", "mask_iou"),
    # and for metrics.mask_intersection_area: an overlapping input's first
    # pair is named from one pair-table merge (geometry.pair_intersections)
    ("metrics", "mask_intersection_area"),
}


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__"}))
def test_every_imported_name_is_used(name):
    tree = MODULES[name]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {bound for module, bound in BENCHMARK_ONLY if module == name}
    dead = [f"{bound} (line {line})" for bound, line in imported_names(tree) if bound not in used]
    assert not dead, f"{name} imports names it never uses: {', '.join(dead)}"


# A mask stores its run ends and derives its run lengths, ``counts``, on
# first use: a reader of ``.counts`` anywhere else would rebuild the tuple of
# Python ints that storing only the run ends saves.
COUNTS_READERS = {"geometry": {"BinaryMask", "rle_to_string"}}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_only_the_mask_and_the_token_encoder_read_counts(name):
    allowed = COUNTS_READERS.get(name, set())
    reads = [
        node.lineno
        for top in MODULES[name].body
        if getattr(top, "name", None) not in allowed
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "counts"
    ]
    assert not reads, f"{name} reads .counts at lines {reads}"


# One rule cuts a batch into blocks under a weight budget, geometry.blocks,
# with one budget in geometry. The tracker's pre-pass weighs another unit,
# cells plus would-be merge intervals, and keeps a budget of its own.
OWN_BLOCK_BUDGETS = {("tracker", "_BLOCK_BUDGET")}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_second_block_rule(name):
    tree = MODULES[name]
    slicers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.endswith("_blocks")
    ]
    assert not slicers, f"{name} defines block slicers of its own: {slicers}"
    targets = chain.from_iterable(
        top.targets if isinstance(top, ast.Assign) else [top.target]
        for top in tree.body
        if isinstance(top, (ast.Assign, ast.AnnAssign))
    )
    budgets = [
        t.id
        for t in targets
        if isinstance(t, ast.Name) and t.id.startswith("_BLOCK") and (name, t.id) not in OWN_BLOCK_BUDGETS
    ]
    assert not budgets, f"{name} defines block constants of its own: {budgets}"


def test_import_graph_is_acyclic():
    graph = {name: package_imports(tree) for name, tree in MODULES.items()}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_the_evaluator_does_not_import_what_it_scores():
    assert package_imports(MODULES["metrics"]) == {"errors", "formats", "geometry", "tracker"}


def test_top_level_names_are_the_pinned_list():
    import masktrack

    assert masktrack.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(masktrack, name) is not None
