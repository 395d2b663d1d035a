"""Structure of the package: intra-package imports sit at module
level and form no cycle, the estimators import nothing from completion,
and no module imports inside a function; the
Gauss-Newton settings are read by one solver loop only; the congruent
start has one pin loop; each numeric kernel has one copy; the estimators
reach an observation pattern's anchor geometry through one cache; the
two-stage fit and stage 3 each have one array core and one one-trial
entry;
the velocity fit has one array core, on which the motion sweep runs;
the package keeps the names the benchmark's tracer patches, and the
harness the poses its gate checks; and the metric fields of the results
are listed once, by their dataclasses."""

import ast
import importlib
from pathlib import Path

import numpy as np

import rigidloc
from rigidloc import estimators, harness
from rigidloc.estimators import rbl_two_stage
from rigidloc.geometry import Pose, apply_pose, random_rotation
from rigidloc.measurement import HullOcclusion, simulate_ranges

PACKAGE = Path(rigidloc.__file__).parent
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def parse_modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def intra_package_targets(node, modules):
    """Package modules an import statement loads, or an empty list."""
    if isinstance(node, ast.ImportFrom) and node.level > 0:
        if node.module is None:
            return [a.name for a in node.names if a.name in modules]
        return [node.module.split(".")[0]]
    names = [a.name for a in node.names] if isinstance(node, ast.Import) \
        else [node.module or ""]
    return [n.split(".")[1] for n in names
            if n.startswith("rigidloc.") and n.split(".")[1] in modules]


def nested_imports(tree):
    """Import statements that are not top-level statements of the module."""
    top = {id(node) for node in tree.body}
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def imported_name(node):
    if isinstance(node, ast.ImportFrom):
        return "." * node.level + (node.module or "")
    return ", ".join(a.name for a in node.names)


def test_only_lazy_imports_are_nested():
    """There are no lazy imports: no module imports inside a function."""
    nested = {f"{name}:{node.lineno} {imported_name(node)}"
              for name, tree in parse_modules().items()
              for node in nested_imports(tree)}
    assert nested == set()


def test_module_import_graph_is_acyclic():
    modules = parse_modules()
    graph = {name: {target for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for target in intra_package_targets(node, modules)
                    if target != name}
             for name, tree in modules.items()}
    assert set(graph["__init__"]) >= {"geometry", "completion", "estimators"}

    done, active = set(), []

    def visit(name):
        assert name not in active, f"import cycle: {' -> '.join(active + [name])}"
        if name in done:
            return
        active.append(name)
        for target in sorted(graph[name]):
            visit(target)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_estimators_import_nothing_from_completion():
    """Anchorless relative pose is anchored localization in one body's
    frame, so the estimators need no EDM embedding."""
    modules = parse_modules()
    assert not any("completion" in intra_package_targets(node, modules)
                   for node in ast.walk(modules["estimators"])
                   if isinstance(node, (ast.Import, ast.ImportFrom)))


def readers(tree, name):
    """Names of the functions that read the module-level ``name``, or the
    dotted name such as ``np.linalg.svd``, with ``<module>`` for a read
    outside any function."""
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (isinstance(child, (ast.Name, ast.Attribute))
                    and isinstance(child.ctx, ast.Load) and ast.unparse(child) == name):
                found.add(owner)
            walk(child, owner)

    walk(tree, "<module>")
    return found


def test_one_gauss_newton_loop():
    """Every point fix runs on one Gauss-Newton kernel: only it reads the
    iteration cap, only it and its backtracking read the step tolerance,
    and only its step test reads the rounding allowance. The kernel
    returns no objective: besides the step test, only the hybrid fix sums
    its own squared residuals."""
    modules = parse_modules()

    def reading(name):
        return {f"{m}.{f}" for m, tree in modules.items() for f in readers(tree, name)}

    assert reading("GN_MAX_ITER") == {"estimators._gauss_newton"}
    assert reading("GN_STEP_TOL") == {"estimators._gauss_newton", "estimators._backtrack"}
    assert reading("GN_OBJECTIVE_RTOL") == {"estimators._backtrack"}
    assert readers(modules["estimators"], "_objective") == {"_backtrack",
                                                            "localize_point_hybrid"}


def test_one_pin_loop():
    """The congruent start pins nodes in one loop: in ``completion`` only
    the batched core calls the linearized fix, and the harness starts its
    completion trials from that core, not from the one-trial wrapper."""
    modules = parse_modules()
    for name in ("_linear_factor", "_apply_linear_factor"):
        assert readers(modules["completion"], name) == {"_congruent_fill_batch"}
    assert readers(modules["harness"], "_congruent_fill") == set()
    assert readers(modules["harness"], "_congruent_fill_batch") != set()


def test_one_copy_of_each_numeric_kernel():
    """The package's SVDs are the affine hull, the pseudo-inverse of the
    linearized fix's factor and the nearest proper rotation (Kabsch,
    ``Pose.from_matrix`` and the joint start, which solves its normal
    equations and reads one conditioning bound); the
    rotation exp map is the one ``np.sinc`` user; the velocity fit takes
    its rank from the solve instead of a second SVD; and one stacked
    helper, which ``Pose`` and the Monte-Carlo blocks call, checks
    rotations against the orthogonality tolerance."""
    modules = parse_modules()

    def users(name):
        return {f"{m}.{f}" for m, tree in modules.items() for f in readers(tree, name)}
    assert users("np.linalg.svd") == {"geometry.affine_basis", "geometry._pseudo_inverse",
                                      "geometry._proper_svd"}
    assert users("_pseudo_inverse") == {"geometry._linear_factor"}
    assert users("JOINT_START_RCOND") == {"estimators._joint_start"}
    assert users("np.sinc") == {"geometry._exp_rotations"}
    assert not users("np.linalg.matrix_rank") & {"estimators.estimate_motion",
                                                  "estimators._motion_fits"}
    assert users("ORTHOGONALITY_TOL") == {"geometry._check_poses"}


def test_one_stage_3_path():
    """Stages 1-2 and stage 3 each have one array core and one one-trial
    entry in ``estimators``: ``rbl_two_stage`` is the one reader of
    ``_two_stage`` there and ``relative_pose_anchorless`` the one reader
    of ``_refine``, with no list-of-estimates layer between them; the
    sweeps reach both cores through ``placement``'s block solvers."""
    modules = parse_modules()
    assert readers(modules["estimators"], "_pose_model") == {"_refine"}
    assert readers(modules["estimators"], "_two_stage") == {"rbl_two_stage"}
    assert readers(modules["estimators"], "_refine") == {"relative_pose_anchorless"}
    assert readers(modules["placement"], "_refine") == {"refined_block"}


def test_one_velocity_path():
    """The velocity fit has one array core, which ``estimate_motion``
    wraps: it and the stage-3 model are the two users of the range rows,
    and the motion sweep solves its blocks on the core, not through a
    per-trial adapter or the one-trial objects."""
    modules = parse_modules()
    assert {node.name for node in modules["estimators"].body
            if isinstance(node, ast.FunctionDef)
            and readers(node, "_rigid_range_rows")} == {"_pose_model", "_motion_fits"}
    assert not any(isinstance(node, ast.FunctionDef) and node.name == "one_at_a_time"
                   for node in ast.walk(modules["placement"]))
    for name in ("Pose", "BodyMotion", "estimate_motion", "simulate_range_rates"):
        assert readers(modules["harness"], name) == set(), name


def strings(tree):
    """(owner, value) of each string constant of ``tree`` that is not a
    docstring, the owner being the enclosing function's name or
    ``<module>``."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    found = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name)
                continue
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and id(child) not in docstrings):
                found.add((owner, child.value))
            walk(child, owner)

    walk(tree, "<module>")
    return found


def test_metric_fields_are_listed_once():
    """The results CSV and JSON, their reader and the placement CSV take
    their metric columns from the ``PlacementEvaluation`` and ``ResultRow``
    fields: outside docstrings, only the metrics ``emit_results`` plots are
    named in a string."""
    metrics = ("translation_rmse", "rotation_rmse", "translation_se", "rotation_se")
    naming = {(f"{module}.{owner}", value) for module, tree in parse_modules().items()
              for owner, value in strings(tree) if any(m in value for m in metrics)}
    assert naming == {("harness.emit_results", "translation_rmse"),
                      ("harness.emit_results", "rotation_rmse")}


def test_pattern_geometry_goes_through_the_cache():
    """In ``estimators`` the affine rank and the linear factor of an
    observation pattern's points are computed only by the cached helper;
    the stage-1 fix, the stage-2 rank check and the hybrid range start
    reach them through it."""
    tree = parse_modules()["estimators"]
    assert readers(tree, "affine_basis") == {"_cached_subset", "relative_pose_anchorless"}
    assert readers(tree, "_linear_factor") == {"_cached_subset"}
    assert readers(tree, "_cached_subset") == {"_subset_geometry"}
    assert readers(tree, "_subset_geometry") == {"_fix_columns", "_fit_poses",
                                                 "localize_point_hybrid"}


def test_repeated_frame_computes_no_pattern_geometry(monkeypatch):
    """A tracker re-localizing a body whose occlusion pattern repeats does
    no anchor-geometry SVD for it the second time."""
    anchors = harness.cube_anchor_layout(8)
    conf = harness.box_vehicle_conformation(14)
    rng = np.random.default_rng(3)
    body = apply_pose(conf, Pose(random_rotation(rng, 3), rng.uniform(-5, 5, 3)))
    ranges = simulate_ranges(anchors, body, 0.1, HullOcclusion(body), rng)
    assert not ranges.mask.all()
    first = rbl_two_stage(anchors, ranges, conf)
    calls = []
    real = estimators.affine_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(estimators, "affine_basis", counted)
    second = rbl_two_stage(anchors, ranges, conf)
    assert calls == []
    assert np.array_equal(first.pose.rotation, second.pose.rotation)
    assert np.array_equal(first.pose.translation, second.pose.translation)


def test_harness_defines_the_names_the_benchmark_patches():
    """``perfbench/workloads.py`` patches package functions by name, as
    ``(alias, "<name>", ...)`` tuples whose alias is bound to a package
    module, as in ``h, e = rigidloc.harness, rigidloc.estimators``; a
    refactor that drops one of those names breaks ``perfbench --trace``."""
    tree = ast.parse(WORKLOADS.read_text())
    modules = {f"rigidloc.{name}" for name in parse_modules()}
    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = zip(target.elts, node.value.elts) \
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple) \
                else [(target, node.value)]
            for name, value in pairs:
                module = ast.unparse(value)
                if isinstance(name, ast.Name) and module in modules:
                    assert aliases.setdefault(name.id, module) == module
    patched = {(aliases[node.elts[0].id], node.elts[1].value)
               for node in ast.walk(tree)
               if isinstance(node, ast.Tuple) and len(node.elts) > 1
               and isinstance(node.elts[0], ast.Name) and node.elts[0].id in aliases
               and isinstance(node.elts[1], ast.Constant)}
    assert {module for module, _ in patched} == {"rigidloc.harness", "rigidloc.estimators",
                                                 "rigidloc.measurement"}
    assert patched >= {("rigidloc.harness", "complete_edm"),
                       ("rigidloc.estimators", "multilaterate"),
                       ("rigidloc.measurement", "line_of_sight_blocked")}
    assert {(module, name) for module, name in patched
            if not hasattr(importlib.import_module(module), name)} == set()


def test_benchmark_gate_catches_a_wrong_completion_pose(monkeypatch):
    """The noiseless gate of the benchmark's ``mc_completion`` workload
    flags a 1 mm error in the poses the completion path returns. (Stage 3
    absorbs a stage-1 error, so that is where a broken estimator shows.)"""
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))
    workloads = importlib.import_module("workloads")
    gate = workloads.build("mc_completion", 3, workloads.SMOKE)
    assert gate.spot_check() == []
    real = harness.refined_block

    def shifted(*args):
        (rotations, translations), failed = real(*args)
        return (rotations, translations + 1e-3), failed
    monkeypatch.setattr(harness, "refined_block", shifted)
    assert any("pose error" in problem for problem in gate.spot_check())
