"""No dead library code: every def/class in ``src/repro`` must be reached.

Reached means the name appears as an identifier (a name or an attribute)
in ``src/``, ``examples/`` or ``benchmarks/``, outside the definition's
own body: a class whose only mention is in its own methods is dead.  The
same holds for every module-level UPPER_CASE constant: one that nothing
reads outside its own assignment is dead.
Docstrings, comments, ``__all__`` lists and import lines are not
identifiers, and tests do not count: a definition only its own tests
reach is dead.  ``KEEP`` lists the exceptions, each with its reason, and
must hold no name that is reached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEEP = {
    "area_overhead_mm2": "a test asserts the paper's Sec. V GU area (~0.048 mm^2)",
    "streaming_execution_order": "oracle for the reordering-equivalence tests",
    "simulate_groups": "reference for BankedSRAM.simulate_groups_fast",
    "project_points": "oracle for the depth-lift round trip",
    "save_arrival_trace": "writer half of the --arrival-trace format",
    "save_pose_log": "writer half of the pose-log format replay reads",
    "reset_caches": "keeps tests isolated from each other",
    "query": "Field.query: per-sample oracle of the reordering integration test",
    "render_pixels": "sparse renders checked against full frames (compose_pixels)",
    "level_of": "test instrument: a governed session's current tier",
    "primary": "test instrument: ShardMap's first replica",
    "rotation_x": "test instrument: builds test poses",
    "rotation_y": "test instrument: builds test poses",
    "rotation_z": "test instrument: builds test poses",
    "rotation_angle_deg": "test instrument: checks pose extrapolation",
    "translation_distance": "test instrument: checks trajectories",
    "is_rotation_matrix": "test instrument: checks every generated pose",
    "void_fraction": "test instrument: checks disocclusion classification",
    "diffuse_radiance": "test instrument: ground truth for the field decode tests",
    "occupancy_rate": "test instrument: checks the baked occupancy grid",
    "frame_interval": "test instrument: a trajectory's 1 / fps",
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*$")


def _tree(path: Path):
    return ast.walk(ast.parse(path.read_text(), str(path)))


def _uses() -> dict:
    """Identifier -> every ``(path, line)`` it appears at."""
    uses: dict = {}
    for top in ("src", "examples", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            for node in _tree(path):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    uses.setdefault(name, []).append((path, node.lineno))
    return uses


def _constants(path: Path):
    """``(name, assignment)`` per module-level UPPER_CASE constant."""
    for node in ast.parse(path.read_text(), str(path)).body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and CONSTANT.match(name.id):
                    yield name.id, node


def _reached(uses: dict, path: Path, name: str, node) -> bool:
    """Whether ``name`` appears anywhere but inside ``node``'s own lines."""
    return any(use_path != path or not node.lineno <= line <= node.end_lineno
               for use_path, line in uses.get(name, ()))


def test_every_library_definition_is_reached():
    uses = _uses()
    dead = [f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            for node in _tree(path)
            if isinstance(node, DEFS) and node.name not in KEEP
            and not _reached(uses, path, node.name, node)
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert not dead, "unreached (delete, or KEEP with a reason):\n" + "\n".join(dead)
    assert not set(KEEP) & set(uses), f"KEEP names that are reached: {set(KEEP) & set(uses)}"


def test_every_library_constant_is_read():
    uses = _uses()
    dead = [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            for name, node in _constants(path)
            if name not in KEEP and not _reached(uses, path, name, node)]
    assert not dead, "unread (delete, or KEEP with a reason):\n" + "\n".join(dead)
