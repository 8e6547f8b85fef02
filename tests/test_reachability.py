"""No dead library surface: definitions, constants and parameters.

Three rules, each over ``src/repro``:

* *Definitions.* Every def/class is reached: its name appears as an
  identifier (a name or an attribute) in ``src/``, ``examples/`` or
  ``benchmarks/``, outside the definition's own body.  A class whose only
  mention is in its own methods is dead.
* *Constants.* Every module-level UPPER_CASE constant is read the same
  way, outside its own assignment.
* *Parameters.* Every defaulted parameter of a def is passed, by position
  or by keyword, by at least one call in ``src/``, ``examples/``,
  ``benchmarks/`` or ``tests/``.  Calls match by name, like identifiers;
  a class call, ``super().__init__(...)`` and ``cls(...)`` in a
  classmethod bind to ``__init__``, an import alias to the imported name
  and ``TABLE[key](...)`` to the module dict's entry.  A def some call
  reaches with ``*args`` / ``**kwargs``, or that is stored as a value (a
  dict entry nobody calls by subscript, a ``functools.partial``), is
  skipped: its callers cannot be read.

Docstrings, comments, ``__all__`` lists and import lines are not
identifiers.  Tests do not count for definitions and constants: one only
its own tests reach is dead.  They do count for parameters: a parameter
only a test passes is that test's way into a non-default branch, so
deleting it deletes tested behaviour, which is a separate decision.
``KEEP`` and ``KEEP_PARAMS`` list the exceptions, each with its reason,
and must hold no name that is reached or parameter that is passed.
"""

import ast
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



# -- parameters ---------------------------------------------------------------

KEEP_PARAMS: dict = {}


def _name(node):
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None)


def _parents(tree) -> dict:
    return {child: node for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)}


def _enclosing(parents: dict, node, kind):
    while node in parents:
        node = parents[node]
        if isinstance(node, kind):
            return node
    return None


def _calls():
    """What every call in the scanned trees may bind to.

    Returns ``(calls, stored, bases, inits)``: per callee name, ``[most
    positional arguments, keywords, hidden]`` where ``hidden`` marks a
    call with ``*args`` or ``**kwargs``; the names stored as values; each
    class's base names; and the classes that define ``__init__``.
    """
    trees = [ast.parse(path.read_text(), str(path))
             for top in ("src", "examples", "benchmarks", "tests")
             for path in sorted((ROOT / top).rglob("*.py"))]
    aliases, bases, inits, tables, stored = {}, {}, set(), {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                aliases.update((a.asname, a.name) for a in node.names if a.asname)
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = {_name(b) for b in node.bases} - {None}
                if any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                       for item in node.body):
                    inits.add(node.name)
            elif isinstance(node, ast.Dict):
                stored.update(map(_name, node.values))
            elif isinstance(node, ast.Call) and _name(node.func) == "partial":
                stored.update(map(_name, node.args[:1]))
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and isinstance(node.targets[0], ast.Name)):
                tables[node.targets[0].id] = {
                    key.value: _name(value) for key, value
                    in zip(node.value.keys, node.value.values)
                    if isinstance(key, ast.Constant)}
    calls: dict = {}
    for tree in trees:
        parents = _parents(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, names = call.func, set()
            if isinstance(func, ast.Name):
                names = {func.id, aliases.get(func.id, func.id)}
                method = _enclosing(parents, call, ast.FunctionDef)
                if (func.id == "cls" and method is not None
                        and "classmethod" in map(_name, method.decorator_list)):
                    names.add(_enclosing(parents, method, ast.ClassDef).name)
            elif isinstance(func, ast.Attribute):
                names = {func.attr}
                if (func.attr == "__init__" and isinstance(func.value, ast.Call)
                        and _name(func.value.func) == "super"):
                    names = bases[_enclosing(parents, call, ast.ClassDef).name]
            elif isinstance(func, ast.Subscript) and _name(func.value) in tables:
                table, key = tables[_name(func.value)], func.slice
                stored -= set(table.values())
                names = ({table[key.value]} if isinstance(key, ast.Constant)
                         else set(table.values()))
            hidden = (any(isinstance(arg, ast.Starred) for arg in call.args)
                      or any(kw.arg is None for kw in call.keywords))
            for name in names:
                entry = calls.setdefault(name, [0, set(), False])
                entry[0] = max(entry[0], len(call.args))
                entry[1].update(kw.arg for kw in call.keywords)
                entry[2] |= hidden
    return calls, stored, bases, inits


def _defaulted(node, offset: int):
    """``(name, position or None)`` per defaulted parameter of ``node``,
    positions counted after the first ``offset`` (``self`` / ``cls``)."""
    args = node.args
    positional = (args.posonlyargs + args.args)[offset:]
    first = len(positional) - len(args.defaults)
    for index in range(max(first, 0), len(positional)):
        yield positional[index].arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _callee_names(node, owner, subclasses: dict, inits: set):
    """``(names a call to node goes by, leading parameters it skips)``."""
    if not isinstance(owner, ast.ClassDef):
        return {node.name}, 0
    if node.name != "__init__":
        return {node.name}, int("staticmethod" not in map(_name, node.decorator_list))
    names, todo = set(), [owner.name]
    while todo:  # a subclass without its own __init__ is called into this one
        names.add(todo[-1])
        todo.extend(subclasses.get(todo.pop(), set()) - inits - names)
    return names, 1


def test_every_library_parameter_is_passed():
    calls, stored, bases, inits = _calls()
    subclasses: dict = {}
    for name, parents in bases.items():
        for parent in parents:
            subclasses.setdefault(parent, set()).add(name)
    unpassed, kept = [], set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = _parents(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = parents.get(node)
            names, offset = _callee_names(node, owner, subclasses, inits)
            entries = [calls[name] for name in names if name in calls]
            if names & stored or any(hidden for _, _, hidden in entries):
                continue
            qualname = (f"{owner.name}.{node.name}"
                        if isinstance(owner, ast.ClassDef) else node.name)
            for param, position in _defaulted(node, offset):
                if any(param in keywords
                       or (position is not None and most > position)
                       for most, keywords, _ in entries):
                    continue
                key = f"{qualname}({param})"
                if key in KEEP_PARAMS:
                    kept.add(key)
                else:
                    unpassed.append(f"{path.relative_to(ROOT)}:{node.lineno} {key}")
    assert not unpassed, ("no call passes (make it a constant, or KEEP_PARAMS "
                          "with a reason):\n" + "\n".join(unpassed))
    assert kept == set(KEEP_PARAMS), (
        f"KEEP_PARAMS entries that are passed or gone: {set(KEEP_PARAMS) - kept}")
