#!/usr/bin/env python
"""What the project's own traffic never calls, and what it never sets.

    python tools/traffic.py

Runs the traffic the project ships, in this process and under a trace
hook, and prints two lists:

* *never called*: the ``src/repro`` functions none of it called;
* *never set*: the data surface none of it set to a value other than the
  default.  That is every ``RunConfig`` field (the generated CLI flags
  and the wire keys), every ``WorkloadSpec`` field of a spec that gets
  built, and every defaulted parameter of a called ``src/repro``
  function, including those only ``**kwargs`` reach (trajectory and
  arrival parameters).  A parameter of a function the first list names
  is not listed again.

Both lists are compared against ``tools/traffic_expected.txt``, which
names each entry with its keep category; any difference, or an entry
without a known category, exits 1.  This is the project's one run list,
and CI's smoke job runs it and nothing else.  The traffic is:

* every figure at ``--fast``, the serve, mixed-serve, cluster, traced
  serve and cluster, pool-backend, self-hosted ``loadgen``,
  ``reconcile`` and ``--catalog 80`` fleet runs (with and without the
  shard tier), ``trace analyze``, and the flag variants those leave out
  (deadline scheduler, ray budget, static and adaptive governors,
  ``--no-cache``, diurnal and deterministic arrivals, autoscaling with
  and without the shard tier, round-robin placement);
* ``serve-live`` in a child process, driven by ``loadgen --connect``
  from this one;
* both checked-in experiment tables (``frontier-fast.json`` is the
  governor x offered-load sweep), the quick one resumed after losing
  two cells;
* every ``examples/*.py``;
* every ``benchmarks/e2e`` workload at ``--smoke`` scale, two of them
  traced;
* checks: the pool and ``--no-cache`` numpy serves report the same
  sessions, and ``trace analyze`` prints its event census and engine
  round occupancy.

Each run's output (stdout and stderr) goes to its own log under
``bench-artifacts/traffic/logs``, beside the artifacts the runs write;
the directory is emptied first.  A failing run or check exits 1 with its
label and the tail of its log.

An entry stays only in one of the keep categories ``docs/architecture.md``
("What the library keeps") names: a CLI choice or error path, an oracle
a test compares against, surface the frozen e2e driver pins, a seam a
test passes a fake or a smaller bound through, code the recorder cannot
see, or a deployment setting.

What it cannot see: code that runs in another process.  Forked pool
workers (``--backend parallel``) render in children, and ``serve-live``
runs as a subprocess here and in the live e2e workloads; the
self-hosted ``loadgen`` runs cover the server in-process.  Run it on a
git checkout (outside one, ``perf/envinfo.py``'s ``.git`` readers go
uncalled).  A full run takes several minutes on 2 vCPUs.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import dataclasses
import gc
import importlib.util
import io
import json
import os
import re
import runpy
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
LIBRARY = REPO_ROOT / "src" / "repro"
EXPECTED = REPO_ROOT / "tools" / "traffic_expected.txt"
# Where the runs' logs and artifacts go (gitignored; emptied per run).
OUT = REPO_ROOT / "bench-artifacts" / "traffic"
TAIL_LINES = 20  # of a failing run's log, in the exit message
READY_TIMEOUT_S = 60.0  # for the serve-live child to listen
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
# The keep categories of docs/architecture.md ("What the library keeps").
CATEGORIES = ("choice", "oracle", "pinned", "seam", "unseen", "deployment")
# The two dataclasses whose fields are the data surface, by the library
# method that sees them set: RunConfig's keyword fields, and a built
# WorkloadSpec (its generated __init__ is not library code).
FIELD_OWNERS = {(str(LIBRARY / "harness" / "runconfig.py"), "__init__"):
                "RunConfig",
                (str(LIBRARY / "workloads" / "spec.py"), "__post_init__"):
                "WorkloadSpec"}


# One src/repro function: its file (relative to the repository root),
# the line of its def, its dotted name and its defaulted parameters.
Def = collections.namedtuple("Def", "path line qualname defaulted")


def library_defs() -> dict:
    """``(file, first line, name)`` -> :class:`Def` per function of
    ``src/repro``; the first line is a decorator's, as in the code
    object."""
    found = {}
    for path in sorted(LIBRARY.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owners = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            names, owner = [node.name], owners.get(node)
            while owner is not None:
                if isinstance(owner, (ast.ClassDef, *DEFS)):
                    names.insert(0, owner.name)
                owner = owners.get(owner)
            first = min([node.lineno]
                        + [each.lineno for each in node.decorator_list])
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = [arg.arg for arg
                         in positional[len(positional) - len(args.defaults):]]
            defaulted += [arg.arg for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
            found[(str(path), first, node.name)] = Def(
                str(path.relative_to(REPO_ROOT)), node.lineno,
                ".".join(names), tuple(defaulted))
    return found


def library_fields() -> tuple:
    """``"Owner.field"`` per defaulted field of the data-surface
    dataclasses (``RunConfig``'s are its section fields)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.harness.runconfig import MODES, config_fields
    from repro.workloads import WorkloadSpec
    names = {f"RunConfig.{field.name}" for mode in MODES
             for field in config_fields(mode)}
    names |= {f"WorkloadSpec.{field.name}"
              for field in dataclasses.fields(WorkloadSpec)
              if field.default is not dataclasses.MISSING}
    return tuple(sorted(names))


def _differs(value, default) -> bool:
    """Whether ``value`` is something other than ``default``."""
    if value is default:
        return False
    try:
        return not bool(value == default)
    except (TypeError, ValueError):  # an array compares elementwise
        return True


def _defaults(code) -> dict:
    """``{parameter: default}`` of the live function behind ``code``
    (empty for one the collector cannot find)."""
    for function in gc.get_referrers(code):
        if getattr(function, "__code__", None) is code:
            names = code.co_varnames[:code.co_argcount]
            defaults = function.__defaults__ or ()
            return {**dict(zip(names[len(names) - len(defaults):],
                               defaults)),
                    **(function.__kwdefaults__ or {})}
    return {}


class Surface:
    """What the traffic sets: per code object, the defaulted parameters
    still at their default, and the fields set on the two dataclasses."""

    def __init__(self):
        self.pending: dict = {}  # code -> {parameter: default}
        self.set: set = set()  # (file, first line, name, parameter)
        self.fields: set = set()  # "Owner.field"

    def note(self, frame, key) -> None:
        """Record the arguments of one library call at its ``call``
        event, before the body rebinds them."""
        code = frame.f_code
        pending = self.pending.get(code)
        if pending is None:
            pending = self.pending[code] = _defaults(code)
        owner = FIELD_OWNERS.get((code.co_filename, code.co_name))
        if not pending and owner is None:
            return
        arguments = frame.f_locals
        for name, default in list(pending.items()):
            if _differs(arguments[name], default):
                self.set.add((*key, name))
                del pending[name]
        if owner == "RunConfig":
            fields = frame.f_globals["_FIELDS"]
            self.fields.update(
                f"RunConfig.{name}"
                for name, value in arguments["fields"].items()
                if _differs(value, fields[name].default))
        elif owner == "WorkloadSpec":
            spec = arguments["self"]
            self.fields.update(
                f"WorkloadSpec.{field.name}"
                for field in dataclasses.fields(spec)
                if field.default is not dataclasses.MISSING
                and _differs(getattr(spec, field.name), field.default))


def record(commands, out: Path) -> tuple:
    """Run each ``(label, thunk)`` under a trace hook; return the
    ``(file, first line, name)`` of every library function called and
    the :class:`Surface` the calls set.

    Each run's stdout and stderr go to its log, ``out/logs/NN.txt`` for
    the NNth run.  A thunk returns its exit code; a non-zero one, or an
    exception (a failed check raises ``AssertionError``), exits with the
    run's label and the tail of its log: traffic that fails reaches code
    no working run does.
    """
    called, library, surface = set(), str(LIBRARY), Surface()
    (out / "logs").mkdir(parents=True, exist_ok=True)

    def hook(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(library):
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            called.add(key)
            surface.note(frame, key)
        return None  # no per-line tracing

    for number, (label, thunk) in enumerate(commands, 1):
        log = out / "logs" / f"{number:02d}.txt"
        previous = sys.gettrace(), threading.gettrace()
        # Line-buffered, so a forked pool worker inherits no pending text.
        with log.open("w", buffering=1) as stream, \
                contextlib.redirect_stdout(stream), \
                contextlib.redirect_stderr(stream):
            print(f"$ {label}")
            threading.settrace(hook)
            sys.settrace(hook)
            try:
                code = thunk()
            except SystemExit as stop:  # an argparse usage error
                code = stop.code
            except Exception:
                traceback.print_exc()
                code = 1
            finally:
                sys.settrace(previous[0])
                threading.settrace(previous[1])
        if code:
            tail = log.read_text().splitlines()[-TAIL_LINES:]
            raise SystemExit("\n".join(
                [f"traffic: {label} exited {code}; the tail of {log}:",
                 *tail]))
        print(f"ran {log.name} {label}", file=sys.stderr)
    return called, surface


def never_called(called: set) -> list:
    """``"file qualname"`` per library function ``called`` misses, in
    file and source order."""
    defs = sorted(library_defs().items(),
                  key=lambda item: (item[1].path, item[1].line))
    return [f"{each.path} {each.qualname}" for key, each in defs
            if key not in called]


def never_set(called: set, surface: Surface) -> list:
    """The data surface ``surface`` never set: ``"Owner.field"`` per
    dataclass field, then ``"file qualname(parameter)"`` per defaulted
    parameter of a called function, in file and source order."""
    unset = [name for name in library_fields()
             if name not in surface.fields]
    defs = sorted(library_defs().items(),
                  key=lambda item: (item[1].path, item[1].line))
    unset += [f"{each.path} {each.qualname}({name})"
              for key, each in defs if key in called
              for name in each.defaulted if (*key, name) not in surface.set]
    return unset


def load_expected(path: Path = EXPECTED) -> dict:
    """``section -> {entry: category}`` from the checked-in list, whose
    lines read ``SECTION: ENTRY | CATEGORY`` (``#`` starts a comment)."""
    expected: dict = {"never called": {}, "never set": {}}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        section, _, rest = line.partition(": ")
        entry, _, category = (part.strip() for part in rest.partition("|"))
        if section not in expected or category not in CATEGORIES:
            raise SystemExit(f"{path.name}:{number}: expected 'never called"
                             f"|never set: ENTRY | CATEGORY' with CATEGORY "
                             f"one of {', '.join(CATEGORIES)}; got {line!r}")
        expected[section][entry] = category
    return expected


def compare(report: dict, expected: dict) -> list:
    """One line per entry the report and the expected list disagree on."""
    problems = []
    for section, entries in report.items():
        listed = expected[section]
        problems += [f"{section}, not in {EXPECTED.name}: {entry}"
                     for entry in entries if entry not in listed]
        problems += [f"{EXPECTED.name} lists, but no longer {section}: "
                     f"{entry}" for entry in listed if entry not in entries]
    return problems


def cli(*argv):
    """A thunk running ``python -m repro.harness.cli ARGV``.

    The import happens inside the thunk, so the first run also records
    what importing the library calls.
    """
    def run():
        from repro.harness.cli import main
        return main(list(argv))
    return " ".join(argv), run


def _example(path: Path):
    def run():
        runpy.run_path(str(path), run_name="__main__")
        return 0
    return f"examples/{path.name}", run


def _e2e(workload: str, out: Path, trace: bool = False):
    def run():
        spec = importlib.util.spec_from_file_location(
            "e2e_run", REPO_ROOT / "benchmarks" / "e2e" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main(["--workload", workload, "--seed", "3", "--smoke",
                            "--trace", str(int(trace)), "--out", str(out)])
    return f"e2e {workload}{' (traced)' if trace else ''}", run


def _printing(run, *headings):
    """``run``, failing unless its stdout shows each of ``headings``."""
    label, thunk = run

    def checked():
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = thunk()
        print(text.getvalue(), end="")
        missing = [each for each in headings if each not in text.getvalue()]
        if missing:
            raise AssertionError(f"the output lacks {missing}")
        return code
    return label, checked


def _same_sessions(pool: Path, numpy: Path):
    """A check that two ``serve`` artifacts report the same sessions.

    Only the reference-cache bookkeeping may differ: the numpy run has
    ``--no-cache``.
    """
    def check():
        a, b = (json.loads((side / "BENCH_serve.json").read_text())
                for side in (pool, numpy))
        if a["rows"] != b["rows"]:
            raise AssertionError("per-session rows differ")
        differ = {key for key in a["extra"].keys() | b["extra"].keys()
                  if a["extra"].get(key) != b["extra"].get(key)}
        unexpected = sorted(key for key in differ - {"cache", "cache_enabled"}
                            if not key.startswith("ref_cache_"))
        if unexpected:
            raise AssertionError(f"extra blocks differ in {unexpected}")
        print("rows equal; extra differs only in", sorted(differ))
        return 0
    return "check: the pool and numpy serves report the same sessions", check


@contextlib.contextmanager
def live_server(log: Path, *flags):
    """``serve-live --fast --port 0 FLAGS`` in a child process writing
    ``log``; yields the child and the ``HOST:PORT`` it listens on, and
    reaps it on every exit path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")))))
    with log.open("w") as stream:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve-live",
             "--fast", "--port", "0", *flags],
            env=env, stdout=stream, stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not (found := re.search(r"listening on (\S+:\d+)",
                                      log.read_text())):
            if server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"serve-live not listening: "
                                   f"{log.read_text()!r}")
            time.sleep(0.1)
        yield server, found.group(1)
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def _connected_loadgen(out: Path):
    """``loadgen --connect`` in this process against a ``serve-live``
    child."""
    def run():
        out.mkdir(parents=True, exist_ok=True)
        with live_server(out / "serve-live.txt", "--governor", "static",
                         "--slo", "30") as (_, address):
            return cli("loadgen", "--fast", "--connect", address, "--rate",
                       "3", "--duration", "1", "--seed", "7", "--frames",
                       "3", "--time-scale", "0.2", "--json-out",
                       str(out))[1]()
    return "loadgen --connect to serve-live (a child process)", run


def commands(out: Path) -> list:
    """The traffic: ``(label, thunk)`` per run or check, artifacts under
    ``out``."""
    mix = ("dolly-chair,orbit-ngp,orbit-tensorf,preview-ship,"
           "sparse-ignatius,vr-headshake,vr-lego,walk-materials")
    fleet = ("--rate", "10", "--duration", "10", "--workers", "4",
             "--queue-limit", "10", "--frames", "2", "--seed", "7")
    quick = str(REPO_ROOT / "examples" / "experiments" / "quick.json")
    frontier = str(REPO_ROOT / "examples" / "experiments"
                   / "frontier-fast.json")
    trace = str(out / "trace" / "cluster.trace.json")
    variants = str(out / "variants")

    def resume():
        for name in ("cells/BENCH_quick_cell001.json",
                     "cells/BENCH_quick_cell003.json",
                     "BENCH_experiment.json"):
            (out / "quick" / name).unlink()
        return cli("experiment", "--table", quick, "--out",
                   str(out / "quick"), "--resume", "--fast")[1]()

    runs = [
        cli("workloads"),
        cli("all", "--fast", "--json-out", str(out / "figures")),
        cli("serve", "--sessions", "8", "--fast", "--json-out",
            str(out / "serve")),
        cli("serve", "--fast", "--frames", "6", "--workload", "vr-lego:3",
            "--workload", "vr-headshake", "--workload", "dolly-chair:2",
            "--workload", "orbit-ngp", "--json-out", str(out / "serve")),
        cli("cluster", "--fast", "--arrivals", "poisson", "--rate", "1.5",
            "--duration", "8", "--workers", "3", "--placement",
            "cache_affinity", "--frames", "3", "--seed", "0",
            "--json-out", str(out / "cluster")),
        cli("serve", "--fast", "--frames", "4", "--seed", "0", "--workload",
            "vr-lego:2", "--workload", "dolly-chair", "--backend",
            "parallel", "--engine-workers", "2", "--json-out",
            str(out / "trace"), "--trace",
            str(out / "trace" / "serve.trace.json")),
        cli("cluster", "--fast", "--workload", "vr-lego:3,dolly-chair:2",
            "--arrivals", "poisson", "--rate", "6", "--duration", "4",
            "--workers", "1", "--queue-limit", "2", "--frames", "6",
            "--governor", "adaptive", "--slo", "30", "--seed", "7",
            "--json-out", str(out / "trace"), "--trace", trace),
        _printing(cli("trace", "analyze", trace, "--top", "5"),
                  "event census", "engine round occupancy"),
        cli("serve", "--fast", "--sessions", "4", "--frames", "3", "--seed",
            "7", "--backend", "parallel", "--engine-workers", "2",
            "--json-out", str(out / "pool")),
        cli("serve", "--fast", "--sessions", "4", "--frames", "3", "--seed",
            "7", "--no-cache", "--json-out", str(out / "numpy")),
        _same_sessions(out / "pool", out / "numpy"),
        _connected_loadgen(out / "realserve" / "standalone"),
        cli("loadgen", "--fast", "--rate", "3", "--duration", "2", "--seed",
            "7", "--frames", "3", "--time-scale", "0.2", "--json-out",
            str(out / "realserve")),
        cli("reconcile", "--input",
            str(out / "realserve" / "BENCH_realserve.json"),
            "--json-out", str(out / "realserve")),
        cli("loadgen", "--fast", "--governor", "static", "--slo", "30",
            "--no-cache", "--rate", "3", "--duration", "1", "--seed", "7",
            "--frames", "3", "--time-scale", "0.2", "--json-out",
            str(out / "realserve" / "static")),
        cli("reconcile", "--input",
            str(out / "realserve" / "static" / "BENCH_realserve.json"),
            "--json-out", str(out / "realserve" / "static")),
        cli("experiment", "--table", quick, "--out", str(out / "quick")),
        ("experiment --resume", resume),
        cli("experiment", "--table", frontier, "--out",
            str(out / "frontier")),
        cli("cluster", "--fast", "--workload", mix, "--catalog", "80",
            "--zipf", "1.3", "--replication", "2", "--placement",
            "shard_affinity", "--arrivals", "poisson", *fleet,
            "--json-out", str(out / "shard")),
        cli("cluster", "--fast", "--workload", mix, "--catalog", "80",
            "--zipf", "1.3", "--replication", "0", "--placement",
            "least_loaded", "--arrivals", "poisson", *fleet,
            "--json-out", str(out / "shard" / "baseline")),
        # Flag variants the runs above leave out.
        cli("serve", "--fast", "--sessions", "4", "--frames", "4",
            "--scheduler", "deadline"),
        cli("serve", "--fast", "--sessions", "4", "--frames", "4",
            "--ray-budget", "2000", "--governor", "adaptive", "--slo", "60"),
        cli("serve", "--fast", "--sessions", "160", "--frames", "8",
            "--governor", "adaptive", "--slo", "200"),  # sessions retune
        cli("serve", "--fast", "--frames", "3", "--workload",
            "walk-materials", "--governor", "static"),
        cli("cluster", "--fast", "--arrivals", "diurnal", "--rate", "3",
            "--duration", "4", "--frames", "2", "--seed", "3",
            "--json-out", variants),
        cli("cluster", "--fast", "--arrivals", "deterministic", "--rate",
            "2", "--duration", "3", "--frames", "2", "--placement",
            "round_robin", "--no-cache", "--seed", "3",
            "--json-out", variants),
        cli("cluster", "--fast", "--autoscale", "--workers", "2",
            "--min-workers", "2", "--max-workers", "3", "--queue-limit",
            "2", "--scale-up-latency", "0.5", "--rate", "8", "--duration",
            "3", "--frames", "2", "--json-out", variants),
        cli("cluster", "--fast", "--workload", "vr-lego,dolly-chair",
            "--catalog", "8", "--autoscale", "--workers", "2",
            "--max-workers", "4", "--rate", "8", "--duration", "3",
            "--frames", "2", "--json-out", variants),  # scales down
    ]
    runs += [_example(path)
             for path in sorted((REPO_ROOT / "examples").glob("*.py"))]
    runs += [_e2e(workload, out / "e2e")
             for workload in ("solo_sparw", "solo_dense", "serve_mix",
                              "serve_par2", "live_closed", "live_open",
                              "cluster_sim")]
    runs += [_e2e("solo_sparw", out / "e2e", trace=True),
             _e2e("cluster_sim", out / "e2e", trace=True)]
    return runs


def main() -> int:
    """Record the traffic, print what it never called and never set, and
    exit 1 unless that is what ``tools/traffic_expected.txt`` lists."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    expected = load_expected()
    shutil.rmtree(OUT, ignore_errors=True)  # a rerun starts clean
    OUT.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(OUT)  # whatever a run writes by default lands here
    try:
        called, surface = record(commands(OUT), OUT)
    finally:
        os.chdir(previous)
    report = {"never called": never_called(called),
              "never set": never_set(called, surface)}
    for section, entries in report.items():
        print(f"\n{section}: {len(entries)}")
        for entry in entries:
            category = expected[section].get(entry, "?")
            print(f"  {entry} | {category}")
    problems = compare(report, expected)
    print("\n" + "\n".join(problems) if problems else
          f"\nboth lists match {EXPECTED.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
