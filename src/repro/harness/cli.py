"""Command-line experiment runner.

Run any figure reproduction, the multi-session serving workload, or the
open-loop cluster simulator from a shell::

    python -m repro.harness.cli fig07
    python -m repro.harness.cli fig19 --fast
    python -m repro.harness.cli all --fast --json-out bench-artifacts
    python -m repro.harness.cli serve --sessions 8 --fast
    python -m repro.harness.cli workloads
    python -m repro.harness.cli serve --fast \\
        --workload vr-lego:3 --workload dolly-chair:2
    python -m repro.harness.cli cluster --fast --arrivals poisson \\
        --rate 1.5 --duration 8 --workers 4 --placement cache_affinity
    python -m repro.harness.cli cluster --fast --governor adaptive \\
        --slo 2000 --rate 40 --duration 1 --workers 1 --queue-limit 2
    python -m repro.harness.cli experiment --table examples/experiments/quick.json
    python -m repro.harness.cli experiment \\
        --table examples/experiments/frontier-fast.json
    python -m repro.harness.cli experiment --table t.json --resume --out runs
    python -m repro.harness.cli cluster --fast --trace run.trace.json
    python -m repro.harness.cli trace analyze run.trace.json --top 20
    python -m repro.harness.cli serve-live --fast --port 7070
    python -m repro.harness.cli loadgen --fast --rate 3 --duration 2 \\
        --seed 7 --frames 4 --time-scale 0.2
    python -m repro.harness.cli reconcile \\
        --input bench-artifacts/BENCH_realserve.json

Every command is its own subparser taking only its own flags (``cli
COMMAND --help`` lists them; a flag of another command is an argparse
``unrecognized arguments`` error, exit 2).  The serve / cluster /
live-server flags are generated from the :mod:`.runconfig` section
fields, so a flag, its help, its range and its default are declared
once, there.
``--fast`` uses the reduced test-scale configuration (seconds per figure);
the default scale matches the benchmarks (minutes for the quality figures).
``--json-out DIR`` persists every run's rows as ``BENCH_<figure>.json`` so
automated runs leave machine-readable perf history.  ``serve --workload
NAME[:N]`` mixes named workload specs (see the ``workloads`` command) into
one heterogeneous serve with the shared cross-session reference cache.
``cluster`` runs sessions *arriving over time* against a fleet of SoC
workers with admission control, placement, and optional autoscaling;
``--seed`` makes every stochastic run reproducible.  ``experiment``
executes a factorial run table of such cells (``--table table.json``,
``--resume`` to complete an interrupted run; see docs/experiments.md);
``frontier-fast.json`` is the governor x offered-load sweep.
``--trace PATH`` records any serve/cluster/experiment/loadgen run as
Chrome Trace Event JSON, and ``trace analyze PATH`` summarises such a
trace from the artifact alone (see docs/observability.md).
``serve-live`` binds the real asyncio frame server on a TCP port;
``loadgen`` replays a seeded arrival schedule against it over real
sockets (self-hosting a server unless ``--connect`` targets a running
one) and writes measured wall-clock quantiles to
``BENCH_realserve.json``; ``reconcile`` diffs that artifact against a
matched cluster-simulator prediction (see docs/serving-guide.md).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from ..workloads import list_workloads
from .configs import DEFAULT, FAST
from .figures import EXPERIMENTS
from .reporting import print_table, write_bench_json
from .runconfig import (
    RunConfig,
    RunConfigError,
    config_fields,
    effective_default,
)
from .runner import ExperimentTable, execute_cell, run_table

# Where the commands that always persist their run write it by default.
ARTIFACT_DIR = "bench-artifacts"

# The server-side knobs 'serve-live' takes (the connecting client picks
# workloads, frames and the schedule).
SERVE_LIVE_FIELDS = ("governor", "slo_fps", "use_cache", "host", "port")


def _existing_dir_or_new(text: str) -> str:
    if Path(text).exists() and not Path(text).is_dir():
        raise argparse.ArgumentTypeError(
            f"{text!r} exists and is not a directory")
    return text


def _host_port(text: str) -> tuple:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or not 0 < int(port) <= 65535:
        raise argparse.ArgumentTypeError(f"bad {text!r}; expected HOST:PORT")
    return host, int(port)


def add_config_options(sub, mode: str, only=None) -> None:
    """Generate one flag per field of the sections a ``mode`` cell takes.

    Each flag's ``dest`` is its field name and its default is
    ``SUPPRESS``, so the parsed namespace holds exactly the fields the
    user set (see :func:`cell_from_args`).  ``only`` restricts the
    command to a subset of the fields.
    """
    for field in config_fields(mode):
        if only is not None and field.name not in only:
            continue
        meta = field.metadata
        default = effective_default(field.name, mode)
        if default is None or isinstance(default, bool):
            default = meta.get("unset")
        kwargs = {"dest": field.name, "default": argparse.SUPPRESS,
                  "help": meta["help"] + ("" if default is None
                                          else f" (default {default})")}
        if "const" in meta:
            kwargs.update(action="store_const", const=meta["const"])
        else:
            kwargs.update({key: meta[key] for key in
                           ("type", "choices", "metavar") if key in meta})
            if "choices" not in meta:
                kwargs.setdefault(
                    "metavar", meta["flag"][2:].upper().replace("-", "_"))
            if "repeat" in meta:
                kwargs["action"] = "append"
        sub.add_argument(meta["flag"], **kwargs)


def cell_from_args(mode: str, args) -> RunConfig:
    """The validated :class:`RunConfig` behind one invocation: whatever
    config fields the namespace holds, on a ``mode`` cell."""
    names = {field.name for field in config_fields(mode)}
    return RunConfig(
        mode=mode, scale="fast" if args.fast else "default",
        **{name: value for name, value in vars(args).items()
           if name in names}).validate()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Reproduce individual Cicero (ISCA 2024) figures, or "
                    "serve a batched multi-session rendering workload.")
    commands = parser.add_subparsers(dest="figure", metavar="COMMAND",
                                     required=True)

    def add(name, func, help, fast=True, json_out=None, trace=False,
            mode=None, **config_options):
        """Register one command: ``json_out`` is ``"opt-in"`` (write
        artifacts only when given) or ``"always"`` (default
        ``ARTIFACT_DIR``); ``trace`` runs it under an obs activation;
        ``mode`` generates the flags of that mode's config sections."""
        sub = commands.add_parser(name, help=help, description=help,
                                  allow_abbrev=False)
        if fast:
            sub.add_argument("--fast", action="store_true",
                             help="use the reduced test-scale configuration")
        if json_out is not None:
            always = json_out == "always"
            sub.add_argument(
                "--json-out", metavar="DIR", type=_existing_dir_or_new,
                default=ARTIFACT_DIR if always else None,
                help="directory for the run's BENCH_<name>.json artifact "
                     + (f"(default {ARTIFACT_DIR})" if always
                        else "(default: not written)"))
        if trace:
            sub.add_argument(
                "--trace", metavar="PATH", default=None,
                help="record the run as Chrome Trace Event JSON at PATH "
                     "(load in chrome://tracing or Perfetto; inspect with "
                     "'trace analyze PATH')")
            func = functools.partial(_run_observed, func)
        if mode is not None:
            add_config_options(sub, mode, **config_options)
        sub.set_defaults(func=func)
        return sub

    for name in sorted(EXPERIMENTS):
        add(name, run_figures, f"reproduce {name}", json_out="opt-in")
    add("all", run_figures, "reproduce every figure", json_out="opt-in")
    add("list", lambda args: print("\n".join(commands.choices)) or 0,
        "print the available commands", fast=False)
    add("workloads", run_workloads_listing,
        "list the named workload registry", fast=False)
    add("serve", run_serve_command, "serve N concurrent sessions on one SoC "
        "through the batched engine", json_out="opt-in", trace=True,
        mode="serve")
    add("cluster", run_cluster_command, "simulate sessions arriving over "
        "time against a fleet of SoC workers",
        json_out="always", trace=True, mode="cluster")
    sub = add("experiment", run_experiment_command, "execute a factorial "
              "run table of serve/cluster cells (see docs/experiments.md)",
              trace=True)
    sub.add_argument("--table", metavar="PATH", required=True,
                     help="factorial run table (.json, or .toml on Python "
                          "3.11+): a base RunConfig plus axes to sweep")
    sub.add_argument("--resume", action="store_true",
                     help="skip cells whose artifact under --out/cells "
                          "already matches their config hash")
    sub.add_argument("--out", metavar="DIR", default=ARTIFACT_DIR,
                     help="artifact directory for the run table "
                          f"(default {ARTIFACT_DIR})")
    add("serve-live", run_serve_live, "bind the real asyncio frame server "
        "on a TCP port (see docs/serving-guide.md)",
        mode="realserve", only=SERVE_LIVE_FIELDS)
    sub = add("loadgen", run_loadgen_command, "replay a seeded arrival "
              "schedule against the frame server over real sockets -> "
              "BENCH_realserve.json",
              json_out="always", trace=True, mode="realserve")
    sub.add_argument("--connect", metavar="HOST:PORT", type=_host_port,
                     default=None,
                     help="target an already-running 'serve-live' server "
                          "instead of starting an in-process one")
    sub = add("reconcile", run_reconcile_command, "diff a loadgen artifact "
              "against a matched cluster-simulator prediction",
              json_out="always")
    sub.add_argument("--input", metavar="PATH", required=True,
                     help="the BENCH_realserve.json a 'loadgen' run wrote")
    trace = commands.add_parser(
        "trace", help="inspect a --trace artifact (trace analyze PATH)"
    ).add_subparsers(metavar="{analyze}", required=True)
    sub = trace.add_parser("analyze", allow_abbrev=False,
                           help="summarise a trace from the artifact alone")
    sub.add_argument("path", metavar="PATH")
    sub.add_argument("--top", type=int, default=10, metavar="N",
                     help="rows per ranking (slowest frames/spans; "
                          "default 10)")
    sub.set_defaults(func=run_trace_command)
    return parser


def _scale(args):
    return FAST if args.fast else DEFAULT


def _fail(command: str, exc: Exception) -> int:
    """Report a run the user's input made impossible; exit code 2."""
    # ValueError/KeyError carry a crafted message in args[0]; OSError's
    # args[0] is the bare errno, so stringify the whole exception
    # ("[Errno 2] No such file ...: 'trace.json'").
    message = exc.args[0] if isinstance(exc, (ValueError, KeyError)) else exc
    print(f"{command}: {message}", file=sys.stderr)
    return 2


def run_figures(args) -> int:
    config = _scale(args)
    for name in (sorted(EXPERIMENTS) if args.figure == "all"
                 else [args.figure]):
        started = time.perf_counter()
        result = EXPERIMENTS[name](config)
        rows = result if isinstance(result, list) else [result]
        elapsed = time.perf_counter() - started
        print_table(rows, title=f"{name} ({elapsed:.1f}s)")
        if args.json_out is not None:
            write_bench_json(args.json_out, name, rows, elapsed,
                             config=config)
    return 0


def run_workloads_listing(args) -> int:
    rows = [spec.describe() for spec in list_workloads()]
    print_table(rows, title=f"workload registry ({len(rows)} specs)")
    return 0


def run_serve_command(args) -> int:
    cell = cell_from_args("serve", args)
    config = _scale(args)
    started = time.perf_counter()
    result = execute_cell(cell, config=config)
    rows, summary = result.rows, result.summary
    elapsed = time.perf_counter() - started
    print_table(rows, title=f"serve: {len(rows)} sessions "
                            f"({elapsed:.1f}s wall)")
    cache = summary.get("cache") or {}
    print_table([{k: v for k, v in summary.items() if k != "cache"}],
                title="aggregate")
    if cache:
        print_table([{"cache": name, **stats}
                     for name, stats in sorted(cache.items())],
                    title="shared caches (counters: this run; "
                          "entries/bytes: current totals)")
    if args.json_out is not None:
        name = "serve_mixed" if cell.workloads is not None else "serve"
        write_bench_json(args.json_out, name, rows, elapsed,
                         config=config, extra=summary, kind="serve")
    return 0


def run_cluster_command(args) -> int:
    cell = cell_from_args("cluster", args)
    config = _scale(args)
    started = time.perf_counter()
    result = execute_cell(cell, config=config)
    rows, summary = result.rows, result.summary
    elapsed = time.perf_counter() - started
    print_table(rows, title=f"cluster: {len(rows)} workers "
                            f"({elapsed:.1f}s wall)")
    nested = ("scale_events", "governor_events", "psnr_per_workload")
    print_table([{k: v for k, v in summary.items()
                  if k not in nested}], title="aggregate")
    if summary.get("psnr_per_workload"):
        print_table([{"workload": name, "mean_psnr_db": psnr}
                     for name, psnr in
                     sorted(summary["psnr_per_workload"].items())],
                    title="served quality (probe PSNR)")
    if summary.get("scale_events"):
        print_table(summary["scale_events"], title="autoscaler timeline")
    events = summary.get("governor_events") or []
    if events:
        print_table(events[:30],
                    title=f"governor timeline (first 30 of {len(events)})")
    # Cluster runs are run-table experiments (muBench-style): every run
    # persists its machine-readable report.
    path = write_bench_json(args.json_out, "cluster", rows, elapsed,
                            config=config, extra=summary, kind="cluster")
    print(f"\nwrote {path}")
    return 0


def run_serve_live(args) -> int:
    import asyncio
    from ..server import FrameServer
    cell = cell_from_args("realserve", args)

    async def serve() -> None:
        server = FrameServer(_scale(args), cell)
        await server.start()
        # flush: readiness probes tail this line through a redirect.
        print(f"frame server listening on "
              f"{cell.effective('host')}:{server.port} (Ctrl-C to stop)",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("serve-live: stopped")
    return 0


def run_loadgen_command(args) -> int:
    import asyncio
    from ..cluster import DEFAULT_CLUSTER_MIX
    from ..metrics.stats import time_to_first_frame
    from ..server import FrameServer, LoadgenOptions, run_loadgen
    cell = cell_from_args("realserve", args)
    config = _scale(args)
    if args.connect is not None and (cell.host is not None
                                     or cell.port is not None):
        raise RunConfigError(
            "--connect targets a running server; --host/--port configure "
            "the in-process one (pick one)")
    options = LoadgenOptions(
        mix=cell.workloads or DEFAULT_CLUSTER_MIX,
        arrivals=cell.effective("arrivals"),
        rate_hz=cell.effective("rate_hz"),
        duration_s=cell.effective("duration_s"),
        seed=cell.seed, frames=cell.frames,
        time_scale=cell.effective("time_scale"))

    async def drive() -> dict:
        if args.connect is not None:
            return await run_loadgen(*args.connect, options)
        server = FrameServer(config, cell)
        await server.start()
        try:
            return await run_loadgen(cell.effective("host"), server.port,
                                     options)
        finally:
            await server.stop()

    started = time.perf_counter()
    summary = asyncio.run(drive())
    elapsed = time.perf_counter() - started
    # The reconcile command re-simulates from the artifact alone, so the
    # summary must pin down how the live server was configured too.
    summary.update({"governor": cell.governor, "slo_fps": cell.slo_fps,
                    "use_cache": cell.use_cache, "scale": cell.scale,
                    "self_served": args.connect is None})
    sessions = summary.pop("sessions")
    rows = [{"workload": s["workload"], "scheduled_s": s["scheduled_s"],
             "status": s["status"], "frames": len(s["timelines"]),
             "ttff_ms": time_to_first_frame(s["scheduled_s"],
                                            s["timelines"]) * 1e3,
             "first_digest": (s["digests"][0] if s["digests"] else None)}
            for s in sessions]
    print_table(rows, title=f"loadgen: {len(rows)} sessions "
                            f"({elapsed:.1f}s wall)")
    print_table([{k: summary[k] for k in (
        "sessions_ok", "frames_total", "ttff_mean_ms", "ttff_p95_ms",
        "p50_latency_ms", "p95_latency_ms", "p99_latency_ms")}],
        title="measured wall-clock quantiles")
    failed = [s for s in sessions if s["status"] != "ok"]
    if failed:
        print(f"\nloadgen: {len(failed)}/{len(sessions)} sessions "
              "failed", file=sys.stderr)
    path = write_bench_json(args.json_out, "realserve", rows, elapsed,
                            config=config, extra=summary, kind="realserve")
    print(f"\nwrote {path}")
    return 0 if not failed else 1


def run_reconcile_command(args) -> int:
    import json

    from ..server import reconcile_report
    try:
        artifact = json.loads(Path(args.input).read_text())
    except json.JSONDecodeError as exc:
        print(f"reconcile: {args.input} is not JSON: {exc}",
              file=sys.stderr)
        return 2
    if artifact.get("kind") != "realserve":
        print(f"reconcile: {args.input} holds a "
              f"{artifact.get('kind')!r} artifact, need 'realserve' "
              "(run 'loadgen' first)", file=sys.stderr)
        return 2
    measured = artifact.get("extra") or {}
    scale = measured.get("scale", "fast" if args.fast else "default")
    config = FAST if scale == "fast" else DEFAULT
    started = time.perf_counter()
    report = reconcile_report(
        measured, config,
        use_cache=measured.get("use_cache", True),
        governor=measured.get("governor", "off"),
        slo_fps=measured.get("slo_fps"))
    elapsed = time.perf_counter() - started
    print_table(report["rows"],
                title=f"sim-vs-real reconciliation ({elapsed:.1f}s wall)")
    print_table([{k: report[k] for k in (
        "mix", "rate_hz", "duration_s", "seed", "sessions_measured",
        "sessions_predicted", "frames_measured", "frames_predicted")}],
        title="matched run")
    path = write_bench_json(
        args.json_out, "reconcile", report["rows"], elapsed, config=config,
        extra={k: v for k, v in report.items() if k != "rows"},
        kind="reconcile")
    print(f"\nwrote {path}")
    return 0


def run_trace_command(args) -> int:
    from ..obs.analyze import main as analyze_main
    if args.top < 1:
        print(f"trace: --top must be >= 1 (got {args.top})",
              file=sys.stderr)
        return 2
    return analyze_main(args.path, top=args.top)


def run_experiment_command(args) -> int:
    table = ExperimentTable.from_file(args.table)
    rows, extra, path = run_table(
        table, args.out, resume=args.resume,
        default_scale="fast" if args.fast else "default", log=print)
    columns = list(dict.fromkeys(key for row in rows for key in row))
    print_table(rows, columns=columns,
                title=f"experiment {table.name}: {len(rows)} cells "
                      f"({extra['executed']} executed, "
                      f"{extra['resumed']} resumed)")
    print(f"\nwrote {path}")
    return 0


def _run_observed(command, args) -> int:
    """Run one command under an obs activation.

    Metrics are always registered (they snapshot into the command's
    BENCH artifacts via ``bench_payload``); a tracer is attached only
    with ``--trace PATH``, and the trace is written after a successful
    run.
    """
    from ..obs import MetricsRegistry, Observation, Tracer, activate
    tracer = Tracer() if args.trace is not None else None
    with activate(Observation(tracer=tracer, metrics=MetricsRegistry())):
        code = command(args)
    if tracer is not None and code == 0:
        path = tracer.write(args.trace)
        print(f"wrote {path} ({len(tracer)} trace events)")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # RunConfigError, a refused artifact overwrite, a missing input
        # file: every user-facing failure exits 2 with its message.
        return _fail(args.figure, exc)


if __name__ == "__main__":
    raise SystemExit(main())
