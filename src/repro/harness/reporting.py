"""Fixed-width table rendering + machine-readable benchmark artifacts.

Every bench prints the rows/series of its paper figure through these
helpers, so ``pytest benchmarks/ --benchmark-only`` doubles as the
reproduction report.  :func:`write_bench_json` additionally persists a
figure's rows as ``BENCH_<figure>.json`` (rows + wall time + config scale)
so CI runs leave a perf-trajectory artifact diffable across commits.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

__all__ = ["SCHEMA_VERSION", "format_table", "print_table", "format_value",
           "jsonable", "safe_json_dumps", "bench_payload",
           "write_bench_json"]


def format_value(value) -> str:
    """Human-friendly formatting: floats to three decimals, rest
    stringified."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == float("inf"):
            return "inf"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: list, columns: list | None = None,
                 title: str | None = None) -> str:
    """Render a list of dict rows as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = [[format_value(row.get(col, "")) for col in columns]
                for row in rows]
    widths = [max(len(str(col)), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]

    def line(cells):
        return "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))

    parts = []
    if title:
        parts.append(title)
    header = line([str(c) for c in columns])
    parts.append(header)
    parts.append("-" * len(header))
    parts.extend(line(r) for r in rendered)
    return "\n".join(parts)


def print_table(rows: list, columns: list | None = None,
                title: str | None = None) -> None:
    print()
    print(format_table(rows, columns=columns, title=title))


def jsonable(value):
    """Coerce row values (incl. numpy scalars/arrays) to JSON-native types.

    Non-finite floats become strings (``"inf"``/``"-inf"``/``"nan"``):
    ``psnr`` legitimately returns ``inf`` for identical frames, and raw
    ``json.dumps`` would emit the spec-violating ``Infinity`` literal
    that strict parsers reject.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if hasattr(value, "tolist"):  # numpy scalar or array
        return jsonable(value.tolist())
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value in (float("inf"), float("-inf")):
            return str(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def safe_json_dumps(payload, **kwargs) -> str:
    """Strictly valid JSON: sanitise, then *refuse* any non-finite leak.

    Every bench artifact goes through this, so ``json.loads`` (and any
    non-Python consumer) round-trips what we write.  ``allow_nan=False``
    is the belt to :func:`jsonable`'s suspenders — if a new code path
    ever smuggles a raw ``inf``/``nan`` past sanitisation, writing fails
    loudly instead of producing a non-compliant artifact.
    """
    return json.dumps(jsonable(payload), allow_nan=False, **kwargs)


# Version 2 added "schema_version" (replacing v1's bare "schema") and
# "kind"; bump on any change that breaks artifact consumers.
SCHEMA_VERSION = 2


def bench_payload(name: str, rows: list, wall_time_s: float,
                  config=None, extra: dict | None = None,
                  kind: str = "figure") -> dict:
    """The JSON document persisted for one figure/experiment run.

    ``kind`` says which harness surface produced the artifact
    (``figure``, ``serve``, ``cluster``, ``realserve``, ``reconcile``,
    ``experiment``, ``experiment-cell``) so consumers can dispatch
    without parsing the name.

    The snapshot of the run's active :class:`~repro.obs.MetricsRegistry`
    — if one is activated and non-empty — is attached as ``metrics`` (see
    ``docs/observability.md``), so every artifact written inside an
    observed run carries its metrics.
    """
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": str(kind),
        "figure": name,
        "wall_time_s": float(wall_time_s),
        "rows": jsonable(rows),
    }
    if config is not None:
        payload["config_scale"] = jsonable(config)
    if extra:
        payload["extra"] = jsonable(extra)
    from ..obs.runtime import current_metrics
    registry = current_metrics()
    if registry is not None and len(registry):
        payload["metrics"] = jsonable(registry.snapshot())
    return payload


def _existing_kind(path: Path) -> str | None:
    """The ``kind`` of the artifact at ``path``, if it parses as one."""
    try:
        existing = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(existing, dict):
        kind = existing.get("kind")
        return kind if isinstance(kind, str) else None
    return None


def write_bench_json(directory, name: str, rows: list, wall_time_s: float,
                     config=None, extra: dict | None = None,
                     kind: str = "figure") -> Path:
    """Write ``BENCH_<name>.json`` under ``directory``; returns the path.

    This is the single entry point every BENCH artifact goes through —
    all of them carry ``schema_version`` and ``kind``.  Overwriting an
    artifact of the *same* kind is the normal refresh path, but a
    same-named artifact of a different kind is a configuration mistake
    (two surfaces aimed at one path), so it raises ``ValueError``
    naming both kinds instead of silently clobbering history.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    if path.exists():
        existing_kind = _existing_kind(path)
        if existing_kind is not None and existing_kind != str(kind):
            raise ValueError(
                f"refusing to overwrite {path}: it holds a "
                f"{existing_kind!r} artifact, this run would write a "
                f"{str(kind)!r} one (write to a different directory or "
                "name, or remove the stale artifact)")
    payload = bench_payload(name, rows, wall_time_s, config=config,
                            extra=extra, kind=kind)
    path.write_text(safe_json_dumps(payload, indent=2, sort_keys=True)
                    + "\n")
    return path
