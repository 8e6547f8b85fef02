"""Real async serving front-end: frame server, load generator, reconcile.

Everything else in this repository runs on a virtual clock inside one
process.  This package stands up an *actual service* so the serving
claims can be checked against wall-clock behaviour:

* :mod:`.protocol` — the JSON-lines-over-TCP frame protocol (one
  session per connection).
* :mod:`.server` — the asyncio :class:`FrameServer`, backed by the
  existing :class:`~repro.engine.MultiSessionEngine` running in a
  dedicated worker thread (so concurrent connections batch their ray
  work and share the cross-session reference cache, exactly like the
  simulated paths).
* :mod:`.loadgen` — an open-loop load-generator client replaying the
  *same* seeded arrival processes as :mod:`repro.cluster.arrivals`
  against a live server, measuring wall-clock TTFF and frame-latency
  quantiles into ``BENCH_realserve.json``.
* :mod:`.reconcile` — diffs those measured quantiles against a matched
  ``simulate_cluster`` prediction for the same mix/rate/seed; the
  sim-vs-real gap report is the headline artifact.
"""

from .loadgen import LoadgenOptions, loadgen_schedule, run_loadgen
from .protocol import PROTOCOL_SCHEMA, frame_digest, read_message, write_message
from .reconcile import reconcile_report
from .server import FrameServer

__all__ = [
    "PROTOCOL_SCHEMA",
    "FrameServer",
    "LoadgenOptions",
    "frame_digest",
    "loadgen_schedule",
    "read_message",
    "reconcile_report",
    "run_loadgen",
    "write_message",
]
