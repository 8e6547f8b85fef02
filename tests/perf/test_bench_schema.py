"""BENCH_*.json: a payload carrying the environment fingerprint stays
strict JSON and survives a second dump unchanged."""

import json

import numpy as np

from repro.harness.configs import FAST
from repro.harness.reporting import (
    SCHEMA_VERSION,
    bench_payload,
    safe_json_dumps,
)
from repro.perf import environment_fingerprint


def _strict_loads(text):
    """json.loads that rejects any non-compliant Infinity/NaN literal."""
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token!r}")
    return json.loads(text, parse_constant=reject)


def test_payload_round_trips_through_safe_json_dumps():
    rows = [{"workload": "vr-lego", "frames_per_s": np.float64(41.5),
             "psnr_db": float("inf"), "frames": np.int64(8)},
            {"workload": "dolly-chair", "frames_per_s": np.float32(37.25),
             "psnr_db": 31.0, "frames": 8}]
    payload = bench_payload("perf", rows, 0.5, config=FAST,
                            extra={"environment": environment_fingerprint()})
    text = safe_json_dumps(payload, indent=2, sort_keys=True)
    back = _strict_loads(text)
    assert back["schema_version"] == SCHEMA_VERSION == 2
    assert back["kind"] == "figure"
    assert back["figure"] == "perf"
    assert [row["workload"] for row in back["rows"]] == ["vr-lego",
                                                        "dolly-chair"]
    for row in back["rows"]:
        assert isinstance(row["frames_per_s"], float)
        assert isinstance(row["frames"], int)
    env = back["extra"]["environment"]
    assert env["numpy"] and env["python"]
    # A second dump of the parsed payload is stable (no lossy coercions).
    assert safe_json_dumps(back) == safe_json_dumps(_strict_loads(text))
