#!/usr/bin/env python3
"""ledger_smoke: every workload at tiny size, untraced and traced.

    smoke.py PCMD_LEDGER WORK_DIR

Asserts that the run passes every check, that every registered metric is
emitted for every workload with its unit and a finite value, that traced
closure lies in [0.95, 1.05], and that the Chrome trace parses and its
spans nest inside their parents.
"""

import json
import math
import subprocess
import sys
from pathlib import Path


def main():
    ledger, work = sys.argv[1], Path(sys.argv[2])
    work.mkdir(parents=True, exist_ok=True)
    out = work / "ledger.json"
    run = subprocess.run([ledger, "--seed", "1", "--tiny", "--out", str(out)],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] > 0, result

    registry = json.loads(subprocess.run(
        [ledger, "--registry"], capture_output=True, text=True,
        check=True).stdout)
    metrics = result["metrics"]
    for workload in registry["workloads"]:
        for metric in registry["end_to_end"] + registry["per_layer"]:
            key = f"{workload['name']}/{metric['name']}"
            assert key in metrics, f"{key} not emitted"
            assert math.isfinite(metrics[key]["value"]), key
            assert metrics[key]["unit"] == metric["unit"], key
        closure = metrics[f"{workload['name']}/ddm.closure"]["value"]
        assert 0.95 <= closure <= 1.05, (workload["name"], closure)

    ledger_file = json.loads(out.read_text())
    for fact in ("host.nproc", "host.compiler", "host.build_type",
                 "host.checker_hooks", "seed"):
        assert fact in ledger_file, fact

    trace = json.loads((work / "ledger.trace.json").read_text())
    spans = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            spans[(event["pid"], event["args"]["id"])] = event
    assert spans, "empty trace"
    slack = 1e-3  # microseconds; timestamps are printed from nanoseconds
    for (pid, _), event in spans.items():
        parent_id = event["args"]["parent"]
        if parent_id < 0:
            continue
        parent = spans[(pid, parent_id)]
        assert event["ts"] + slack >= parent["ts"], event
        assert (event["ts"] + event["dur"]
                <= parent["ts"] + parent["dur"] + slack), event
    print(f"ledger_smoke: {len(registry['workloads'])} workloads, "
          f"{result['attempted']} checks, {len(spans)} spans OK")


if __name__ == "__main__":
    main()
