#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload at tiny sizes (--smoke) untraced and traced, and checks
that each run exits 0 with every correctness check passing, that the result
line carries exactly the metrics BENCHMARK.json lists with their units, and
that the REPORT block names every end-to-end and per-layer metric of
perfbench/README.md with a unit and a sample count. Also validates the shape
of BENCHMARK.json.

    python3 perfbench/smoke_test.py
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ONLINE, BATCH, SPILL = "online_paper_default", "batch_large_k", "spill_churn"
ALL = (ONLINE, BATCH, SPILL)

# Metric name -> workloads whose REPORT must carry it (README tables).
END_TO_END = {
    "setup_s": ALL,
    "throughput_bags_per_s": ALL,
    "latency_p50_ms": ALL,
    "latency_p99_ms": ALL,
    "serial_bags_per_s": ALL,
    "error_rate": ALL,
    "peak_rss_mb": ALL,
    "alarm_recall": (ONLINE,),
    "false_alarms_per_kstep": (ONLINE,),
    "checkpoint_s": (SPILL,),
    "restore_s": (SPILL,),
    "checkpoint_bytes": (SPILL,),
}
PER_LAYER = {
    "core.bootstrap_us": ALL,
    "core.bootstrap_share": ALL,
    "common.rng_fork_us": ALL,
    "emd.solve_us": ALL,
    "emd.solves_per_step": ALL,
    "emd.steady_allocs": ALL,
    "signature.build_us": ALL,
    "core.score_us": ALL,
    "core.push_p50_us": ALL,
    "core.push_p99_us": ALL,
    "core.push_self_us": ALL,
    "runtime.submit_us": (ONLINE, SPILL),
    "runtime.queue_wait_p50_us": (ONLINE, SPILL),
    "runtime.queue_wait_p99_us": (ONLINE, SPILL),
    "runtime.rejected": ALL,
    "runtime.shard_skew": (ONLINE, SPILL),
    "runtime.generator_lag_ms": (ONLINE,),
    "common.arena_hit_rate": ALL,
    "serialize.export_us": ALL,
    "serialize.import_us": ALL,
    "serialize.blob_bytes": ALL,
    "serialize.spills_per_kbag": ALL,
    "serialize.restores_per_kbag": ALL,
    "serialize.resident_bytes": (SPILL,),
    "batch.load_s": (BATCH,),
    "batch.run_s": (BATCH,),
    "batch.rows": (BATCH,),
    "batch.quarantined": (BATCH,),
    "trace.overhead_ratio": ALL,
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRIC_LINE = re.compile(r"^  metric  (\S+)\s+(\S+) (\S+)\s+n=(\d+)$")


def check_benchmark_json(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert spec["command"][0] == "python3", spec["command"]
    assert spec["paths"] == ["perfbench"], spec["paths"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(ALL)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    names = set()
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
        assert m["name"] not in names, m
        names.add(m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    report = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            report[m.group(1)] = (float(m.group(2)), m.group(3), int(m.group(4)))
        assert "FAILED" not in line, (workload, trace, line)
    assert any(line.startswith("  check   ") for line in lines)
    return json.loads(lines[-1]), report


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_benchmark_json(spec)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures = 0
    for workload in ALL:
        for trace, listed, named in ((0, spec["end_to_end"], END_TO_END),
                                     (1, spec["per_layer"], PER_LAYER)):
            result, report = run(workload, trace)
            problems = []
            if not result["correct"] or result["attempted"] < 1:
                problems.append("result not correct: %s" % result)
            want = [m["name"] for m in listed]
            if sorted(result["metrics"]) != sorted(want):
                problems.append("result metrics %s != %s"
                                % (sorted(result["metrics"]), sorted(want)))
            for name, value in result["metrics"].items():
                if value.get("unit") != units.get(name):
                    problems.append("%s unit %s" % (name, value.get("unit")))
            for name, workloads in named.items():
                if workload in workloads and name not in report:
                    problems.append("REPORT lacks %s" % name)
            for name, (_, unit, _) in report.items():
                if name in units and units[name] != unit:
                    problems.append("REPORT %s unit %s" % (name, unit))
            if trace and workload == ONLINE and \
                    report.get("emd.solves_per_step", (0,))[0] != 9:
                problems.append("emd.solves_per_step != tau + tau' - 1 = 9")
            print("%-22s trace=%d %s" % (workload, trace,
                                         "ok" if not problems else "FAILED"))
            for p in problems:
                print("    " + p)
            failures += len(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
