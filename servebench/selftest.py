#!/usr/bin/env python3
"""Self-test of servebench at smoke size (small graphs, 2-second windows).

    python3 servebench/selftest.py

Checks that:
  - every workload runs, untraced and traced, and its result line carries
    exactly the metrics BENCHMARK.json lists, with their units (kspdg-serve,
    which BENCHMARK.json does not list, included);
  - every metric the benchmark defines is in the full report, measured with
    its unit or listed as absent with a reason;
  - the environment record and CPU-time fields are present;
  - kspdg.replay_drift is 0 and the kspdg stages sum to within 5 % of
    kspdg.query_ms;
  - the oracle rejects a deliberately corrupted answer, on traffic-churn and
    on remote-batch, where every answer comes from KSP-DG.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = [
    "setup_s", "query_qps", "query_p50_ms", "query_p95_ms", "batch_p50_ms",
    "batch_p90_ms", "update_p50_ms", "update_p95_ms", "edge_updates_per_s",
    "error_rate", "peak_rss_mb",
]
PER_LAYER = [
    "api.query_wait_ms", "api.solve_ms", "api.apply_self_ms",
    "core.writer_wait_ms", "core.queue_wait_ms",
    "dtlp.build_ms", "dtlp.apply_ms", "dtlp.subgraphs_touched",
    "dtlp.skeleton_pairs_refreshed", "dtlp.index_mb",
    "cands.rebuild_ms", "cands.pair_paths_recomputed", "cands.index_mb",
    "kspdg.query_ms", "kspdg.overlay_ms", "kspdg.reference_paths_ms",
    "kspdg.candidates_ms", "kspdg.partials_ms", "kspdg.join_self_ms",
    "kspdg.iterations_per_k", "kspdg.cap_hits",
    "kspdg.partial_cache_hit_ratio", "kspdg.yen_runs_per_query",
    "kspdg.useful_candidate_ratio", "kspdg.replay_drift",
    "ksp.findksp_ms", "ksp.yen_ms", "ksp.kspdg_over_findksp",
    "mfp.select_ms", "mfp.kept_ratio",
    "rpc.calls_per_query", "rpc.bytes_per_query", "rpc.retries",
    "remote.partials_per_query", "remote.scattered_share",
    "remote.partial_cache_hit_ratio", "remote.worker_yen_runs_per_query",
    "remote.commit_ms", "remote.overhead_ratio",
    "obs.scrape_ms", "trace.overhead_ratio",
]
ENV_KEYS = ["nproc", "loadavg", "cpu_pressure", "compiler", "build_type",
            "cxx_flags", "git_sha"]
RUN_KEYS = ["window_s", "cpu_s", "parallel_efficiency", "load_threads"]


def fail(message):
    sys.exit(f"selftest FAILED: {message}")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "2", "--trace", str(trace),
           "--smoke", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        fail(f"{workload} trace {trace}: exit {out.returncode}\n"
             f"{out.stderr[-3000:]}")
    result = json.loads(lines[-1])
    report_line = [l for l in lines if l.startswith("full report: ")]
    with open(report_line[-1][len("full report: "):]) as f:
        report = json.load(f)
    return result, report


def check_result_line(name, result, expected):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{name}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{name}: attempted {result['attempted']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail(f"{name}: result metrics {got} != BENCHMARK.json {want}")


def check_named(name, report, names):
    for metric in names:
        entry = report["metrics"].get(metric)
        if entry is None or not entry.get("unit"):
            fail(f"{name}: {metric} missing from the report")
        if "value" not in entry and not entry.get("absent"):
            fail(f"{name}: {metric} neither measured nor explained")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # kspdg-serve is runnable but not in BENCHMARK.json (see README.md);
    # the self-test covers it too.
    workloads = ["kspdg-serve"] + [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            name = f"{workload} trace {trace}"
            result, report = run(workload, trace)
            expected = bench["per_layer"] if trace else bench["end_to_end"]
            check_result_line(name, result, expected)
            check_named(name, report, END_TO_END + (PER_LAYER if trace else []))
            for key in ENV_KEYS:
                if key not in report["env"]:
                    fail(f"{name}: env.{key} missing")
            for key in RUN_KEYS:
                if key not in report["untraced"]:
                    fail(f"{name}: untraced.{key} missing")
            if report["untraced"]["accounting_mismatches"]:
                fail(f"{name}: {report['untraced']['accounting_mismatches']}")
            if trace:
                metrics = report["metrics"]
                if metrics["kspdg.replay_drift"]["value"] != 0:
                    fail(f"{name}: replay drift {report['kspdg_drift_examples']}")
                coverage = metrics["kspdg.stage_coverage"]["value"]
                if abs(coverage - 1) > 0.05:
                    fail(f"{name}: kspdg stages sum to {coverage:.3f} of "
                         "kspdg.query_ms")
            print(f"ok   {name}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)

    # A corrupted answer (its first distance understated) must clear
    # `correct` on both listed workloads. On remote-batch every answer comes
    # from KSP-DG, so this also checks that the known truncation class does
    # not swallow it.
    for workload in ("traffic-churn", "remote-batch"):
        result, report = run(workload, 0, "--corrupt-answer")
        untraced = report["untraced"]
        if (result["correct"] or untraced["oracle_wrong"] < 1
                or untraced["oracle_wrong"] <= untraced["oracle_wrong_truncated"]):
            fail(f"{workload}: the oracle accepted a corrupted answer")
        print(f"ok   {workload}: the oracle rejects a corrupted answer: "
              f"{untraced['oracle_wrong_examples'][0]}", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
