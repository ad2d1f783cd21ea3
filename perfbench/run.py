#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the program and harness if needed (perfbench/build.py), runs one
workload in a fresh JVM, checks its outputs, prints every metric by name
with its unit, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones. The run's raw record and result are kept under .bench_build/runs/.
Exits non-zero if any output check failed. See perfbench/METRICS.md.
"""

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402

ROOT = build.ROOT
WORKLOADS = ("tune-table8", "spark-iterative", "tpch-oracle")
POLICIES = ("relm", "bo", "gbo", "ddpg")
SPARK_JOBS = ("wordcount", "sortbykey", "kmeans", "svm", "pagerank",
              "q1", "q3", "q5", "q6", "q12", "q14")
INPUTS = ("text", "pairs", "points", "labeled", "edges", "lineitem", "orders", "customer", "part")
FOOTPRINT = (("spark.task_ms", "ms"), ("spark.gc_ms", "ms"),
             ("spark.shuffle_write_mb", "MB"), ("spark.spill_mb", "MB"), ("spark.peak_exec_mb", "MB"))
TIME_LIMIT_S = 170


def end_to_end(rec):
    """End-to-end metrics, from the untraced measured passes."""
    passes = [p for p in rec["measured"] if not p["traced"]]
    ops = [o["ms"] for p in passes for o in p["ops"]]
    t = stats.tail(ops)
    return {
        "setup_s": (rec["setup_s"], "s"),
        "wall_s": (stats.median([p["wallMs"] for p in passes]) / 1e3, "s"),
        "op_p50_ms": (stats.median(ops), "ms"),
        "op_tail_ms": (t[0], "ms"),
        "rss_peak_mb": (rec["rss_peak_mb"], "MB"),
    }, t


def policy_metrics(rec):
    """Per-policy session time, quality and stress tests (tune-table8)."""
    passes = [p for p in rec["measured"] if not p["traced"]]
    quality = rec["extras"].get("quality", [])
    m = {}
    for pol in POLICIES:
        m[f"session_ms.{pol}"] = (stats.median(
            [o["parts"][pol] for p in passes for o in p["ops"] if pol in o["parts"]]), "ms")
    for pol in POLICIES:
        m[f"quality_ratio.{pol}"] = (stats.geomean_ratio(
            (q["pick_min"], q["best_safe_min"]) for q in quality if q["policy"] == pol), "ratio")
    m["stress_tests"] = (rec["warm"][0]["counts"].get("stress_tests", 0.0), "count")
    return m


def per_layer(rec):
    traced = [p for p in rec["measured"] if p["traced"]]
    plain = [p for p in rec["measured"] if not p["traced"]]
    n = max(1, len(traced))
    s = rec["samples"]
    counts = traced[0]["counts"] if traced else {}

    def p50(name):
        return stats.median(s.get(name, []))

    def per_pass(name):
        return len(s.get(name, [])) / n

    m = {
        "opt.gp_fits": (per_pass("opt.gp_fit_ms"), "count"),
        "opt.gp_fit_ms_p50": (p50("opt.gp_fit_ms"), "ms"),
        "opt.ei_sweeps": (per_pass("opt.ei_sweep_ms"), "count"),
        "opt.ei_sweep_ms_p50": (p50("opt.ei_sweep_ms"), "ms"),
        "opt.gp_predicts": (sum(s.get("opt.gp_predicts", [])) / n, "count"),
        "linalg.cholesky_us_p50": (p50("linalg.cholesky_us"), "us"),
        "opt.ddpg_train_steps": (per_pass("opt.ddpg_train_ms"), "count"),
        "opt.ddpg_train_ms_p50": (p50("opt.ddpg_train_ms"), "ms"),
        "opt.ddpg_act_us_p50": (p50("opt.ddpg_act_us"), "us"),
        "opt.lhs_us_p50": (p50("opt.lhs_us"), "us"),
        "core.gather_stats_us_p50": (p50("core.gather_stats_us"), "us"),
        "core.candidates_us_p50": (p50("core.candidates_us"), "us"),
        "core.arbitrator_iterations": (counts.get("core.arbitrator_iterations", 0.0), "count"),
        "core.reprofile_frac": (counts.get("core.reprofile_frac", 0.0), "ratio"),
        "core.qmodel_us_p50": (p50("core.qmodel_us"), "us"),
        "sim.run_calls": (counts.get("sim.run_calls", 0.0), "count"),
        "sim.run_us_p50": (p50("sim.run_us"), "us"),
        "sim.failed_probe_frac": (sum(s.get("sim.probe_failed", [])) / max(1, len(s.get("sim.probe_failed", []))), "ratio"),
    }
    m.update(policy_metrics(rec))
    gen, rows = rec["extras"].get("synth_gen_ms", {}), rec["extras"].get("synth_rows", {})
    for i in INPUTS:
        m[f"synth.gen_ms.{i}"] = (gen.get(i, 0.0), "ms")
        m[f"synth.rows.{i}"] = (rows.get(i, 0), "count")
    for j in SPARK_JOBS:
        m[f"spark.job_ms.{j}"] = (p50(f"spark.job_ms.{j}"), "ms")
    m["spark.tasks"] = (counts.get("spark.tasks", 0.0), "count")
    for name, unit in FOOTPRINT:
        m[name] = (stats.median([p["footprint"].get(name, 0.0) for p in traced]), unit)
    m["pagerank.plan_leaves"] = (p50("pagerank.plan_leaves"), "count")
    m["pagerank.iter_ms.first"] = (p50("pagerank.iter_ms.first"), "ms")
    m["pagerank.iter_ms.last"] = (p50("pagerank.iter_ms.last"), "ms")
    m["metrics.drain_ms"] = (p50("metrics.drain_ms"), "ms")
    m["oracle.load_ms"] = (p50("oracle.load_ms"), "ms")
    m["oracle.compare_ms"] = (p50("oracle.compare_ms"), "ms")
    m["oracle.rows_loaded"] = (counts.get("oracle.rows_loaded", 0.0), "count")
    m["oracle.table_loads"] = (counts.get("oracle.table_loads", 0.0), "count")
    m["oracle.distinct_table_frac"] = (counts.get("oracle.distinct_table_frac", 0.0), "ratio")
    overhead = 0.0
    if traced and plain:
        overhead = stats.median([p["wallMs"] for p in traced]) / stats.median([p["wallMs"] for p in plain]) - 1
    op_names = {n for p in rec["measured"] for o in p["ops"] for n in [o["name"], *o["parts"]]}
    m["trace.overhead_frac"] = (overhead, "ratio")
    m["trace.unattributed_frac"] = (stats.unattributed_frac(rec["spans"], op_names), "ratio")
    return m


def reference_check(rec):
    """tune-table8: every pass's stress tests and the run's quality ratios
    against the committed reference of the run's seed block."""
    ref = json.loads(reference.FILE.read_text())["blocks"][str(rec["env"]["block"])]
    msgs = [f"pass {i}: stress_tests {p['counts'].get('stress_tests')} differ from the reference {ref['stress_tests']}"
            for i, p in enumerate(rec["warm"] + rec["measured"])
            if p["counts"].get("stress_tests") != ref["stress_tests"]]
    got = policy_metrics(rec)
    msgs += [f"quality_ratio.{p} {got[f'quality_ratio.{p}'][0]!r} differs from the reference {want!r}"
             for p, want in ref["quality_ratio"].items()
             if not math.isclose(got[f"quality_ratio.{p}"][0], want, rel_tol=1e-12)]
    return msgs


def failures(rec):
    """Failed ops: those that threw or mismatched the oracle or the
    reference, that differ from the run's first pass, or that belong to a
    pass whose input row counts differ from the first pass's. On
    tune-table8 the reference check of stress tests and quality ratios
    counts as one more op."""
    first = rec["warm"][0]
    msgs, attempted, failed = [], 0, 0
    if rec["workload"] == "tune-table8":
        msgs = reference_check(rec)
        attempted, failed = 1, int(bool(msgs))
    for i, p in enumerate(rec["warm"] + rec["measured"]):
        rows_ok = p["inputRows"] == first["inputRows"]
        if not rows_ok:
            msgs.append(f"pass {i}: input rows {p['inputRows']} differ from {first['inputRows']}")
        for o, ref in zip(p["ops"], first["ops"]):
            attempted += 1
            if not o["ok"]:
                msgs.append(f"pass {i} {o['name']}: {o['error']}")
            elif o["signature"] != ref["signature"]:
                msgs.append(f"pass {i} {o['name']}: output {o['signature']!r} differs from first pass {ref['signature']!r}")
            elif rows_ok:
                continue
            failed += 1
    return attempted, failed, msgs


def run_jvm(args, out, log):
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # A fixed-size heap with fixed generation sizes: peak RSS then follows
    # the work, not heap-resizing decisions.
    cmd = build.jvm_command(
        ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy", f"-Djava.io.tmpdir={tmp}",
         "-Dlog4j2.configurationFile=" + str(ROOT / "perfbench" / "log4j2.properties")],
        "perfbench.Main",
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)])
    with open(log, "w") as lf:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=lf, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"{args.workload}: timed out after {TIME_LIMIT_S} s (log: {log})")
    if code != 0 or not out.is_file():
        sys.stderr.write(Path(log).read_text()[-4000:])
        raise SystemExit(f"{args.workload}: JVM exited with code {code} (log: {log})")
    return json.loads(out.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    runs = ROOT / ".bench_build" / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.time()
    rec = run_jvm(args, runs / f"{stem}.record.json", runs / f"{stem}.log")

    attempted, failed, msgs = failures(rec)
    e2e, t = end_to_end(rec)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"run {time.time() - started:.1f} s  env {json.dumps(rec['env'], sort_keys=True)}")
    print(f"set-up: {rec['warm_passes']} warm-up passes, per-pass counts "
          f"{'repeated' if rec['counts_repeated'] else 'did NOT repeat'}: {rec['warm'][-1]['counts']}")
    if args.trace == 0:
        shown = dict(e2e)
        shown["ops_failed_frac"] = (failed / attempted, "ratio")
        if args.workload == "tune-table8":
            shown.update(policy_metrics(rec))
        metrics = e2e
    else:
        shown = metrics = per_layer(rec)
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
              ["end_to_end" if args.trace == 0 else "per_layer"]]
    if set(listed) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(listed) ^ set(metrics))} disagree with BENCHMARK.json")
    for name, (v, unit) in shown.items():
        print(f"  {name:<28} {v:>14.6g} {unit}")
    if args.trace == 0:
        print(f"  (op_tail_ms is the p{t[1]:.1f} of {t[2]} ops; op_p50_ms of the same {t[2]})")
    for msg in msgs[:20]:
        print(f"FAILED {msg}", file=sys.stderr)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in listed}}
    (runs / f"{stem}.result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
