#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--workload ...] --seeds 1 10

Runs the benchmark once per seed on each workload, untraced, and prints
for each end-to-end metric the median of the runs and the distance between
their first and third quartile as a share of the median, next to the
metric's bound in BENCHMARK.json. Results are kept in
.bench_build/spread-<workload>.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), default=(1, 10))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in args.workload:
        values = {name: [] for name in bounds}
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if r.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: run failed ({result['failed']} of {result['attempted']} ops)")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + "  ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        for name, vs in values.items():
            spread = stats.quartile_spread(vs)
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{w:<16} {name:<12} median {stats.median(vs):10.4g}  spread {spread:6.3f}  "
                  f"bound {bounds[name]:.2f}{flag}")
        (ROOT / ".bench_build" / f"spread-{w}.json").write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
