#!/usr/bin/env python3
"""Writes the committed reference of the tune-table8 workload.

    python3 perfbench/reference.py

Runs `Tables.table8` for every tuner seed of every seed block
(perfbench.TuneTable8's main) and writes perfbench/reference/table8.json:
one row per (tuner seed, application, policy) with the recommendation, the
stress tests paid and the pick's simulated runtime (plus, for Exhaustive,
the best safe runtime it found), and per block the stress tests of one
pass and the quality ratio of each policy. tune-table8 fails every op whose
output differs from these rows, and a run whose stress tests or quality
ratios differ from its block's. Regenerate only when a change is meant to
alter what the tuners pick.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402
import stats  # noqa: E402

FILE = build.ROOT / "perfbench" / "reference" / "table8.json"
POLICIES = {"RelM": "relm", "BO": "bo", "GBO": "gbo", "DDPG": "ddpg"}
KEYS = ("block", "seed", "app", "policy", "iterations", "runtime_min", "best_safe_min", "conf")


def summary(rows):
    """Per block: stress tests paid by BO+GBO+DDPG+RelM in one pass, and each
    policy's geo-mean of pick runtime / best safe exhaustive runtime, taken
    over (tuner seed, app) in pass order."""
    best = {(r["seed"], r["app"]): r["best_safe_min"] for r in rows if r["policy"] == "Exhaustive"}
    out = {}
    for b in sorted({r["block"] for r in rows}):
        rs = [r for r in rows if r["block"] == b and r["policy"] in POLICIES]
        out[str(b)] = {
            "stress_tests": sum(r["iterations"] for r in rs),
            "quality_ratio": {p: stats.geomean_ratio((r["runtime_min"], best[r["seed"], r["app"]])
                                                     for r in rs if r["policy"] == name)
                              for name, p in POLICIES.items()},
        }
    return out


def main():
    raw = build.BUILD / "table8-rows.json"
    raw.parent.mkdir(parents=True, exist_ok=True)
    subprocess.run(build.jvm_command(["-Xmx1g"], "perfbench.TuneTable8", [str(raw)]), cwd=build.ROOT, check=True)
    rows = json.loads(raw.read_text())["rows"]
    FILE.parent.mkdir(exist_ok=True)
    with open(FILE, "w") as f:
        f.write('{"blocks": ' + json.dumps(summary(rows), indent=1) + ',\n "rows": [\n')
        f.write(",\n".join(json.dumps({k: r[k] for k in KEYS if k in r}) for r in rows) + "\n]}\n")
    print(f"wrote {len(rows)} rows to {FILE.relative_to(build.ROOT)}")


if __name__ == "__main__":
    main()
