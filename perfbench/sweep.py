"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/sweep.py run --workloads A,B --seeds 1-10 [--trace 1] OUT.jsonl
    python3 perfbench/sweep.py summary OUT.jsonl [SECOND.jsonl]

`run` calls run.py once per workload and seed, with BENCHMARK.json's
run_seconds, and appends {"workload", "seed", "trace", "result"} lines to
OUT.  `summary` prints each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median) per workload, and
flags an end-to-end spread above a third of its bound.  Given a second file,
it also flags a metric whose second median is worse than the first by more
than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run(args):
    with open(args.out, "a", encoding="utf-8") as fh:
        for name in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                cmd = [*SPEC["command"], "--workload", name, "--seed", str(seed),
                       "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)]
                proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                      cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                fh.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace,
                                     "result": result}) + "\n")
                fh.flush()
                print(name, seed, "correct" if result["correct"] else "INCORRECT",
                      {k: round(v["value"], 4) for k, v in result["metrics"].items()
                       if args.trace == 0})
    return 0


def values_by_metric(path):
    """{(workload, metric): values} of the runs in path."""
    values = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            for key, metric in row["result"]["metrics"].items():
                values[(row["workload"], key)].append(metric["value"])
    return values


def stats(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals),
            "spread": (q3 - q1) / med if med else None}


def summary(args):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in SPEC["end_to_end"]}
    first = values_by_metric(args.first)
    second = values_by_metric(args.second) if args.second else {}
    out = {}
    for (name, key), vals in sorted(first.items()):
        s = stats(vals)
        out.setdefault(name, {})[key] = s
        flag = ""
        bound, better = bounds.get(key, (None, None))
        if bound is not None and key != "setup_s" and s["spread"] > bound / 3:
            flag += f"  spread above a third of the bound {bound}"
        if (name, key) in second and bound is not None:
            m2 = statistics.median(second[(name, key)])
            worse = (m2 - s["median"]) if better == "lower" else (s["median"] - m2)
            flag += f"  second median {m2:.6g}"
            if worse > bound * s["median"]:
                flag += f" WORSE by more than the bound {bound}"
        print(f"{name:22} {key:32} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} n {s['n']:<3} spread {s['spread'] or 0:.4f}{flag}")
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("out")
    p.set_defaults(func=run)
    p = sub.add_parser("summary")
    p.add_argument("first")
    p.add_argument("second", nargs="?")
    p.add_argument("--json", help="also write the statistics of FIRST here")
    p.set_defaults(func=summary)
    args = ap.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
