"""Run the benchmark over several seeds, one process at a time, and summarize.

    python3 perfbench/spread.py [--workloads train,infer]
        [--seeds 1-10] [--traced-seed N] [--out FILE]

Without ``--workloads`` it runs the workloads ``BENCHMARK.json`` lists.

For every workload it prints each run's metrics by name with their units,
then per metric the median, the quartiles and the spread: the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them. End-to-end metrics are
checked against a third of their bound in ``BENCHMARK.json``.
``--traced-seed`` adds one traced run per workload. ``--out`` writes all of
it as JSON (``results/`` keeps such files).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = json.loads(
        (BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def measure(workload, seeds, traced_seed, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds:
        result, report = run_once(workload, seed, bench["run_seconds"], 0)
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "metrics": result["metrics"], "named": report["named"],
                     "rounds": report["rounds"]["untraced"],
                     "digests": report["digests"],
                     "loadavg": [report["provenance"]["loadavg_start"][0],
                                 report["provenance"]["loadavg_end"][0]]})
        figures = {**report["named"], **result["metrics"]}
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + "  ".join(
                  f"{k}={v['value']:.4g} {v['unit']}" for k, v in figures.items()),
              flush=True)

    summary = {}
    for source in ("metrics", "named"):
        for name in runs[0][source]:
            s = summarize([r[source][name]["value"] for r in runs])
            s["unit"] = runs[0][source][name]["unit"]
            note = ""
            if source == "metrics":
                s["bound"] = bounds[name]
                s["steady"] = s["spread"] < bounds[name] / 3
                note = f"  bound {bounds[name]}" + (
                    "" if s["steady"] else "  spread above a third of the bound")
            if name in summary:
                continue
            summary[name] = s
            print(f"  {name:<26} median {s['median']:<10.4g} q1 {s['q1']:<10.4g}"
                  f" q3 {s['q3']:<10.4g} spread {s['spread']:.3f} {s['unit']}{note}")

    out = {"runs": runs, "summary": summary,
           "provenance": report["provenance"]}
    if traced_seed is not None:
        result, report = run_once(workload, traced_seed, bench["run_seconds"], 1)
        out["traced"] = {"seed": traced_seed, "correct": result["correct"],
                         "metrics": result["metrics"]}
        print(f"  traced seed {traced_seed}: overhead "
              f"{result['metrics']['trace.overhead']['value']:.3f}, uncovered "
              f"{result['metrics']['trace.uncovered_ms']['value']:.1f} ms")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   help="comma-separated (default: BENCHMARK.json's workloads)")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--traced-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    for workload in names:
        results["workloads"][workload] = measure(
            workload, args.seeds, args.traced_seed, bench)
        if args.out:
            Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
