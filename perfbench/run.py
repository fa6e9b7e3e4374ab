"""mscope pipeline benchmark.

    python3 perfbench/run.py --workload {train,infer} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from ``src/``
there and writes only under ``perfbench/work`` (removed at exit) and
``perfbench/out``. The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are its per-layer metrics. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "infer"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("bench", "tiny"), default="bench",
                   help="tiny: seconds-long inputs for the smoke test")
    return p.parse_args(argv)


def _import_program():
    """Import mscope from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mscope" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src}/mscope")
    nproc = len(os.sched_getaffinity(0))
    # at most one BLAS thread per usable core; set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(
        nproc, int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))))
    sys.path.insert(0, str(src))
    import mscope
    if Path(mscope.__file__).resolve().parent != (src / "mscope").resolve():
        raise SystemExit(f"perfbench: imported mscope from {mscope.__file__}")
    return nproc


def _blas():
    import ctypes
    import glob

    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return f"{info.get('name')} {info.get('version')}", threads


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, env=env, timeout=30)
    return done.stdout.strip() or None


def provenance(nproc, load_start):
    import numpy as np
    blas, threads = _blas()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": nproc, "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": threads, "jobs": 1,
        "git_revision": _git_revision(), "src_lines": src_lines,
        "machine": platform.machine(),
    }


def run_rounds(wl, seconds, traced, tracer):
    """Repeat the workload's round while the next one is expected to end
    within ``seconds``; always at least one. With tracing, untraced and
    traced rounds alternate, starting untraced, and at least one of each
    runs."""
    plain, marked, walls = [], [], []
    start = time.perf_counter()
    while True:
        trace_this = traced and len(marked) < len(plain)
        if trace_this:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = wl.run_round()
            # the whole call, the benchmark's own code in the round included
            result["wall"] = time.perf_counter() - t0
        except Exception as exc:  # a failed round is a failed operation
            traceback.print_exc()
            wl.gates.check(False, f"{wl.name}: round raised {exc!r}")
            result = None
        finally:
            if trace_this:
                tracer.uninstall()
        if result is not None:
            wl.check_round(result)
            # keep the figures only; models and outputs are freed here
            result = {k: v for k, v in result.items() if not k.startswith("_")}
            (marked if trace_this else plain).append(result)
            walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if not walls:
            if elapsed > seconds:
                break
            continue
        need_pair = traced and not (plain and marked)
        if elapsed + median(walls) > seconds and not need_pair:
            break
        if elapsed > 3 * seconds:
            break
    return plain, marked


def main(argv=None):
    args = parse_args(argv)
    load_start = list(os.getloadavg())
    nproc = _import_program()
    sys.path.insert(0, str(BENCH))
    from tracer import Profile, Tracer, layer_metrics
    from workloads import SIZES, WORKLOADS, Gates

    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    gates = Gates()
    wl = WORKLOADS[args.workload](SIZES[args.size], args.seed, work, gates)
    try:
        work.mkdir(parents=True, exist_ok=True)
        setup_tracer = Tracer()
        setup_s = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            if args.trace:
                setup_tracer.install()
            try:
                wl.prepare()
            finally:
                setup_tracer.uninstall()
            wl.warm_up()
            setup_s.append(time.perf_counter() - t0)
        round_tracer = Tracer()
        plain, marked = run_rounds(wl, args.seconds, args.trace, round_tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not plain or (args.trace and not marked):
        print(f"perfbench: no round of {args.workload} completed: {gates.notes}",
              file=sys.stderr)
        return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    def med(key, rounds=plain):
        return median([r[key] for r in rounds])

    named = {
        # the fastest set-up: the first pays for cold caches, and a slow
        # spell of the machine seldom covers all of them
        "setup_s": (min(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (gates.failed / max(gates.attempted, 1), "share"),
        **wl.named_metrics(plain),
    }
    if args.trace:
        overhead = med("round", marked) / med("round") - 1.0
        profile = Profile(setup_tracer).add(
            Profile(round_tracer, 1.0 / len(marked),
                    sum(r["wall"] for r in marked)))
        metrics = layer_metrics(profile, wl.pool_accept_ratio, overhead)
        round_tracer.write(out / f"spans-{args.workload}.jsonl")
    else:
        metrics = {
            "setup_s": named["setup_s"],
            "round_s": (med("round"), "s"),
            "stage1_s": (med("stage1"), "s"),
            "stage2_s": (med("stage2"), "s"),
            "peak_rss_mb": named["peak_rss_mb"],
        }

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "rounds": {"untraced": len(plain), "traced": len(marked)},
        "setup_s_each": setup_s,
        "round_s_each": [r["round"] for r in plain + marked],
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digests": sorted(set(wl.digests)),
        "failures": gates.notes,
        "provenance": provenance(nproc, load_start),
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} rounds={len(plain)}"
          f"+{len(marked)} traced  nproc={nproc} "
          f"load={report['provenance']['loadavg_start'][0]:.2f}"
          f"->{report['provenance']['loadavg_end'][0]:.2f}")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for note in gates.notes:
        print(f"  FAILED: {note}")
    print(json.dumps({
        "correct": gates.failed == 0, "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
