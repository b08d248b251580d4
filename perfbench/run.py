"""zmspec benchmark: one workload on a closed loop with one client.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Each case starts when the previous one finishes.  Passes over
the workload's case list repeat until ``--seconds`` have elapsed, at
least two of them (the pass under way is finished).  Every case passes through its correctness
gate; a failed gate or an exception counts as a failed attempt.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the
traced ones (medians over passes) plus the tracing overhead, and writes
every span to ``.perfbench_out/spans-<workload>.jsonl``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# name -> (unit, better); BENCHMARK.json lists the same names
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "slowest_case_s": ("s", "lower"),
    "entries_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: set up only and report the seconds since the given wall time
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use; must run
    before numpy is imported.  Returns the cap."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def machine(nproc: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": nproc,
        "note": "shared machine; no system tuning and no cache dropping was done",
    }


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter to the moment it would
    start its first timed case (import, inputs and warm-up included)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--setup-probe", repr(time.time())]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def run_passes(cases, seconds: float, tracer=None) -> list[dict]:
    """Closed loop: at least two passes over ``cases``, more until ``seconds``
    have elapsed.  With a tracer, passes alternate untraced and traced."""
    from workloads import attempt

    passes: list[dict] = []
    case_id = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        ids, times, oks = [], [], []
        t_pass = time.perf_counter()
        try:
            for case in cases:
                if traced:
                    tracer.case = case_id
                t0 = time.perf_counter()
                ok = attempt(case)
                times.append(time.perf_counter() - t0)
                oks.append(ok)
                ids.append(case_id)
                case_id += 1
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "seconds": time.perf_counter() - t_pass,
                       "case_seconds": times, "ok": oks, "case_ids": ids,
                       "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        if len(passes) >= 2 and time.perf_counter() - start >= seconds:
            return passes


def tally(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over every timed case of every pass."""
    attempted = sum(len(p["ok"]) for p in passes)
    return attempted, attempted - sum(sum(p["ok"]) for p in passes)


def end_to_end(cases, passes: list[dict], setups: list[float]) -> dict[str, float]:
    pass_s = statistics.median(p["seconds"] for p in passes)
    attempted, failed = tally(passes)
    return {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "slowest_case_s": statistics.median(max(p["case_seconds"]) for p in passes),
        "entries_per_s": sum(c.entries for c in cases) / pass_s,
        # after the first pass: later passes repeat the same allocations and
        # only add allocator fragmentation, which varies from run to run
        "peak_rss_mib": passes[0]["maxrss_kib"] / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(passes: list[dict], tracer: tracing.Tracer) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = tracing.median_metrics(
        [tracing.pass_metrics(tracer.spans, set(p["case_ids"])) for p in traced])
    traced_s = statistics.median(p["seconds"] for p in traced)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - statistics.median(p["seconds"] for p in plain)
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    if not (SRC / "zmspec" / "__init__.py").is_file():
        print(f"error: no zmspec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe is not None:
        workloads.set_up(args.workload, args.seed)
        print(time.time() - args.setup_probe)
        return 0

    info = machine(nproc)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} closed loop, 1 client")
    print("# machine " + json.dumps(info))
    setups = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    cases = workloads.set_up(args.workload, args.seed)
    print("# case order: " + " ".join(c.name for c in cases))

    if args.trace:
        tracer = tracing.Tracer()
        passes = run_passes(cases, args.seconds, tracer)
        metrics = per_layer(passes, tracer)
        units = tracing.LAYER_UNITS
        header = {"workload": args.workload, "seed": args.seed, "machine": info,
                  "cases": [[cid, cases[i].name, p["case_seconds"][i], p["ok"][i]]
                            for p in passes if p["traced"]
                            for i, cid in enumerate(p["case_ids"])]}
        tracing.write_spans(OUT_DIR / f"spans-{args.workload}.jsonl", header, tracer.spans)
    else:
        passes = run_passes(cases, args.seconds)
        metrics = end_to_end(cases, passes, setups)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}

    attempted, failed = tally(passes)
    print(f"# passes={len(passes)} attempted={attempted} failed={failed} pass seconds: "
          + " ".join(f"{p['seconds']:.3f}{'(traced)' if p['traced'] else ''}" for p in passes))
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
