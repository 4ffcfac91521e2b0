"""Benchmark of latticecurves: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop: one process issues its items back to back.
A run repeats passes over the items for about ``--seconds`` seconds, each
pass in a fresh interpreter (``worker.py``) so that no cache carries over
from one pass to the next, as for a CLI user.  Metrics are medians over the
passes.  With ``--trace 1`` the run alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, write_stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PASS_TIMEOUT_S = 170
# Every time is reported at the speed where the worker's reference
# computation takes this long (about this box's unloaded speed).
REFERENCE_S = 0.005

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def child_env() -> dict:
    """Serial classify, and BLAS/OpenMP threads capped at the usable cores."""
    env = dict(os.environ)
    env.pop("INTRINSIC_CURVES_JOBS", None)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def run_pass(workload, seed, traced, quick, index) -> dict:
    out = OUT / f"{workload}-pass.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--stream-dir", str(OUT / "stream"),
           "--trace", str(int(traced))]
    if traced:
        cmd += ["--spans", str(OUT / f"{workload}-spans-{index}.jsonl")]
    if quick:
        cmd.append("--quick")
    out.unlink(missing_ok=True)
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: pass exited with code {proc.returncode}")
    return json.loads(out.read_text())


def tail_rank(n: int) -> tuple[int, int]:
    """Highest whole percentile with at least 10 of n items beyond it (the
    maximum when n < 20), and its nearest rank."""
    q = 100 * (n - 10) // n if n >= 20 else 100
    return q, max(1, math.ceil(q * n / 100))


def scaled(p) -> tuple[float, list[float]]:
    """A pass's set-up and item times at reference speed.  The set-up ends
    where reference_s[0] starts; item i ran between reference_s[i] and
    reference_s[i + 1].  Each time is scaled by REFERENCE_S over the mean of
    the reference times next to it: the machine's speed changes within
    seconds, so wider windows follow it less well."""
    ref = p["reference_s"]
    times = [p["setup_s"]] + [t for _, t in p["items"]]
    out = [t * REFERENCE_S / statistics.fmean(ref[max(0, i - 1):i + 1])
           for i, t in enumerate(times)]
    return out[0], out[1:]


def end_to_end(passes) -> tuple[dict, str]:
    """Medians over the passes; the item percentiles are taken over each
    item's median time, which a burst of load in one pass does not move."""
    n = len(passes[0]["items"])
    q, rank = tail_rank(n)
    runs = [scaled(p) for p in passes]
    per_item = sorted(statistics.median(items[i] for _, items in runs) for i in range(n))
    attempted = n * len(passes)
    failed = sum(len(p["failed"]) for p in passes)
    values = {
        "setup_s": statistics.median(s for s, _ in runs),
        "pass_s": statistics.median(sum(items) for _, items in runs),
        "item_p50_ms": 1e3 * statistics.median(per_item),
        "item_tail_ms": 1e3 * per_item[rank - 1],
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        "success_ratio": (attempted - failed) / attempted,
    }
    raw = statistics.median(sum(t for _, t in p["items"]) for p in passes)
    ref = statistics.median(r for p in passes for r in p["reference_s"])
    return values, (f"{len(passes)} passes; item_tail_ms is p{q} of {n} items; "
                    f"unscaled pass {raw:.3f} s, reference {1e3 * ref:.2f} ms")


def per_layer(plain, traced) -> tuple[dict, str]:
    def layers(p):
        scale = REFERENCE_S / statistics.median(p["reference_s"])
        return {k: v * scale if k.endswith("_s") else v for k, v in p["layers"].items()}

    def pass_s(p):
        return sum(scaled(p)[1])

    per_pass = [layers(p) for p in traced]
    values = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = (statistics.median(map(pass_s, traced))
                                  - statistics.median(map(pass_s, plain)))
    return values, f"{len(traced)} traced and {len(plain)} untraced passes"


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"


def run_workload(workload, seed, seconds, trace, quick):
    """Passes for about `seconds`; returns (metrics, attempted, failed)."""
    if workload == "classify_scan":
        shutil.rmtree(OUT / "stream", ignore_errors=True)
        write_stream(seed, OUT / "stream")
    modes = (False, True) if trace else (False,)
    passes = {False: [], True: []}
    start = time.perf_counter()
    k = 0
    while True:
        t0 = time.perf_counter()
        traced = modes[k % len(modes)]
        passes[traced].append(run_pass(workload, seed, traced, quick, k))
        k += 1
        now = time.perf_counter()
        if k >= len(modes) and now - start + (now - t0) > seconds:
            break
    plain = passes[False]
    if trace:
        values, note = per_layer(plain, passes[True])
    else:
        values, note = end_to_end(plain)
    everything = plain + passes[True]
    attempted = sum(len(p["items"]) for p in everything)
    failed = sum(len(p["failed"]) for p in everything)
    print(f"# {workload} (seed {seed}): {note}")
    metrics = {}
    for name, value in values.items():
        unit = layer_unit(name) if trace else END_TO_END[name]
        print(f"{workload:15} {name:55} {value:14.6f} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="a few small items per workload, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "latticecurves" / "__init__.py").is_file():
        print(f"no latticecurves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = run_workload(name, args.seed, args.seconds, args.trace, args.quick)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
