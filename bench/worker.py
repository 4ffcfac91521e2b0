"""One pass of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --out RESULT.json
        [--stream-dir DIR] [--trace 0|1] [--spans SPANS.jsonl] [--quick] [--record]

Times the import of the library (set-up), then each item of the workload
back to back, then checks every output against its closed form and against
the digest recorded in ``digests.json``.  After the import and after each
item it times a fixed reference computation, so that the driver can scale
each time by the machine's speed at that moment.  Writes the timings,
failures and, when traced, the per-layer summary to ``--out``.
``--record`` stores this pass's digests instead of comparing them.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DIGESTS = os.path.join(HERE, "digests.json")


def load_library() -> float:
    """Import the package from this checkout's src/; returns seconds taken.
    Called before anything else is imported, so it pays for every module
    the library loads, as a CLI invocation does."""
    package = os.path.join(SRC, "latticecurves")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"no latticecurves package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import latticecurves
    import latticecurves.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(latticecurves.__file__)) != package:
        raise SystemExit(f"imported latticecurves from {latticecurves.__file__}")
    return elapsed


def main(argv=None) -> int:
    setup_s = load_library()
    import argparse
    import hashlib
    import json
    import resource
    import traceback
    from pathlib import Path

    import workloads
    from reference import reference_time

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--stream-dir", help="classify_scan dataset files")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    reference_time()  # warm-up: the first call pays for first-use costs
    reference = [reference_time()]
    if args.workload == "classify_scan":
        items = workloads.classify_scan(args.quick, args.seed, Path(args.stream_dir),
                                        Path(SRC) / "latticecurves" / "data")
    elif args.workload in workloads.WORKLOADS:
        items = getattr(workloads, args.workload)(args.quick)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    times, outputs = [], []
    for item in items:
        if tracer:
            tracer.item = item.id
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception:
            traceback.print_exc()
            out = None
        times.append(time.perf_counter() - t0)
        outputs.append(out)
        if tracer:
            tracer.item = None
        reference.append(reference_time())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    digests = Path(DIGESTS)
    recorded = json.loads(digests.read_text()) if digests.exists() else {}
    expected = recorded.setdefault(args.workload, {})
    failed = []
    for item, out in zip(items, outputs):
        if out is None:
            failed.append(item.id)
            continue
        if args.record:
            expected[item.id] = digest(out)
        want = expected.get(item.id)
        ok = want == digest(out) if want is not None else item.seeded
        if not (ok and item.check(out)):
            print(f"{args.workload} {item.id}: output check failed", file=sys.stderr)
            failed.append(item.id)
    if args.record:
        digests.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    result = {
        "setup_s": setup_s,
        "items": [[item.id, t] for item, t in zip(items, times)],
        "reference_s": reference,  # after the import, then after each item
        "rss_kb": rss_kb,
        "failed": failed,
    }
    if tracer:
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
