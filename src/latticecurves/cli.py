"""Command-line front end: JSON-first reports over all toolkit modules.

Exit codes: 0 success, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .classify import classify_dataset, numeric_invariants
from .errors import LatticeCurveError, ParseError
from .families import FAMILIES, FamilySpec, family_invariants, verify_family_end_to_end
from .laurent import LaurentPolynomial, verify_factorization
from .linsys import compute_system
from .polygon import LatticePolygon, canonical_form, enumerate_polygons, polygon
from .seshadri import estimate, rationality_certificates, width_upper_bound
from .surface import rr_polygon, verify_ek, verify_ek_symbolic, verify_ledger
from .wpp import WppContext, best_approximation, ingest_table, intrinsic_minus_one


def parse_vertices(text: str) -> LatticePolygon:
    pts = []
    for tok in text.split():
        x, y = tok.split(",")
        pts.append((int(x), int(y)))
    return polygon(*pts)


def ingest_polygon_dataset(path):
    """Yield polygons from a text file, one per line: "x1,y1 x2,y2 ..."."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#")[0].strip()
            if not line:
                continue
            try:
                yield parse_vertices(line)
            except (ValueError, LatticeCurveError) as exc:
                raise ParseError(f"bad polygon line: {exc}", lineno) from exc


def load_oracle(path):
    """Reducibility annotations keyed by (canonical vertices, m); verified."""
    with open(path) as fh:
        raw = json.load(fh)
    oracle = {}
    for index, item in enumerate(raw):
        try:
            poly = LatticePolygon.from_json(item["polygon"])
            m = int(item["m"])
            if item["verdict"] != "reducible":
                continue
            factors = tuple(LaurentPolynomial.from_json(f) for f in item["factors"])
            member = compute_system(poly, m).members()
        except (KeyError, TypeError, ValueError, ZeroDivisionError,
                LatticeCurveError) as exc:
            raise ParseError(f"oracle entry {index}: {exc!r}") from exc
        if not member or not verify_factorization(member[0], factors):
            raise ParseError(
                f"oracle entry {index}: factors do not reproduce the system "
                f"member for {poly.vertices} at m={m}")
        oracle[(canonical_form(poly)[0].vertices, m)] = factors
    return oracle


def _emit(obj, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, default=str))
    else:
        print(json.dumps(obj, default=str))


def cmd_polygon_info(args) -> int:
    poly = parse_vertices(args.vertices)
    total, b, i = poly.lattice_counts()
    out = {
        "vertices": [list(v) for v in poly.vertices],
        "vol": poly.volume,
        "boundary": b,
        "interior": i,
        "total": total,
        "degenerate": poly.is_degenerate,
    }
    if not poly.is_degenerate:
        lw, direction = poly.lattice_width()
        out["lattice_width"] = lw
        out["width_direction"] = list(direction)
        out["canonical"] = [list(v) for v in canonical_form(poly)[0].vertices]
    if args.m:
        pair = numeric_invariants(poly, args.m)
        out["m"] = args.m
        out["self_intersection"] = pair.self_intersection
        out["arithmetic_genus"] = str(pair.arithmetic_genus)
    _emit(out, args.pretty)
    return 0


def cmd_linsys(args) -> int:
    poly = parse_vertices(args.vertices)
    system = compute_system(poly, args.m)
    out = {
        "m": args.m,
        "total_points": system.total,
        "conditions": system.conditions,
        "dimension": system.dimension,
        "members": [f.to_json() for f in system.members()],
    }
    _emit(out, args.pretty)
    return 0


def cmd_classify(args) -> int:
    polys = list(ingest_polygon_dataset(args.dataset))
    if args.enumerate:
        polys += enumerate_polygons()
    oracle = load_oracle(args.oracle) if args.oracle else None
    hits = classify_dataset(polys, args.m_max, args.volume_max, oracle,
                            jobs=args.jobs or None)
    _emit({"hits": [h.to_json() for h in hits], "count": len(hits)}, args.pretty)
    return 0


def cmd_family(args) -> int:
    spec = FamilySpec(args.id, args.m)
    if args.verify:
        report = verify_family_end_to_end(spec, budget=args.budget)
        _emit(report, args.pretty)
        return 0 if report["passed"] else 1
    c2, g, lw = family_invariants(spec)
    _emit({"family": args.id, "m": args.m, "C2": c2, "genus": g,
           "lattice_width": lw}, args.pretty)
    return 0


def cmd_surface(args) -> int:
    out = {"ledger": verify_ledger(), "symbolic": verify_ek_symbolic()}
    ek = {}
    for k in range(-args.k_range, args.k_range + 1):
        if k:
            ek[str(k)] = verify_ek(k)["passed"]
    out["e_k"] = ek
    rr = {}
    for k in range(1, args.rr_range + 1):
        _, rep = rr_polygon(k)
        rr[str(k)] = rep
    out["riemann_roch"] = rr
    ok = (out["ledger"]["passed"] and out["symbolic"]["passed"]
          and all(ek.values()) and all(r["passed"] for r in rr.values()))
    _emit(out, args.pretty)
    return 0 if ok else 1


def cmd_seshadri(args) -> int:
    poly = parse_vertices(args.vertices)
    out = {"width_upper_bound": width_upper_bound(poly)}
    if args.m:
        out["certificates"] = rationality_certificates(poly, args.m)
        est = estimate(poly, args.m, irreducible=args.irreducible)
        out["estimate"] = est.to_json()
    else:
        out["certificates"] = rationality_certificates(poly)
    _emit(out, args.pretty)
    return 0


def cmd_wpp(args) -> int:
    ctx = WppContext(args.a, args.b, args.c)
    entries = ingest_table(args.table)
    out = {"weights": [args.a, args.b, args.c], "entries": len(entries)}
    if args.best:
        e = best_approximation(ctx, entries)
        out["best"] = {"d": e.d, "m": e.m, "slope": str(Fraction(e.d, e.m))}
        e1 = best_approximation(ctx, entries, intrinsic_minus_one)
        out["best_intrinsic_minus_one"] = {
            "d": e1.d, "m": e1.m, "slope": str(Fraction(e1.d, e1.m))}
    _emit(out, args.pretty)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latticecurves",
        description="exact computations with curves on blown-up toric surfaces",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--pretty", action="store_true")
        p.set_defaults(fn=fn)
        return p

    p = add("polygon-info", cmd_polygon_info)
    p.add_argument("--vertices", required=True)
    p.add_argument("--m", type=int, default=0)

    p = add("linsys", cmd_linsys)
    p.add_argument("--vertices", required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("classify", cmd_classify)
    p.add_argument("--dataset", required=True)
    p.add_argument("--oracle")
    p.add_argument("--m-max", type=int, default=4)
    p.add_argument("--volume-max", type=int, default=16)
    p.add_argument("--enumerate", action="store_true",
                   help="append the built-in small-volume enumeration")
    p.add_argument("--jobs", type=int, default=0)

    p = add("family", cmd_family)
    p.add_argument("--id", required=True, choices=FAMILIES)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--budget", type=int, default=8)

    p = add("surface", cmd_surface)
    p.add_argument("--k-range", type=int, default=50)
    p.add_argument("--rr-range", type=int, default=10)

    p = add("seshadri", cmd_seshadri)
    p.add_argument("--vertices", required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--irreducible", action="store_true")

    p = add("wpp", cmd_wpp)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--table")
    p.add_argument("--best", action="store_true")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, LatticeCurveError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
