"""Command-line front end: one JSON report per run, over all toolkit modules.

Each call builds one parser: the named command's own, or the full parser for any
other argv. Exit codes: 0 success, 1 a verification failed, 2 bad input, 141 the
reader closed standard output early (as a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .classify import classify_dataset, numeric_invariants
from .errors import LatticeCurveError, ParseError, RangeError
from .families import FAMILIES, FamilySpec, family_invariants, verify_family_end_to_end
from .laurent import LaurentPolynomial, verify_factorization
from .linsys import compute_system
from .polygon import LatticePolygon, canonical_form, enumerate_polygons, json_int, polygon
from .seshadri import estimate, rationality_certificates, width_upper_bound
from .surface import rr_polygon, verify_ek, verify_ek_symbolic, verify_ledger
from .wpp import WppContext, best_approximation, ingest_table, intrinsic_minus_one


def integer(text: str) -> int:
    """An optional sign and ASCII digits (int() alone also reads 1_0 and ٢), as a coordinate
    or an integer option.  Else a ParseError, which argparse lets through to `main`: exit 2."""
    try:
        if text.isascii() and "_" not in text:
            return int(text)
    except ValueError:
        pass
    raise ParseError(f"bad integer {text!r}: expected an optional sign and ASCII digits")


def parse_vertices(text: str) -> LatticePolygon:
    pts = []
    for tok in text.split():
        try:
            x, y = map(integer, tok.split(","))
        except (ValueError, ParseError):
            raise ParseError(f"bad vertex {tok!r}: expected x,y with integer x and y") from None
        pts.append((x, y))
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
    """Reducibility annotations keyed by (canonical vertices, m).

    Entries with the verdict "irreducible" are skipped, any verdict but that and
    "reducible" is an error.  This is the one place a witness is checked: a reducible
    entry is accepted only when L(Δ, m) holds one curve and its factors are two or more
    non-monomials whose product is that member up to a unit and scalar
    (`laurent.verify_factorization`).  `classify_dataset` trusts the pairs it is given."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ParseError("oracle file must hold a JSON list of entries")
    oracle = {}
    for index, item in enumerate(raw):
        try:
            poly = LatticePolygon.from_json(item["polygon"])
            m = json_int(item["m"])
            if item["verdict"] == "irreducible":
                continue
            if item["verdict"] != "reducible":
                raise ValueError(f"verdict {item['verdict']!r}, not reducible or irreducible")
            factors = tuple(LaurentPolynomial.from_json(f) for f in item["factors"])
            system = compute_system(poly, m)
        except (KeyError, IndexError, TypeError, ValueError, OverflowError,
                ZeroDivisionError, LatticeCurveError) as exc:
            raise ParseError(f"oracle entry {index}: {exc!r}") from exc
        if system.dimension != 1:
            raise ParseError(f"oracle entry {index}: the system for {poly.vertices} at m={m} "
                             f"has dimension {system.dimension}, not one curve")
        if (len(factors) < 2 or any(f.is_monomial() for f in factors)
                or not verify_factorization(system.members()[0], factors)):
            raise ParseError(
                f"oracle entry {index}: factors are not two or more non-monomials "
                f"whose product is the system member for {poly.vertices} at m={m}")
        oracle[(canonical_form(poly).vertices, m)] = factors
    return oracle


def cmd_polygon_info(args) -> tuple[dict, int]:
    poly = parse_vertices(args.vertices)
    total, b, i = poly.lattice_counts()
    out = {"vertices": [list(v) for v in poly.vertices], "vol": poly.volume, "boundary": b,
           "interior": i, "total": total, "degenerate": poly.is_degenerate}
    if not poly.is_degenerate:
        lw, direction = poly.lattice_width()
        out["lattice_width"] = lw
        out["width_direction"] = list(direction)
        out["canonical"] = [list(v) for v in canonical_form(poly).vertices]
    if args.m is not None:
        pair = numeric_invariants(poly, args.m)
        out["m"] = args.m
        out["self_intersection"] = pair.self_intersection
        out["arithmetic_genus"] = str(pair.arithmetic_genus)
    return out, 0


def cmd_linsys(args) -> tuple[dict, int]:
    poly = parse_vertices(args.vertices)
    system = compute_system(poly, args.m)
    return {
        "m": args.m,
        "total_points": system.total,
        "conditions": system.conditions,
        "dimension": system.dimension,
        "members": [f.to_json() for f in system.members()],
    }, 0


def cmd_classify(args) -> tuple[dict, int]:
    polys = list(ingest_polygon_dataset(args.dataset))
    if args.enumerate:
        polys += enumerate_polygons()
    oracle = load_oracle(args.oracle) if args.oracle else None
    hits = classify_dataset(polys, args.m_max, args.volume_max, oracle, jobs=args.jobs)
    return {"hits": [h.to_json() for h in hits], "count": len(hits)}, 0


def cmd_family(args) -> tuple[dict, int]:
    spec = FamilySpec(args.id, args.m)
    if args.verify:
        report = verify_family_end_to_end(spec, budget=args.budget)
        return report, 0 if report["passed"] else 1
    c2, g, lw = family_invariants(spec)
    return {"family": args.id, "m": args.m, "C2": c2, "genus": g, "lattice_width": lw}, 0


def cmd_surface(args) -> tuple[dict, int]:
    if min(args.k_range, args.rr_range) < 0:
        raise RangeError("--k-range and --rr-range must be nonnegative")
    out = {"ledger": verify_ledger(), "symbolic": verify_ek_symbolic()}
    out["e_k"] = ek = {str(k): verify_ek(k)["passed"]
                       for k in range(-args.k_range, args.k_range + 1) if k}
    out["riemann_roch"] = rr = {str(k): rr_polygon(k)[1] for k in range(1, args.rr_range + 1)}
    ok = (out["ledger"]["passed"] and out["symbolic"]["passed"]
          and all(ek.values()) and all(r["passed"] for r in rr.values()))
    return out, 0 if ok else 1


def cmd_seshadri(args) -> tuple[dict, int]:
    if args.irreducible and args.m is None:
        raise RangeError("--irreducible needs --m")
    poly = parse_vertices(args.vertices)
    out = {"width_upper_bound": width_upper_bound(poly),
           "certificates": rationality_certificates(poly, args.m)}
    if args.m is not None:
        out["estimate"] = estimate(poly, args.m, irreducible=args.irreducible).to_json()
    return out, 0


def cmd_wpp(args) -> tuple[dict, int]:
    ctx = WppContext(args.a, args.b, args.c)
    entries = ingest_table(args.table)
    out = {"weights": [args.a, args.b, args.c], "entries": len(entries)}
    if args.best:
        for key, predicate in (("best", None), ("best_intrinsic_minus_one", intrinsic_minus_one)):
            e = best_approximation(ctx, entries, predicate)
            out[key] = {"d": e.d, "m": e.m, "slope": str(Fraction(e.d, e.m))}
    return out, 0


# name -> (handler, options); each option is (flag, add_argument keywords).
# A handler returns (report, exit code) and writes nothing: `main` prints.
COMMANDS = {
    "polygon-info": (cmd_polygon_info, (("--vertices", {"required": True}),
                                        ("--m", {"type": integer}))),
    "linsys": (cmd_linsys, (("--vertices", {"required": True}),
                            ("--m", {"type": integer, "required": True}))),
    "classify": (cmd_classify, (
        ("--dataset", {"required": True}), ("--oracle", {}),
        ("--m-max", {"type": integer, "default": 4}),
        ("--volume-max", {"type": integer, "default": 16}),
        ("--enumerate", {"action": "store_true",
                         "help": "append the built-in small-volume enumeration"}),
        ("--jobs", {"type": integer, "default": 0}))),
    "family": (cmd_family, (
        ("--id", {"required": True, "choices": FAMILIES}),
        ("--m", {"type": integer, "required": True}), ("--verify", {"action": "store_true"}),
        ("--budget", {"type": integer, "default": 20}))),
    "surface": (cmd_surface, (("--k-range", {"type": integer, "default": 50}),
                              ("--rr-range", {"type": integer, "default": 10}))),
    "seshadri": (cmd_seshadri, (("--vertices", {"required": True}), ("--m", {"type": integer}),
                                ("--irreducible", {"action": "store_true"}))),
    "wpp": (cmd_wpp, (
        ("--a", {"type": integer, "required": True}),
        ("--b", {"type": integer, "required": True}),
        ("--c", {"type": integer, "required": True}), ("--table", {}),
        ("--best", {"action": "store_true"}))),
}


def _fill(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    fn, options = COMMANDS[name]
    p.add_argument("--pretty", action="store_true")
    for flag, kw in options:
        p.add_argument(flag, **kw)
    p.set_defaults(fn=fn, command=name)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The full parser: help, version, errors and argv no command's own parser takes."""
    ap = argparse.ArgumentParser(prog="latticecurves", description="exact computations "
                                 "with curves on blown-up toric surfaces")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _fill(sub.add_parser(name), name)
    return ap


def parse_args(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, from the command's own parser when it takes every
    token; a leftover is the root parser's error, so the full parser reports it."""
    if argv and argv[0] in COMMANDS:
        one = argparse.ArgumentParser(prog=f"latticecurves {argv[0]}")
        args, rest = _fill(one, argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        report, code = args.fn(args)
        print(json.dumps(report, indent=2 if args.pretty else None), flush=True)
        return code
    except BrokenPipeError:
        # the reader closed stdout (the print flushes, so it shows here): send the
        # rest to devnull, so the flush at exit cannot raise, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, LatticeCurveError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
