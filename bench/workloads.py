"""Benchmark workloads: the items of one pass, and the checks on their outputs.

Each item is one call into the library or the CLI.  Its output is rendered
as text, digested, and checked against closed forms that hold for any seed.
Modules are looked up through ``importlib`` and their functions through the
module attribute at call time, so that the span tracer's wrappers are used
when it is installed (``latticecurves.polygon`` is shadowed by the
``polygon`` function in the package namespace).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

WORKLOADS = ("seshadri_sweep", "family_verify", "classify_scan")

# classify_scan's random stream: files of one polygon of each of these
# normalized volumes, so that every file, and every seed, asks for a similar
# mix of system sizes (50 exceeds --volume-max and costs a canonical form).
VOLUMES = (2, 4, 7, 12, 20, 30, 50)
BATCHES = 50
GRID_MAX = 6
POINTS = (3, 6)
STREAM_ARGS = ["--m-max", "6", "--volume-max", "36"]

# C² per family; the Seshadri constant of family F at m is m + C²/m.
FAMILY_C2 = {"I": -1, "II": -1, "III": -2, "IV": 0, "V": 0}


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable[[], str]          # returns the output text that is digested
    check: Callable[[str], bool]    # closed-form check of that output
    seeded: bool = False            # output depends on the workload seed


def _mod(name):
    return importlib.import_module(f"latticecurves.{name}")


def _cli(argv) -> Callable[[], str]:
    """Run ``cli.main`` in-process; a non-zero exit raises."""
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _mod("cli").main(list(argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return buf.getvalue()
    return run


def _family_ranges(top: int):
    return (("I", range(2, top + 1)), ("II", range(4, top + 1)),
            ("III", range(8, top + 1, 2)), ("IV", range(4, top + 1)),
            ("V", range(6, top + 1, 2)))


# --------------------------------------------------------------- seshadri_sweep

def seshadri_sweep(quick: bool) -> list[Item]:
    """Acceptance criterion 7 as library calls: 83 items, 25 when quick."""
    P = _mod("polygon")
    top = 6 if quick else 20
    fam_top = 6 if quick else 10
    items = []

    def estimate(poly, m, irreducible, want, ito):
        def run():
            est = _mod("seshadri").estimate(poly, m, irreducible=irreducible)
            return json.dumps(est.to_json())

        def check(out):
            est = json.loads(out)
            return (est["exact"] == str(want)
                    and (not ito or "ItoFamilyI" in est["certificates"]))
        return run, check

    for m in range(2, top + 1):
        tri = P.polygon((0, 0), (m, 1), (1, m))
        want = Fraction(m * m - 1, m)
        for irr, tag in ((True, "irr"), (False, "ito")):
            items.append(Item(f"tri/m{m}/{tag}", *estimate(tri, m, irr, want, True)))
    for m in range(4, top + 1):
        quad = P.polygon((0, 0), (0, 1), (m, 1), (1, m))
        items.append(Item(
            f"quad/m{m}",
            lambda quad=quad: str(_mod("seshadri").segment_equality(quad)),
            lambda out, m=m: out == str(m)))
    F = _mod("families")
    for fam, ms in _family_ranges(fam_top):
        for m in ms:
            poly = F.family_polygon(F.FamilySpec(fam, m))
            want = m + Fraction(FAMILY_C2[fam], m)
            items.append(Item(f"family/{fam}/m{m}",
                              *estimate(poly, m, True, want, False)))
    return items


# ---------------------------------------------------------------- family_verify

def family_verify(quick: bool) -> list[Item]:
    """``family --verify`` for I–IV up to m=10 through the CLI: 25 items, 8 when quick."""
    top = 5 if quick else 10
    items = []
    for fam, ms in _family_ranges(top):
        if fam == "V":
            continue  # family V has no parametrization to verify
        for m in ms:
            argv = ["family", "--id", fam, "--m", str(m), "--verify",
                    "--budget", str(max(m, 8))]
            items.append(Item(f"{fam}/m{m}", _cli(argv),
                              lambda out: json.loads(out)["passed"] is True))
    return items


# ---------------------------------------------------------------- classify_scan

def random_batches(seed: int) -> list[list[list[tuple[int, int]]]]:
    """BATCHES files, each with one set of 3–6 grid points per volume in VOLUMES."""
    rng = random.Random(seed)
    batches = []
    for _ in range(BATCHES):
        batch = []
        for volume in VOLUMES:
            while True:
                pts = sorted({(rng.randint(0, GRID_MAX), rng.randint(0, GRID_MAX))
                              for _ in range(rng.randint(*POINTS))})
                if _hull_volume(pts) == volume:
                    batch.append(pts)
                    break
        batches.append(batch)
    return batches


def write_stream(seed: int, directory: Path) -> None:
    """Write classify_scan's seeded dataset files, one per batch."""
    directory.mkdir(parents=True, exist_ok=True)
    for k, batch in enumerate(random_batches(seed)):
        lines = [" ".join(f"{x},{y}" for x, y in pts) for pts in batch]
        (directory / f"batch{k:02d}.txt").write_text("\n".join(lines) + "\n")


def _hull(points):
    """Counter-clockwise hull vertices (monotone chain), without collinear points."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and ((chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                                       - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]
    return half(pts) + half(pts[::-1])


def _hull_volume(points) -> int:
    return _volume_and_boundary(_hull(points))[0]


def _volume_and_boundary(vertices):
    """Normalized volume and boundary lattice count of a convex vertex cycle."""
    n = len(vertices)
    if n <= 2:  # a point or a segment
        (x0, y0), (x1, y1) = vertices[0], vertices[-1]
        return 0, gcd(x1 - x0, y1 - y0) + 1
    area2 = sum(vertices[i][0] * vertices[(i + 1) % n][1]
                - vertices[i][1] * vertices[(i + 1) % n][0] for i in range(n))
    b = sum(gcd(vertices[(i + 1) % n][0] - vertices[i][0],
                vertices[(i + 1) % n][1] - vertices[i][1]) for i in range(n))
    return abs(area2), b


def _hit_ok(hit) -> bool:
    """A unique-curve hit: invariants from the vertices, and the member's
    Newton polygon and multiplicity recomputed from its coefficients."""
    L = _mod("laurent")
    P = _mod("polygon")
    verts = [tuple(v) for v in hit["polygon"]["vertices"]]
    m = hit["m"]
    vol, b = _volume_and_boundary(verts)
    f = L.LaurentPolynomial.from_json(hit["polynomial"])
    return (hit["dimension"] == 1
            and hit["self_intersection"] == vol - m * m
            and Fraction(hit["arithmetic_genus"]) == Fraction(vol - b + m - m * m, 2) + 1
            and hit["irreducibility"] != "ReducibleByWitness"
            and f.newton_polygon() == P.LatticePolygon(tuple(verts)).translated_to_origin()
            and f.multiplicity_at_identity() >= m)


def _classify_ok(out, counts=None) -> bool:
    """Every hit checks out, and the hit counts per m are `counts` if given."""
    report = json.loads(out)
    hits = report["hits"]
    if report["count"] != len(hits) or not all(_hit_ok(h) for h in hits):
        return False
    return counts is None or Counter(h["m"] for h in hits) == counts


def classify_scan(quick: bool, seed: int, stream_dir: Path, data_dir: Path) -> list[Item]:
    """README ``classify --enumerate``, then one ``classify`` per stream file."""
    readme = ["classify", "--dataset", str(data_dir / "polygons.txt"),
              "--oracle", str(data_dir / "oracle_vol6.json"), "--enumerate"]
    items = [Item("readme", _cli(readme),
                  lambda out: _classify_ok(out, {1: 1, 2: 1, 3: 2, 4: 7}))]
    for k in range(2 if quick else BATCHES):
        argv = ["classify", "--dataset", str(stream_dir / f"batch{k:02d}.txt"),
                *STREAM_ARGS]
        items.append(Item(f"seed{seed}/batch{k:02d}", _cli(argv), _classify_ok,
                          seeded=True))
    return items
