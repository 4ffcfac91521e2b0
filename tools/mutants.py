"""Mutation checks: each entry breaks the library on purpose, and the tests
it names must fail on the broken copy.

    python3 tools/mutants.py            # every entry
    python3 tools/mutants.py NAME ...   # the named entries

For each entry the runner copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory, checks that the old snippet occurs exactly once in the
file, replaces it with the new one and runs the named tests there under a
timeout.  The named tests are first run once on an unbroken copy, where they
must pass.  An entry fails the run when a named test still passes (the
mutant survived), when the run times out, or when its snippet no longer
matches, which means the table needs updating, not that the mutant was
caught.  The file name keeps it out of the default test collection.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

LAURENT = "src/latticecurves/laurent.py"
BATCH_TESTS = [
    "tests/test_laurent.py::test_res_mod_batch_strips_lead_runs_and_finishes_rows_apart",
    "tests/test_laurent.py::test_res_mod_matches_sylvester_determinant",
    "tests/test_laurent.py::test_res_mod_batch_matches_scalar_euclid",
    "tests/test_laurent.py::test_res_mod_batch_takes_every_branch_like_scalar_euclid",
]
# the two batch tests that take about 0.1 s each
FAST_BATCH_TESTS = BATCH_TESTS[2:]
RESULTANT_TEST = "tests/test_laurent.py::test_resultant_matches_direct_expansion"
RANDOM_RESULTANT_TEST = f"{RESULTANT_TEST}_on_random_laurent_inputs"
SHARES_FACTOR_TEST = "tests/test_laurent.py::test_shares_factor_matches_fraction_euclid"
FAMILIES = "src/latticecurves/families.py"
CLI = "src/latticecurves/cli.py"
LINSYS = "src/latticecurves/linsys.py"
ELIMINATION_TEST = "tests/test_linsys.py::test_forward_elimination_matches_gauss_jordan"
POLYGON = "src/latticecurves/polygon.py"
DECOMPOSITION_TEST = "tests/test_polygon.py::test_is_decomposable_matches_the_decomposition_search"
CLOSED_STDOUT = "tests/test_cli.py::test_closed_stdout_exits_141_without_a_message"
BAD_ORACLE_TEST = "tests/test_cli.py::test_bad_oracle_entry_names_its_index"
MALFORMED_TEST = "tests/test_cli.py::test_malformed_input_exits_2_without_traceback"
SESHADRI = "src/latticecurves/seshadri.py"
WIDTH_TEST = "tests/test_properties.py::test_width_matches_the_ten_direction_scan"
CLASSIFY = "src/latticecurves/classify.py"

# (name, file, old snippet, new snippet, test node ids that must fail)
MUTANTS = [
    ("strip drops the sign (-1)^m of each vanishing a-lead", LAURENT,
     "odd ^ db * j, da - j", "odd, da - j", BATCH_TESTS),
    ("strip credits a run of k vanishing leads once", LAURENT,
     "times(e + j, B[:, 0])", "times(e + np.minimum(j, 1), B[:, 0])", BATCH_TESTS),
    ("lockstep swap drops its sign (-1)^(nm)", LAURENT,
     "odd ^ dd * swap, np.maximum(da, db)", "odd, np.maximum(da, db)", BATCH_TESTS),
    ("entry swap drops its sign (-1)^(nm)", LAURENT,
     "A, B, da, db, odd = B, A, db, da, odd ^ da * db", "A, B, da, db = B, A, db, da",
     BATCH_TESTS),
    ("strip never lowers the degree: the pass bound raises ArithmeticError", LAURENT,
     "odd ^ db * j, da - j", "odd ^ db * j, da", BATCH_TESTS),
    ("batch inverse takes the prefix product through its own entry, the wrong neighbour",
     LAURENT, "* v[0, :, :-1] % q", "* v[0, :, 1:] % q",
     ["tests/test_laurent.py::test_inverse_mod_matches_pow", *BATCH_TESTS]),
    ("the side evaluation takes the nodes 0..n-1, not 1..n", LAURENT,
     "np.arange(1, n + 1)[:, None]", "np.arange(n)[:, None]",
     [RESULTANT_TEST, "tests/test_laurent.py::test_side_residues_match_exact_evaluation"]),
    ("the v side is broadcast along u, like the u side", LAURENT,
     "np.repeat(b, nu, axis=1)", "np.tile(b, (1, nu, 1))",
     [RESULTANT_TEST, RANDOM_RESULTANT_TEST]),
    ("the grid has one u node too few", LAURENT,
     "nu, nv = np.array(primes), deg_b + 1, deg_a + 1",
     "nu, nv = np.array(primes), deg_b, deg_a + 1", [RESULTANT_TEST, RANDOM_RESULTANT_TEST]),
    ("the lift skips the coefficients that vanish mod the first prime", LAURENT,
     "np.nonzero(coeffs.any(axis=1))", "np.nonzero(coeffs[:, 0])",
     ["tests/test_laurent.py::test_resultant_keeps_a_coefficient_that_vanishes_mod_a_prime"]),
    ("the suffix products stop one column early", LAURENT,
     "for e in range(width - 1, 0, -1):", "for e in range(width - 1, 1, -1):", FAST_BATCH_TESTS),
    ("a finished row keeps its b", LAURENT,
     "B[done], da[done], db[done] = cols == 0, -1, -1", "da[done], db[done] = -1, -1",
     FAST_BATCH_TESTS),
    ("the batch drops the gathered sign", LAURENT,
     "np.where(odd & 1, (p - res) % p, res)", "res", FAST_BATCH_TESTS),
    ("the batch inverse takes every block's total mod the first prime", LAURENT,
     "zip(v[0, :, -1].tolist(), p.tolist())", "zip(v[0, :, -1].tolist(), p[:1].tolist() * len(p))",
     ["tests/test_laurent.py::test_inverse_mod_matches_pow"]),
    ("the batch inverse drops the suffix products", LAURENT,
     " % q * v[1, :, -2::-1] % q", " % q",
     ["tests/test_laurent.py::test_inverse_mod_matches_pow"]),
    ("a finished row takes its constant to one power too few", LAURENT,
     "times(np.where(done, da + db, 0),", "times(np.where(done, np.maximum(da + db - 1, 0), 0),",
     FAST_BATCH_TESTS),
    ("the interpolation inverts its node gaps mod the first prime only", LAURENT,
     "for q in p.ravel().tolist()]", "for q in p.ravel()[:1].tolist() * p.size]",
     ["tests/test_laurent.py::test_interpolate_mod_recovers_integer_polynomials"]),
    ("shares_factor never finds a factor", LAURENT,
     "        if mod * mod > bound:\n            return True\n",
     "        if mod * mod > bound:\n            return False\n", [SHARES_FACTOR_TEST]),
    ("shares_factor trusts the first prime", LAURENT,
     "        if mod * mod > bound:\n", "        if True:\n", [SHARES_FACTOR_TEST]),
    ("shares_factor calls gcd(0, 0) and gcd(0, c) shared", LAURENT,
     "return min(n, m) < 0 < max(n, m)", "return min(n, m) < 0", [SHARES_FACTOR_TEST]),
    ("the perfect-power search has no candidates", LAURENT,
     "for k in range(edge_gcd, 1, -1):", "for k in range(1, 1, -1):",
     ["tests/test_laurent.py::test_perfect_power_extraction",
      "tests/test_laurent.py::test_implicitize_reduces_the_square_of_a_torus_curve"]),
    ("a power root is taken without the exact check g^k == f", LAURENT,
     "if prod([g] * k) == f:", "if True:",
     ["tests/test_laurent.py::test_integer_power_route_matches_fraction_route"]),
    ("family III's f2 is rescaled by d", FAMILIES,
     "f2 = t(2 * k - 3) * UniPoly([-n, d])", "f2 = d * t(2 * k - 3) * UniPoly([-n, d])",
     ["tests/test_families.py::test_family_iii_s_form_has_the_image_of_the_t_form"]),
    ("the family polygon comparison drops the translation", FAMILIES,
     "np_.translated_to_origin() == target.translated_to_origin()", "np_ == target",
     ["tests/test_families.py::test_newton_polygon_match_ignores_translation"]),
    ("Horner never refreshes buf[0] with the next divided difference", LAURENT,
     "        buf[0] = c[k]\n", "",
     ["tests/test_laurent.py::test_interpolate_mod_recovers_integer_polynomials",
      RESULTANT_TEST]),
    ("uni_resultant keeps one prime fewer once it has taken two or more", LAURENT,
     "        primes.append(next(stream))\n",
     "        primes.append(next(stream))\n"
     "    primes = primes[:-1] if len(primes) > 1 else primes\n",
     ["tests/test_laurent.py::test_resultant_matches_direct_expansion_with_huge_coefficients",
      "tests/test_laurent.py::test_implicitize_vanishes_on_random_parametrizations"]),
    ("_reduce_mod skips the last back-substitution step", LINSYS,
     "for k in range(len(pivots) - 1, 0, -1):", "for k in range(len(pivots) - 1, 1, -1):",
     [ELIMINATION_TEST]),
    ("_reduce_mod bounds the pivot row and its update at column tail - 1", LINSYS,
     "t = int(tail[r]) + 1", "t = int(tail[r])", [ELIMINATION_TEST]),
    ("_reduce_mod stops its update one row before the last hit", LINSYS,
     "a[r + 1:r + int(hit[-1]) + 1, c:t]", "a[r + 1:r + int(hit[-1]), c:t]", [ELIMINATION_TEST]),
    ("_reduce_mod pivots on the first hit, not on the one of least tail", LINSYS,
     "i = r + int(hit[tail[r + hit].argmin()])", "i = r + int(hit[0])", [ELIMINATION_TEST]),
    ("estimate tries SegmentEquality only when lw < vol/m", SESHADRI,
     "if lw <= upper and", "if lw < upper and",
     ["tests/test_seshadri.py::test_count_route_matches_kernel_route",
      "tests/test_seshadri.py::"
      "test_estimate_walks_points_and_builds_forms_only_where_they_can_enter"]),
    ("the classify scan solves on past a one-curve system", CLASSIFY,
     "if system.dimension < 2:", "if system.dimension < 1:",
     ["tests/test_classify.py::test_scan_solves_only_its_first_system"]),
    ("SegmentEquality reads the slices one offset to the right", POLYGON,
     "offsets = range(lo, hi + 1)", "offsets = range(lo + 1, hi + 2)",
     ["tests/test_polygon.py::test_reduced_slices_by_length_match_fraction_lengths",
      "tests/test_seshadri.py::test_segment_equality_matches_pair_search"]),
    ("the segment walk prunes a partial sum that the |dx| still to come can bring back",
     POLYGON, "if abs(sx) <= left_x and", "if abs(sx) < left_x and", [DECOMPOSITION_TEST]),
    ("is_decomposable takes the two trivial closing choices for a decomposition", POLYGON,
     "[-1][0, 0] > 2", "[-1][0, 0] > 1", [DECOMPOSITION_TEST]),
    ("the backward walk never takes every segment of an edge", POLYGON,
     "        for c in range(g + 1):\n            s = (x - c * dx, y - c * dy)",
     "        for c in range(g):\n            s = (x - c * dx, y - c * dy)", [DECOMPOSITION_TEST]),
    ("the command's own parser reports a leftover token itself, not the root parser", CLI,
     "        args, rest = _fill(one, argv[0]).parse_known_args(argv[1:])\n"
     "        if not rest:\n            return args\n",
     "        return _fill(one, argv[0]).parse_args(argv[1:])\n",
     ["tests/test_cli.py::test_one_subparser_parses_like_the_full_parser"
      "[classify --dataset x --bogus]"]),
    ("every call builds the full parser too", CLI,
     "if argv and argv[0] in COMMANDS:", "if argv and argv[0] in COMMANDS and build_parser():",
     ["tests/test_cli.py::test_main_builds_only_the_parser_it_runs"]),
    ("a closed stdout exits 1, not 141", CLI, "return 141", "return 1",
     [f"{CLOSED_STDOUT}[argv0-300]", f"{CLOSED_STDOUT}[argv1-0]"]),
    ("a closed stdout is not pointed at devnull", CLI,
     "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())\n", "",
     [f"{CLOSED_STDOUT}[argv1-0]"]),
    ("main prints its report without a flush", CLI, ", flush=True)", ")",
     [f"{CLOSED_STDOUT}[argv1-0]"]),
    ("load_oracle accepts a system of several curves", CLI,
     "if system.dimension != 1:", "if system.dimension < 1:",
     [BAD_ORACLE_TEST]),
    ("load_oracle reads the factors of every verdict", CLI,
     '            if item["verdict"] == "irreducible":\n                continue\n', "",
     ["tests/test_cli.py::test_load_oracle_verifies"]),
    ("load_oracle accepts factors whose product is not the member", CLI,
     "\n                or not verify_factorization(system.members()[0], factors))", ")",
     [BAD_ORACLE_TEST, f"{MALFORMED_TEST}[oracle-wrong-product]"]),
    ("load_oracle accepts monomial factors", CLI,
     "len(factors) < 2 or any(f.is_monomial() for f in factors)", "len(factors) < 2",
     [BAD_ORACLE_TEST, f"{MALFORMED_TEST}[oracle-monomial-factor]"]),
    ("a Seshadri estimate is exact at its upper bound whatever its lower bound", SESHADRI,
     "return self.upper if self.lower == self.upper else None", "return self.upper",
     ["tests/test_seshadri.py::test_count_route_matches_kernel_route",
      "tests/test_seshadri.py::test_estimate_is_exact_only_where_a_lower_bound_meets_vol_over_m"]),
    ("a hit warns when its verdict is IrreducibleByIndecomposability", CLASSIFY,
     '"warning": self.irreducibility == INCONCLUSIVE',
     '"warning": self.irreducibility == "IrreducibleByIndecomposability"',
     ["tests/test_cli.py::test_readme_classify_stdout_is_golden",
      "tests/test_classify.py::test_exempt_hits_above_the_width"]),
    ("minus_n returns the self-intersection, not its negative", CLASSIFY,
     "return -self.self_intersection if", "return self.self_intersection if",
     ["tests/test_classify.py::test_numeric_invariants_examples"]),
    ("the hull starts one vertex past the least", POLYGON,
     "    return tuple(lower[:-1] + upper[:-1])",
     "    return tuple((lower[:-1] + upper[:-1])[1:] + (lower[:-1] + upper[:-1])[:1])",
     ["tests/test_polygon.py::test_hull_starts_at_the_least_vertex_and_turns_left",
      "tests/test_polygon.py::test_hull_strips_interior_and_collinear_points"]),
    ("the decomposition search raises ValueError past its limit, not RangeError", POLYGON,
     'raise RangeError(f"decomposition search', 'raise ValueError(f"decomposition search',
     ["tests/test_polygon.py::test_is_decomposable_past_the_search_limit"]),
    ("a horizontal segment takes the normal (0, -1)", POLYGON,
     "if dy < 0 or (dy == 0 and dx > 0) else", "if dy < 0 else",
     ["tests/test_polygon.py::test_lattice_width_examples"]),
    ("the width reads the reduced image's y-span", POLYGON,
     "self._reduced[2].width_in_direction((1, 0))", "self._reduced[2].width_in_direction((0, 1))",
     ["tests/test_polygon.py::test_lattice_width_examples", WIDTH_TEST]),
    ("a segment's width is its lattice length", POLYGON,
     "return 0 if self.is_degenerate else",
     "return (self.boundary_count - 1 if self.is_segment else 0) if self.is_degenerate else",
     ["tests/test_polygon.py::test_lattice_width_examples", WIDTH_TEST]),
    ("the oracle skips every verdict but reducible", CLI,
     'if item["verdict"] == "irreducible":', 'if item["verdict"] != "reducible":',
     [BAD_ORACLE_TEST, f"{MALFORMED_TEST}[oracle-misspelt-verdict]"]),
    ("an integer option reads what int() reads", CLI,
     'if text.isascii() and "_" not in text:', "if True:",
     [f"{MALFORMED_TEST}[option-underscore]", f"{MALFORMED_TEST}[option-non-ascii-digits]",
      f"{MALFORMED_TEST}[vertices-underscore]"]),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, node_ids: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code on the node ids in `tree`, and the ids that failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf",
         *node_ids],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    # a parametrized id may hold spaces; -rf ends the id at " - " when it adds a message
    failed = set(re.findall(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE))
    return proc.returncode, failed


def check(entry) -> str | None:
    """None when the mutant is caught, else why not."""
    _, file, old, new, node_ids = entry
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / file
        text = path.read_text()
        if text.count(old) != 1:
            return f"the old snippet occurs {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new))
        try:
            code, failed = run_tests(tree, node_ids)
        except subprocess.TimeoutExpired:
            return f"no result within {TIMEOUT_S} s"
        if code != 1:
            return f"pytest exited {code}, not with failed tests"
        survived = [n for n in node_ids if n not in failed]
        return f"still passing: {', '.join(survived)}" if survived else None


def main(argv: list[str]) -> int:
    entries = [e for e in MUTANTS if not argv or e[0] in argv]
    unknown = set(argv) - {e[0] for e in MUTANTS}
    if unknown:
        print(f"unknown entries: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        ids = sorted({n for e in entries for n in e[4]})
        code, failed = run_tests(Path(tmp), ids)
    if code != 0:
        print(f"the named tests do not pass unbroken (exit {code}): {sorted(failed)}")
        return 1
    bad = 0
    for entry in entries:
        why = check(entry)
        bad += why is not None
        print(f"{'caught  ' if why is None else 'MISSED  '}{entry[0]}"
              + ("" if why is None else f": {why}"), flush=True)
    print(f"{len(entries) - bad} of {len(entries)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
