import argparse
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import latticecurves
from latticecurves import cli
from latticecurves.cli import (
    COMMANDS,
    build_parser,
    ingest_polygon_dataset,
    load_oracle,
    main,
    parse_vertices,
)
from latticecurves.errors import ParseError
from latticecurves.polygon import LatticePolygon, polygon


def data_path(name):
    return str(resources.files("latticecurves.data").joinpath(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_polygon_info(capsys):
    code, out = run(capsys, "polygon-info", "--vertices", "0,0 2,1 1,2")
    assert code == 0
    assert (out["vol"], out["boundary"], out["interior"]) == (3, 3, 1)
    assert out["lattice_width"] == 2


def test_polygon_info_roundtrip(capsys):
    code, out = run(capsys, "polygon-info", "--vertices", "0,0 4,1 2,4 1,3")
    verts = " ".join(f"{x},{y}" for x, y in out["vertices"])
    code2, out2 = run(capsys, "polygon-info", "--vertices", verts)
    assert out == out2


def test_linsys_command(capsys):
    code, out = run(capsys, "linsys", "--vertices", "0,0 1,4 2,4 4,3", "--m", "4")
    assert code == 0 and out["dimension"] == 0
    code, out = run(capsys, "linsys", "--vertices", "0,0 2,5 4,4 5,2", "--m", "5")
    assert out["dimension"] == 1 and len(out["members"]) == 1


def test_family_command(capsys):
    code, out = run(capsys, "family", "--id", "I", "--m", "3", "--verify")
    assert code == 0 and out["passed"]
    code, out = run(capsys, "family", "--id", "V", "--m", "8")
    assert code == 0 and out["C2"] == 0 and out["genus"] == 1


def test_family_command_bad_range(capsys):
    code, _ = run(capsys, "family", "--id", "III", "--m", "7")
    assert code == 2


def test_surface_command(capsys):
    code, out = run(capsys, "surface", "--k-range", "3", "--rr-range", "2")
    assert code == 0
    assert out["ledger"]["passed"] and out["symbolic"]["passed"]


@pytest.mark.parametrize("argv", [
    ["surface", "--k-range", "-1"],
    ["surface", "--rr-range", "-3"],
    ["surface", "--k-range", "-2", "--rr-range", "-1"],
    ["classify", "--dataset", data_path("polygons.txt"), "--volume-max", "-1"],
    ["classify", "--dataset", data_path("polygons.txt"), "--enumerate", "--volume-max", "-1"],
])
def test_negative_ranges_are_input_errors(capsys, argv):
    # a negative range is bad input, not an empty check that passes or finds nothing
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be nonnegative" in err


def test_zero_ranges_check_nothing_and_pass(capsys):
    code, out = run(capsys, "surface", "--k-range", "0", "--rr-range", "0")
    assert code == 0 and out["e_k"] == {} and out["riemann_roch"] == {}
    code, out = run(capsys, "classify", "--dataset", data_path("polygons.txt"),
                    "--volume-max", "0")  # the one segment of the dataset has volume 0
    assert code == 0 and [h["polygon"]["vertices"] for h in out["hits"]] == [[[0, 0], [1, 0]]]


def test_seshadri_command(capsys):
    code, out = run(capsys, "seshadri", "--vertices", "0,0 4,1 1,4",
                    "--m", "4", "--irreducible")
    assert code == 0
    assert out["estimate"]["exact"] == "15/4"


def test_wpp_command(capsys):
    code, out = run(capsys, "wpp", "--a", "9", "--b", "10", "--c", "13",
                    "--table", data_path("x_9_10_13.csv"), "--best")
    assert code == 0
    assert out["best"] == {"d": 959, "m": 28, "slope": "137/4"}
    assert out["best_intrinsic_minus_one"]["d"] == 891


def test_classify_command(capsys):
    code, out = run(capsys, "classify",
                    "--dataset", data_path("polygons.txt"),
                    "--oracle", data_path("oracle_vol6.json"),
                    "--enumerate", "--m-max", "4", "--volume-max", "16")
    assert code == 0 and out["count"] == 11


def test_readme_classify_stdout_is_golden(capsys):
    # the README classify command; its stdout must stay byte-identical
    assert main(["classify", "--dataset", data_path("polygons.txt"),
                 "--oracle", data_path("oracle_vol6.json"), "--enumerate"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "8e1a930a353e1bfbf3705fdf1c96c9f0b8bdc73420f4893cef6b444782990441"


FAMILY_VERIFY_SHA256 = {
    "I": "a16206c3c16923cc66fd0d071c534f17907634bbf862ed5c88fed98b87807ed6",
    "II": "d79f26ecd4b05b0aee5584973eef2cc885879400cb5e84f39b05373e2c71bd86",
    "III": "570784544b9c26de31b8a0f9b93d7e118b0ce5d035de56aa2ede275ca1e3a663",
    "IV": "108338bddda0fe59b9a23292c07840f2162dc3085422652760805363bcf79fa5",
}


@pytest.mark.parametrize("family", sorted(FAMILY_VERIFY_SHA256))
def test_family_verify_stdout_is_golden(capsys, family):
    # family --verify at m = 10; its stdout must stay byte-identical
    assert main(["family", "--id", family, "--m", "10", "--verify", "--budget", "10"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_VERIFY_SHA256[family]


# family --verify at the largest m that CI runs, recorded before the
# parametrizations became integer; the ("III", 20) digest was recorded while
# family III's map was still written in the paper's t, where its resultant
# needed 83 word primes (6 in s = t/a)
FAMILY_VERIFY_LARGE_M_SHA256 = {
    ("I", 20): "e718564104916ce5c9e99a2283aaaf6486b173342e7f70e301b9fe45e4b2fdf3",
    ("II", 16): "ef77c1bc1e65ef2de3e9ad0ee0ffb91f94ee07cd53da03633b820211d914b0d8",
    ("III", 16): "de67af0fe7b01710563cb43beaadea9348709296ff095256c44b00d2bf08df57",
    ("III", 20): "f7013929b75c428bdecb34e258783dbe254539dc156127c6904974ef3e934f2c",
    ("IV", 16): "94ec7eb6b00c74a70eff35caea3804645be46e057e1f1c30c739a69fb5b5fc8e",
}


@pytest.mark.parametrize("family, m", sorted(FAMILY_VERIFY_LARGE_M_SHA256))
def test_family_verify_stdout_is_golden_at_large_m(capsys, family, m):
    assert main(["family", "--id", family, "--m", str(m), "--verify"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_VERIFY_LARGE_M_SHA256[family, m]


def test_dataset_ingestion(tmp_path):
    f = tmp_path / "polys.txt"
    f.write_text("# comment\n0,0 1,0 0,1\n\n0,0 2,0 1,0  # collinear\n")
    polys = list(ingest_polygon_dataset(str(f)))
    assert len(polys) == 2
    assert polys[0] == polygon((0, 0), (1, 0), (0, 1))
    assert polys[1].is_segment


def test_dataset_ingestion_reports_line(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0,0 1,0 0,1\n0,0 oops\n")
    with pytest.raises(ParseError) as err:
        list(ingest_polygon_dataset(str(f)))
    assert err.value.line == 2


def child_env():
    """The environment for a python child that imports this process's package."""
    src = str(Path(latticecurves.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_child(*args):
    """Run python with `args` on the package that this process imports."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env())


@pytest.mark.parametrize("token", ["0,0,1", "0,", "7", "x,1"])
def test_bad_vertex_names_its_token(tmp_path, capsys, token):
    message = f"bad vertex {token!r}: expected x,y with integer x and y"
    assert main(["seshadri", "--vertices", f"0,0 {token}"]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")
    f = tmp_path / "bad.txt"
    f.write_text(f"0,0 1,0 0,1\n0,0 {token}\n")
    assert main(["classify", "--dataset", str(f)]) == 2
    assert capsys.readouterr() == ("", f"input error: line 2: bad polygon line: {message}\n")


def test_parse_error_exit_code_names_line_once(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0,0 1,0 0,1\n0,0 oops\n")
    proc = run_child("-m", "latticecurves.cli", "classify", "--dataset", str(f))
    assert proc.returncode == 2
    assert proc.stderr.count("line 2") == 1
    assert "Traceback" not in proc.stderr


def test_cli_import_leaves_the_process_pool_out():
    proc = run_child("-c", "import sys, latticecurves.cli; "
                           "print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


def test_package_import_loads_no_module_and_polygon_or_wpp_no_numpy():
    proc = run_child("-c", "import sys, latticecurves; "
                           "print([k for k in sys.modules if k.startswith('latticecurves.')]); "
                           "import latticecurves.polygon, latticecurves.wpp; "
                           "print('numpy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.split("\n")[:2] == ["[]", "False"], proc.stderr


@pytest.mark.parametrize("argv, read", [
    # about 200 kB, more than a pipe holds, so a write meets the closed end
    (["linsys", "--vertices", "0,0 40,0 0,40", "--m", "1", "--pretty"], 300),
    # a short report, buffered until the exit flush unless the command flushes it
    (["polygon-info", "--vertices", "0,0 2,1 1,2"], 0),
])
def test_closed_stdout_exits_141_without_a_message(argv, read):
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "latticecurves.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141, err
    for text in ("input error", "Traceback", "Exception ignored"):
        assert text not in err, err


README_COMMANDS = [
    ["polygon-info", "--vertices", "0,0 2,1 1,2", "--m", "2"],
    ["linsys", "--vertices", "0,0 2,5 4,4 5,2", "--m", "5"],
    ["classify", "--dataset", "src/latticecurves/data/polygons.txt",
     "--oracle", "src/latticecurves/data/oracle_vol6.json", "--enumerate"],
    ["family", "--id", "I", "--m", "3", "--verify"],
    ["surface"],
    ["seshadri", "--vertices", "0,0 4,1 1,4", "--m", "4", "--irreducible"],
    ["wpp", "--a", "9", "--b", "10", "--c", "13", "--best"],
]
PARSER_ARGVS = README_COMMANDS + [[name, "--help"] for name in COMMANDS] + [
    ["classify"],                                   # a missing option
    ["family", "--id", "X", "--m", "3"],            # a bad --id choice
    ["classify", "--dataset", "x", "--bogus"],      # an unknown option
    ["wpp", "--a", "9", "--b", "10", "--c", "13", "extra"],
    [],                                             # a missing command
    ["bogus"],                                      # an unknown command
    ["bogus", "--help"], ["--help"], ["--version"], ["--pretty", "classify"],
    ["classify", "--dataset", "x", "--version"],    # a root option after the command
    ["classify", "--dataset", "x", "--", "foo"],
    ["classify", "--data", "x", "--m-max", "2"],    # an abbreviated option
    ["family", "--id", "I", "--m", "x"],            # a bad integer
    ["classify", "--dataset", "x", "--m-max", "1_0", "--bogus"],  # a bad integer, then more
    ["family", "--id", "I", "--m", "3", "--verify", "--budget"],  # a missing value
    ["polygon-info", "--vertices", "-1,0"],         # a value that looks like an option
    ["polygon-info", "--vertices", "-2,-1 3,0 0,3"],
    ["polygon-info", "--vertices"],
    ["classify", "--pretty", "--dataset", "/dev/null"],
    ["seshadri", "--vertices", "0,0,1"],            # parses; the handler rejects it
]


def _parse(parse, argv, capsys):
    try:
        return parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    except ParseError as exc:  # a bad integer, which `main` reports with exit 2
        return 2, "", str(exc)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_one_subparser_parses_like_the_full_parser(monkeypatch, capsys, argv):
    # the route main takes: a command's own parser, or the full one
    monkeypatch.setenv("COLUMNS", "80")
    full = _parse(build_parser().parse_args, argv, capsys)
    assert _parse(cli.parse_args, argv, capsys) == full
    if not isinstance(full, argparse.Namespace):
        assert full[0] in (0, 2) and (full[1] or full[2])


def test_main_builds_only_the_parser_it_runs(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["polygon-info", "--vertices", "0,0 1,0 0,1"]) == 0
    assert built == ["latticecurves polygon-info"]
    capsys.readouterr()


def test_bad_oracle_entry_names_its_index(tmp_path, capsys):
    entries = json.loads(open(data_path("oracle_vol6.json")).read())
    dataset = tmp_path / "polys.txt"
    dataset.write_text("0,0 1,0 0,1\n")
    for index, broken in ((1, {"verdict": "reducible"}),
                          (1, {**entries[0], "verdict": "Reducible"}),
                          (2, {**entries[0], "factors": entries[0]["factors"][:1]})):
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps(entries[:index] + [broken]))
        assert main(["classify", "--dataset", str(dataset),
                     "--oracle", str(oracle)]) == 2
        err = capsys.readouterr().err
        assert f"oracle entry {index}:" in err and "line" not in err
    # the first two witnesses multiply out to the member, but neither proves it
    # reducible; the third does not multiply out to it; the fourth names a
    # system of three curves, which has no unique member
    for case in ("oracle-monomial-factor", "oracle-single-factor", "oracle-wrong-product",
                 "oracle-not-unique", "oracle-misspelt-verdict"):
        assert main(MALFORMED_INPUTS[case](tmp_path)) == 2
        assert "oracle entry 0:" in capsys.readouterr().err


def test_integer_tokens_keep_their_sign_and_surrounding_spaces(tmp_path, capsys):
    assert parse_vertices("+0,-0 2,1 1,2") == polygon((0, 0), (2, 1), (1, 2))
    table = _file(tmp_path, "table.csv", "d,m,c2,pa\n 36 , +1 ,0,-0\n")
    code, out = run(capsys, "wpp", "--a", "9", "--b", "10", "--c", "13", "--table", table)
    assert code == 0 and out["entries"] == 1


def test_oracle_numbers_must_be_integers(tmp_path, capsys):
    # each entry loads once its float or boolean is written as the integer (or,
    # for a coefficient, the "a/b" string) that int() or Fraction() made of it
    for case, old, new in (("oracle-float-m", "2.5", "2"), ("oracle-float-exponent", "0.9", "0"),
                           ("oracle-float-vertex", "1.5", "1"), ("oracle-bool-m", "true", "2"),
                           ("oracle-bool-exponent", "true", "1"),
                           ("oracle-bool-vertex", "true", "1"),
                           ("oracle-float-coefficient", "0.5", '"1/2"'),
                           ("oracle-bool-coefficient", "true", "1")):
        argv = MALFORMED_INPUTS[case](tmp_path)
        assert main(argv) == 2
        assert "oracle entry 0: TypeError" in capsys.readouterr().err
        oracle = tmp_path / "oracle.json"
        oracle.write_text(oracle.read_text().replace(old, new))
        assert main(argv) == 0
        capsys.readouterr()


def _file(directory, name, text):
    path = directory / name
    path.write_text(text)
    return str(path)


def _oracle_case(entries):
    def argv(d):
        return ["classify", "--dataset", _file(d, "polys.txt", "0,0 1,0 0,1\n"),
                "--oracle", _file(d, "oracle.json", entries)]
    return argv


SQUARE = '"polygon": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}, "verdict": "reducible"'
# the unique member of L(square, 2), (1 - u)(1 - v), and the constant 1
SQUARE_MEMBER = ('{"terms": [{"e": [0, 0], "c": "1"}, {"e": [0, 1], "c": "-1"}, '
                 '{"e": [1, 0], "c": "-1"}, {"e": [1, 1], "c": "1"}]}')
ONE = '{"terms": [{"e": [0, 0], "c": "1"}]}'
# u - 1; its square is the first basis member of L(hull((0,0),(2,0),(0,2)), 2)
U_MINUS_ONE = '{"terms": [{"e": [1, 0], "c": "1"}, {"e": [0, 0], "c": "-1"}]}'
V_MINUS_ONE = '{"terms": [{"e": [0, 1], "c": "1"}, {"e": [0, 0], "c": "-1"}]}'
MALFORMED_INPUTS = {
    "oracle-not-a-list": _oracle_case("5"),
    "oracle-short-exponent": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [{"terms": [{"e": [0], "c": "1"}]}]}]'),
    # exponents of three entries and of one (on a zero term): u - 1 to a reader of e[0], e[1]
    "oracle-long-exponent": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [' + V_MINUS_ONE + ', '
        '{"terms": [{"e": [1, 0, 5], "c": "1"}, {"e": [0, 0], "c": "-1"}]}]}]'),
    "oracle-short-exponent-zero-term": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [' + V_MINUS_ONE + ', '
        '{"terms": [{"e": [1, 0], "c": "1"}, {"e": [0, 0], "c": "-1"}, {"e": [1], "c": "0"}]}]}]'),
    "oracle-infinite-m": _oracle_case('[{' + SQUARE + ', "m": 1e400, "factors": []}]'),
    "oracle-monomial-factor": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [' + SQUARE_MEMBER + ', ' + ONE + ']}]'),
    "oracle-single-factor": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [' + SQUARE_MEMBER + ']}]'),
    # two non-monomials, but (u - 1)² is not the member (1 - u)(1 - v)
    "oracle-wrong-product": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [' + U_MINUS_ONE + ', ' + U_MINUS_ONE + ']}]'),
    # numbers that int() would truncate to the shipped square entry at m = 2
    "oracle-float-m": _oracle_case(
        '[{' + SQUARE + ', "m": 2.5, "factors": [' + U_MINUS_ONE + ', ' + V_MINUS_ONE + ']}]'),
    "oracle-float-exponent": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [' + U_MINUS_ONE + ', '
        '{"terms": [{"e": [0.9, 1], "c": "1"}, {"e": [0, 0], "c": "-1"}]}]}]'),
    "oracle-float-vertex": _oracle_case(
        '[{"polygon": {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1.5]]}, "verdict": "reducible", '
        '"m": 2, "factors": [' + U_MINUS_ONE + ', ' + V_MINUS_ONE + ']}]'),
    # JSON true is an int to Python: index() reads it as 1, and Fraction() as 1/1
    "oracle-bool-m": _oracle_case(
        '[{' + SQUARE + ', "m": true, "factors": [' + U_MINUS_ONE + ', ' + V_MINUS_ONE + ']}]'),
    "oracle-bool-exponent": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [' + U_MINUS_ONE + ', '
        '{"terms": [{"e": [0, true], "c": "1"}, {"e": [0, 0], "c": "-1"}]}]}]'),
    "oracle-bool-vertex": _oracle_case(
        '[{"polygon": {"vertices": [[0, 0], [true, 0], [1, 1], [0, 1]]}, "verdict": "reducible", '
        '"m": 2, "factors": [' + U_MINUS_ONE + ', ' + V_MINUS_ONE + ']}]'),
    # a float coefficient is read exactly, so 0.1 would be 3602879701896397/2**55
    "oracle-float-coefficient": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [' + V_MINUS_ONE + ', '
        '{"terms": [{"e": [1, 0], "c": 0.5}, {"e": [0, 0], "c": "-1/2"}]}]}]'),
    "oracle-bool-coefficient": _oracle_case(
        '[{' + SQUARE + ', "m": 2, "factors": [' + V_MINUS_ONE + ', '
        '{"terms": [{"e": [1, 0], "c": true}, {"e": [0, 0], "c": -1}]}]}]'),
    # a verdict other than "reducible" and "irreducible" was skipped, witness and all
    "oracle-misspelt-verdict": _oracle_case(
        '[{' + SQUARE.replace('"reducible"', '"Reducible"') + ', "m": 2, "factors": ['
        + U_MINUS_ONE + ', ' + V_MINUS_ONE + ']}]'),
    "oracle-not-unique": _oracle_case(
        '[{"polygon": {"vertices": [[0, 0], [2, 0], [0, 2]]}, "verdict": "reducible", '
        '"m": 2, "factors": [' + U_MINUS_ONE + ', ' + U_MINUS_ONE + ']}]'),
    "bad-vertices": lambda d: ["polygon-info", "--vertices", "0,0 1"],
    # int() would read the vertex (10, 2), and the triangle in Arabic-Indic digits
    "vertices-underscore": lambda d: ["polygon-info", "--vertices", "1_0,2 0,0 3,4"],
    "vertices-non-ascii-digits": lambda d: ["polygon-info", "--vertices", "٠,٠ ٢,١ ١,٢"],
    # int() would read m = 10, and m = 2 from an Arabic-Indic digit
    "option-underscore": lambda d: ["polygon-info", "--vertices", "0,0 2,1 1,2", "--m", "1_0"],
    "option-non-ascii-digits": lambda d: ["linsys", "--vertices", "0,0 2,1 1,2", "--m", "٢"],
    "dataset-underscore": lambda d: ["classify", "--dataset",
                                     _file(d, "polys.txt", "0,0 1_0,0 0,1\n")],
    "classify-negative-jobs": lambda d: ["classify", "--jobs", "-3", "--dataset",
                                         _file(d, "polys.txt", "0,0 1,0 0,1\n")],
    "negative-m": lambda d: ["linsys", "--vertices", "0,0 2,1 1,2", "--m", "-3"],
    "seshadri-negative-m": lambda d: ["seshadri", "--vertices", "0,0 20,1 1,20",
                                      "--m", "-20"],
    "seshadri-zero-m": lambda d: ["seshadri", "--vertices", "0,0 20,1 1,20", "--m", "0"],
    # --irreducible qualifies the estimate at --m; alone it was silently ignored
    "seshadri-irreducible-without-m": lambda d: ["seshadri", "--vertices", "0,0 1,0 0,1",
                                                 "--irreducible"],
    "polygon-info-zero-m": lambda d: ["polygon-info", "--vertices", "0,0 2,1 1,2", "--m", "0"],
    "headerless-table": lambda d: ["wpp", "--a", "9", "--b", "10", "--c", "13", "--table",
                                   _file(d, "table.csv", "36,1,0,0\n39,1,0,0\n")],
    # no header row and no data row: an empty table, not the default one
    "empty-table": lambda d: ["wpp", "--a", "9", "--b", "10", "--c", "13", "--table",
                              _file(d, "table.csv", "")],
    "comment-only-table": lambda d: ["wpp", "--a", "9", "--b", "10", "--c", "13", "--table",
                                     _file(d, "table.csv", "# generators\n\n# none\n")],
    # int() would load d = 10, and d = 36 from Arabic-Indic digits
    "table-underscore": lambda d: ["wpp", "--a", "9", "--b", "10", "--c", "13", "--table",
                                   _file(d, "table.csv", "d,m,c2,pa\n1_0,1,-1,0\n")],
    "table-non-ascii-digits": lambda d: ["wpp", "--a", "9", "--b", "10", "--c", "13", "--table",
                                         _file(d, "table.csv", "d,m,c2,pa\n٣٦,1,0,0\n")],
    "family-out-of-range": lambda d: ["family", "--id", "III", "--m", "7"],
    # Pick's count passes the point limit before any point is listed
    "linsys-huge-triangle": lambda d: ["linsys", "--vertices", "0,0 10000000000,0 0,1",
                                       "--m", "1"],
    "linsys-huge-segment": lambda d: ["linsys", "--vertices", "3,1 10000000000,1", "--m", "2"],
    # 3 lattice points, and lattice width 1 < m
    "seshadri-huge-thin-triangle": lambda d: ["seshadri", "--vertices",
                                              "1,0 10000000000,1 0,0", "--m", "3"],
    "oracle-huge-vertex": _oracle_case(
        '[{"polygon": {"vertices": [[0, 0], [1000000000000000000000000000000, 0], [0, 1]]}, '
        '"verdict": "reducible", "m": 2, "factors": [' + U_MINUS_ONE + ', ' + V_MINUS_ONE + ']}]'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, case):
    assert main(MALFORMED_INPUTS[case](tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and "Traceback" not in captured.err


class _Stuck(Exception):
    """Raised by the fuzz alarm; `main` catches no such error."""


def _stop(signum, frame):
    raise _Stuck("no answer within the alarm")


INTS = (0, 1, -1, 2, 10 ** 10, -10 ** 10, 10 ** 30, -10 ** 30, 10 ** 100)
ODD_VALUES = INTS + (2.5, True, None, "x", "", [], {})


def _mutate_json(rng, node):
    """node with one random leaf replaced, nudged by one or dropped."""
    if isinstance(node, dict) and node:
        key = rng.choice(sorted(node))
        if rng.random() < 0.1:
            return {k: v for k, v in node.items() if k != key}
        return {**node, key: _mutate_json(rng, node[key])}
    if isinstance(node, list) and node:
        i = rng.randrange(len(node))
        if rng.random() < 0.1:
            return node[:i] + node[i + 1:]
        return node[:i] + [_mutate_json(rng, node[i])] + node[i + 1:]
    if isinstance(node, int) and not isinstance(node, bool) and rng.random() < 0.5:
        return node + rng.choice((-1, 1))
    return rng.choice(ODD_VALUES)


def _mutate_line(rng, line):
    """A polygon line with one coordinate replaced, nudged or dropped."""
    tokens = line.replace(",", " , ").split()
    i = rng.choice([j for j, t in enumerate(tokens) if t != ","])
    kind = rng.randrange(4)
    if kind == 0:
        tokens[i] = str(int(tokens[i]) + rng.choice((-1, 1)))
    elif kind == 1:
        tokens[i] = str(rng.choice(INTS))
    elif kind == 2:
        tokens[i] = rng.choice(("", "x", "1.5", "--1"))
    else:
        del tokens[i]
    return " ".join(tokens).replace(" , ", ",")


def test_fuzzed_inputs_exit_0_1_or_2_without_traceback(tmp_path, capsys):
    """Seeded mutations of the shipped oracle entries, the shipped dataset
    lines, the shipped weighted-projective-plane table and the values of
    --vertices/--m, of family's options, of surface's ranges and of wpp's
    weights, each run through `main` in process under an alarm: every one
    ends with exit code 0, 1 or 2 and no traceback."""
    rng = random.Random(2727)
    oracle = json.loads(Path(data_path("oracle_vol6.json")).read_text())
    lines = [ln for ln in Path(data_path("polygons.txt")).read_text().splitlines()
             if ln and not ln.startswith("#")]
    dataset = _file(tmp_path, "polys.txt", "0,0 1,0 0,1\n")
    argvs = []
    for _ in range(100):
        text = json.dumps(_mutate_json(rng, rng.sample(oracle, 2)))
        if rng.random() < 0.2:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1:]
        argvs.append(["classify", "--dataset", dataset, "--m-max", "2",
                      "--oracle", _file(tmp_path, "oracle.json", text)])
    for _ in range(100):
        first, *rest = rng.sample(lines, 3)
        text = "\n".join([_mutate_line(rng, first)] + rest)
        argvs.append(["classify", "--dataset", _file(tmp_path, "polys.txt", text),
                      "--m-max", "3", "--volume-max", "16"])
    for _ in range(400):
        vertices = _mutate_line(rng, rng.choice(lines))
        m = str(rng.choice((-1, 0, 1, 2, 3, 4, 20, 10 ** 6, 10 ** 30, "x")))
        argvs.append(rng.choice((["polygon-info", "--vertices", vertices],
                                 ["polygon-info", "--vertices", vertices, "--m", m],
                                 ["linsys", "--vertices", vertices, "--m", m],
                                 ["seshadri", "--vertices", vertices],
                                 ["seshadri", "--vertices", vertices, "--m", m],
                                 ["seshadri", "--vertices", vertices, "--m", m, "--irreducible"])))
    small = (-3, -1, 0, 1, 2, 3)
    for _ in range(100):
        argv = ["family", "--id", rng.choice(("I", "II", "III", "IV", "V", "VI")),
                "--m", str(rng.choice((-1, 0, 1, 2, 3, 4, 5, 8, 21, 10 ** 6, 10 ** 30, "x")))]
        if rng.random() < 0.5:
            argv += ["--verify", "--budget", str(rng.choice((-1, 0, 1, 3, 20, 10 ** 30, "x")))]
        argvs.append(argv)
    for _ in range(20):
        argvs.append(["surface", "--k-range", str(rng.choice(small)),
                      "--rr-range", str(rng.choice(small))])
    rows = Path(data_path("x_9_10_13.csv")).read_text().splitlines()
    for _ in range(100):
        weights = ["9", "10", "13"]
        if rng.random() < 0.5:
            weights[rng.randrange(3)] = str(rng.choice((-1, 0, 1, 2, 9, 10 ** 30, "x")))
        argv = ["wpp", "--a", weights[0], "--b", weights[1], "--c", weights[2], "--best"]
        if rng.random() < 0.5:
            i = rng.randrange(1, len(rows))
            text = "\n".join(rows[:i] + [_mutate_line(rng, rows[i])] + rows[i + 1:])
            argv += ["--table", _file(tmp_path, "table.csv", text)]
        argvs.append(argv)
    codes = []
    handler = signal.signal(signal.SIGALRM, _stop)
    try:
        for argv in argvs:
            signal.setitimer(signal.ITIMER_REAL, 5)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = exc.code
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
            codes.append(code)
    finally:
        signal.signal(signal.SIGALRM, handler)
    assert codes.count(0) > 100 and codes.count(2) > 100


# one small command per subcommand
GUARD_ARGVS = {
    "polygon-info": ["polygon-info", "--vertices", "0,0 2,1 1,2", "--m", "2", "--pretty"],
    "linsys": ["linsys", "--vertices", "0,0 2,5 4,4 5,2", "--m", "5"],
    "classify": ["classify", "--dataset", data_path("polygons.txt"),
                 "--oracle", data_path("oracle_vol6.json"), "--m-max", "2"],
    "family": ["family", "--id", "I", "--m", "3", "--verify"],
    "surface": ["surface", "--k-range", "3", "--rr-range", "2"],
    "seshadri": ["seshadri", "--vertices", "0,0 4,1 1,4", "--m", "4", "--irreducible", "--pretty"],
    "wpp": ["wpp", "--a", "9", "--b", "10", "--c", "13", "--best"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_main_alone_writes_one_json_document(capsys, command):
    # the handler returns a JSON-native report and writes nothing
    argv = GUARD_ARGVS[command]
    args = build_parser().parse_args(argv)
    report, code = args.fn(args)
    assert capsys.readouterr() == ("", "")
    assert code == 0
    document = json.dumps(report, indent=2 if "--pretty" in argv else None)
    # main prints exactly that document, once
    assert main(argv) == code
    assert capsys.readouterr() == (document + "\n", "")


@pytest.mark.parametrize("argv, target", [
    (["family", "--id", "I", "--m", "3", "--verify"], "verify_family_end_to_end"),
    (["surface", "--k-range", "1", "--rr-range", "1"], "verify_ledger"),
])
def test_a_failed_verification_exits_1_after_its_report(monkeypatch, capsys, argv, target):
    failed = {"passed": False, "why": "stubbed"}
    monkeypatch.setattr(cli, target, lambda *args, **kwargs: failed)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1
    report = json.loads(out)
    assert (report if argv[0] == "family" else report["ledger"]) == failed


def test_load_oracle_verifies(tmp_path):
    oracle = load_oracle(data_path("oracle_vol6.json"))
    assert len(oracle) == 6
    for (verts, m), factors in oracle.items():
        assert isinstance(m, int) and len(factors) >= 2
    # an entry of another verdict is skipped before its factors are read
    entries = json.loads(open(data_path("oracle_vol6.json")).read())
    other = {k: v for k, v in entries[0].items() if k != "factors"}
    path = tmp_path / "oracle.json"
    path.write_text(json.dumps([{**other, "verdict": "irreducible"}] + entries[1:]))
    skipped = load_oracle(str(path))
    assert len(skipped) == 5 and skipped.items() < oracle.items()


def test_bad_input_exit_code(capsys):
    assert main(["polygon-info", "--vertices", "nonsense"]) == 2
    capsys.readouterr()


def test_shipped_dataset_has_displayed_polygons():
    polys = list(ingest_polygon_dataset(data_path("polygons.txt")))
    assert len(polys) >= 11
