import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import latticecurves
from latticecurves.cli import (
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


def test_parse_error_exit_code_names_line_once(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0,0 1,0 0,1\n0,0 oops\n")
    # the child process imports the same package as this one
    src = str(Path(latticecurves.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "latticecurves.cli", "classify", "--dataset", str(f)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.count("line 2") == 1
    assert "Traceback" not in proc.stderr


def test_bad_oracle_entry_names_its_index(tmp_path, capsys):
    entries = json.loads(open(data_path("oracle_vol6.json")).read())
    dataset = tmp_path / "polys.txt"
    dataset.write_text("0,0 1,0 0,1\n")
    for index, broken in ((1, {"verdict": "reducible"}),
                          (2, {**entries[0], "factors": entries[0]["factors"][:1]})):
        oracle = tmp_path / "oracle.json"
        oracle.write_text(json.dumps(entries[:index] + [broken]))
        assert main(["classify", "--dataset", str(dataset),
                     "--oracle", str(oracle)]) == 2
        err = capsys.readouterr().err
        assert f"oracle entry {index}:" in err and "line" not in err


def test_load_oracle_verifies():
    oracle = load_oracle(data_path("oracle_vol6.json"))
    assert len(oracle) == 6
    for (verts, m), factors in oracle.items():
        assert isinstance(m, int) and len(factors) >= 2


def test_bad_input_exit_code(capsys):
    assert main(["polygon-info", "--vertices", "nonsense"]) == 2
    capsys.readouterr()


def test_shipped_dataset_has_displayed_polygons():
    polys = list(ingest_polygon_dataset(data_path("polygons.txt")))
    assert len(polys) >= 11
