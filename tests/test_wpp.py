import json
from fractions import Fraction
from importlib import resources

import pytest

from latticecurves.cli import main
from latticecurves.errors import EmptyAfterFilter, ParseError, RangeError
from latticecurves.wpp import (
    ClassEntry,
    WppContext,
    best_approximation,
    ingest_table,
    intrinsic_minus_one,
    self_intersection_on_x,
    slope_compare,
)

CTX = WppContext(9, 10, 13)


def shipped():
    path = resources.files("latticecurves.data").joinpath("x_9_10_13.csv")
    return ingest_table(str(path))


def test_context_validation():
    assert CTX.abc == 1170
    with pytest.raises(RangeError):
        WppContext(2, 4, 5)  # gcd(2,4) = 2
    with pytest.raises(RangeError):
        WppContext(0, 1, 1)


def test_slope_compare():
    assert slope_compare(CTX, ClassEntry(959, 28)) == "Above"
    assert slope_compare(CTX, ClassEntry(891, 26)) == "Above"
    assert slope_compare(WppContext(1, 1, 1), ClassEntry(1, 1)) == "On"
    assert slope_compare(CTX, ClassEntry(34, 1)) == "Below"


def test_self_intersection_on_x():
    assert self_intersection_on_x(CTX, ClassEntry(83, 2)) == Fraction(2209, 1170)
    assert self_intersection_on_x(CTX, ClassEntry(36, 1)) == Fraction(126, 1170)
    assert self_intersection_on_x(WppContext(1, 1, 1), ClassEntry(1, 1)) == 0


def test_signs_agree():
    # side of the light cone and the sign of the downstairs self-intersection
    # are the same computation
    for e in shipped():
        diff = e.d * e.d - CTX.abc * e.m * e.m
        si = self_intersection_on_x(CTX, e)
        assert (diff > 0) == (si > 0) and (diff == 0) == (si == 0)


def test_ingest_shipped_table():
    entries = shipped()
    assert len(entries) == 52
    assert entries[0] == ClassEntry(36, 1, 0, 0)
    assert all(slope_compare(CTX, e) == "Above" for e in entries)


def test_ingest_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("d,m,c2,pa\n36,one,0,0\n")
    with pytest.raises(ParseError) as err:
        ingest_table(str(bad))
    assert err.value.line == 2
    nohdr = tmp_path / "nohdr.csv"
    nohdr.write_text("36,1,0,0\n")
    with pytest.raises(ParseError):
        ingest_table(str(nohdr))
    nohdr.write_text("# generators\n\n36,1,0,0\n")
    with pytest.raises(ParseError) as err:
        ingest_table(str(nohdr))
    assert err.value.line == 3


def test_ingest_header_after_comment(tmp_path, capsys):
    # the header is the first row that is not blank or a comment
    path = resources.files("latticecurves.data").joinpath("x_9_10_13.csv")
    commented = tmp_path / "commented.csv"
    commented.write_text("# X(9,10,13) generators\n\n" + path.read_text())
    assert ingest_table(str(commented)) == shipped()
    assert main(["wpp", "--a", "9", "--b", "10", "--c", "13",
                 "--table", str(commented)]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 52


def test_best_approximation():
    entries = shipped()
    best = best_approximation(CTX, entries)
    assert (best.d, best.m) == (959, 28)
    assert Fraction(best.d, best.m) == Fraction(137, 4)  # 34.25
    minus_one = best_approximation(CTX, entries, intrinsic_minus_one)
    assert (minus_one.d, minus_one.m) == (891, 26)


def test_best_approximation_single_and_empty():
    single = ClassEntry(100, 2)
    assert best_approximation(CTX, [single]) == single
    with pytest.raises(EmptyAfterFilter):
        best_approximation(CTX, [ClassEntry(1, 1)])  # below the cone
