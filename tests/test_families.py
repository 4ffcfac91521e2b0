from fractions import Fraction

import pytest

from latticecurves.errors import HypothesisFailure, NoParametrization, RangeError
from latticecurves.families import (
    FamilySpec,
    Parametrization,
    family_invariants,
    family_parametrization,
    family_polygon,
    verify_family_end_to_end,
    verify_multiplicity_lemma,
)
from latticecurves.laurent import UniPoly, implicitize
from latticecurves.polygon import polygon

TABLE = {"I": (-1, 0), "II": (-1, 0), "III": (-2, 0), "IV": (0, 0), "V": (0, 1)}
RANGES = {"I": range(2, 21), "II": range(4, 21), "III": range(8, 21, 2),
          "IV": range(4, 21), "V": range(6, 21, 2)}
CLOSED_FORMS = {"I": (lambda m: (m * m - 1, m + 1)),
                "II": (lambda m: (m * m - 1, m + 1)),
                "III": (lambda m: (m * m - 2, m)),
                "IV": (lambda m: (m * m, m + 2)),
                "V": (lambda m: (m * m, m))}


def test_family_polygon_examples():
    assert family_polygon(FamilySpec("I", 3)) == polygon((0, 0), (3, 1), (1, 3))
    assert family_polygon(FamilySpec("IV", 4)) == \
        polygon((0, 0), (2, 0), (4, 1), (3, 4), (2, 3))
    assert family_polygon(FamilySpec("V", 6)) == \
        polygon((0, 0), (2, 0), (6, 1), (4, 6), (3, 5))


def test_family_ranges_enforced():
    for fam, bad in (("I", 1), ("II", 3), ("III", 7), ("III", 6),
                     ("IV", 3), ("V", 5), ("V", 4)):
        with pytest.raises(RangeError):
            FamilySpec(fam, bad)
    with pytest.raises(RangeError):
        FamilySpec("VI", 5)


def test_family_m_must_be_an_integer():
    # int() would read m = 2 and m = 8 here
    for fam, m in (("I", 2.5), ("III", 8.0)):
        with pytest.raises(TypeError):
            FamilySpec(fam, m)


def test_family_invariants_match_table():
    for fam, rng in RANGES.items():
        for m in rng:
            c2, g, lw = family_invariants(FamilySpec(fam, m))
            assert (c2, g) == TABLE[fam], (fam, m)
            assert lw == m, (fam, m)


def test_closed_form_volume_boundary():
    for fam, rng in RANGES.items():
        for m in rng:
            poly = family_polygon(FamilySpec(fam, m))
            vol, b = CLOSED_FORMS[fam](m)
            total, b_actual, _ = poly.lattice_counts()
            assert poly.volume == vol and b_actual == b, (fam, m)


def paper_family_iii(k: int, t: Fraction) -> tuple[Fraction, ...]:
    """f1..f4 of family III at t as the paper writes them, a = (k-1)/(k-2)."""
    a2 = Fraction(k - 1, k - 2) ** 2
    f1 = a2 ** (k - 1) * (t - 1)
    f2 = t ** (2 * k - 3) * (t - a2) * (t * t - a2) / a2
    f3 = t ** (2 * k - 1) * (t - a2) / a2
    return f1, f2, f3, f1 - f2 + f3


def test_family_parametrization_structure():
    p = family_parametrization(FamilySpec("I", 5))
    assert p.f1 == UniPoly([-1])
    assert p.f4 == p.f1 - p.f2 + p.f3
    # family III at s is the paper's map at t = a·s times one constant,
    # d/a^(2k-2) with d = k - 2, so it is the same map in the parameter s
    for m in (8, 12, 20, 40):
        k = m // 2
        a = Fraction(k - 1, k - 2)
        p3 = family_parametrization(FamilySpec("III", m))
        assert p3.f4 == p3.f1 - p3.f2 + p3.f3
        scales = set()
        for s in (Fraction(n, d) for n in range(-4, 6) for d in (1, 2, 3)):
            ours = [f.evaluate(s) for f in (p3.f1, p3.f2, p3.f3, p3.f4)]
            for f, g in zip(ours, paper_family_iii(k, a * s)):
                if g:
                    scales.add(f / g)
                else:
                    assert f == 0
        assert scales == {(k - 2) / a ** (2 * k - 2)}, m
    with pytest.raises(NoParametrization):
        family_parametrization(FamilySpec("V", 6))


def t_form_family_iii(m: int) -> Parametrization:
    """Family III in the paper's parameter t, a = n/d, each f times d^(2k-2) n^2."""
    k = m // 2
    n2, d, d2 = (k - 1) ** 2, k - 2, (k - 2) ** 2
    t = UniPoly.t_power
    f1 = n2 ** k * UniPoly([-1, 1])
    f2 = d ** (2 * k - 4) * (t(2 * k - 3) * UniPoly([-n2, d2]) * UniPoly([-n2, 0, d2]))
    f3 = d ** (2 * k - 2) * (t(2 * k - 1) * UniPoly([-n2, d2]))
    return Parametrization(f1, f2, f3, f1 - f2 + f3)


def test_family_iii_s_form_has_the_image_of_the_t_form():
    # t = a·s changes the parameter, not the curve: the same implicit equation
    keys = ("power", "newton_polygon", "normalized")
    for m in range(8, 17, 2):
        p, ref = family_parametrization(FamilySpec("III", m)), t_form_family_iii(m)
        ours, theirs = {}, {}
        assert implicitize(p.f1, p.f2, p.f3, p.f4, ours) == \
            implicitize(ref.f1, ref.f2, ref.f3, ref.f4, theirs), m
        assert [ours[k] for k in keys] == [theirs[k] for k in keys], m


def test_family_iii_resultant_needs_few_word_primes(monkeypatch):
    # coefficients at most k - 1 keep the Goldstein-Graham bound small; the
    # t-form, with ((k-1)^2)^k in f1, needs 83 word primes at m = 20
    from latticecurves import laurent

    res_mod_batch, primes = laurent._res_mod_batch, set()

    def counting(a, b, p):
        primes.update(p.tolist())
        return res_mod_batch(a, b, p)

    monkeypatch.setattr(laurent, "_res_mod_batch", counting)
    p = family_parametrization(FamilySpec("III", 20))
    implicitize(p.f1, p.f2, p.f3, p.f4)
    assert 0 < len(primes) <= 6


def test_multiplicity_lemma():
    for fam, ms in (("I", (2, 5, 40)), ("II", (4, 17, 40)),
                    ("III", (8, 22, 40)), ("IV", (4, 9, 40))):
        for m in ms:
            par = family_parametrization(FamilySpec(fam, m))
            assert verify_multiplicity_lemma(par) == m, (fam, m)


def test_multiplicity_lemma_rejects_bad_hypotheses():
    t = UniPoly([0, 1])
    with pytest.raises(HypothesisFailure):
        verify_multiplicity_lemma(Parametrization(t, t, UniPoly([1]), UniPoly([1])))
    one = UniPoly([1])
    with pytest.raises(HypothesisFailure):
        # f4 != f1 - f2 + f3
        verify_multiplicity_lemma(Parametrization(one, t, one, one))
    zero = UniPoly()
    for f3 in (zero, one):  # gcd(0, 0) = 0
        with pytest.raises(HypothesisFailure):
            verify_multiplicity_lemma(Parametrization(zero, zero, f3, f3))


def test_end_to_end_family_i_small():
    report = verify_family_end_to_end(FamilySpec("I", 2))
    assert report["passed"]
    assert report["ord_zero"] == (-1, 2) and report["ord_infinity"] == (2, -1)
    report3 = verify_family_end_to_end(FamilySpec("I", 3))
    assert report3["passed"] and report3["ord_zero"] == (-1, 3)


def test_end_to_end_family_ii_m5():
    report = verify_family_end_to_end(FamilySpec("II", 5))
    assert report["passed"]
    from latticecurves.laurent import LaurentPolynomial
    f = LaurentPolynomial.from_json(report["polynomial"])
    assert f.newton_polygon() == \
        polygon((0, 0), (2, 0), (5, 1), (4, 5), (3, 4))


def test_newton_polygon_match_ignores_translation(monkeypatch):
    # both polygons are translated to the origin before they are compared
    from latticecurves import families

    implicitize = families.implicitize

    def moved_implicitize(f1, f2, f3, f4, details):
        f = implicitize(f1, f2, f3, f4, details)
        details["newton_polygon"] = details["newton_polygon"].translate(1, 2)
        return f

    target = family_polygon(FamilySpec("II", 5)).translate(2, -3)
    monkeypatch.setattr(families, "implicitize", moved_implicitize)
    monkeypatch.setattr(families, "family_polygon", lambda spec: target)
    report = verify_family_end_to_end(FamilySpec("II", 5))
    assert report["newton_polygon_matches"] and report["passed"]


def test_end_to_end_budget():
    with pytest.raises(RangeError):
        verify_family_end_to_end(FamilySpec("I", 9), budget=8)
    with pytest.raises(RangeError):  # the default budget is m = 20
        verify_family_end_to_end(FamilySpec("I", 21))
    with pytest.raises(NoParametrization):
        verify_family_end_to_end(FamilySpec("V", 6))


def test_family_i_implicit_vanishes_on_samples():
    report = verify_family_end_to_end(FamilySpec("I", 4))
    from latticecurves.laurent import LaurentPolynomial
    f = LaurentPolynomial.from_json(report["polynomial"])
    par = family_parametrization(FamilySpec("I", 4))
    count = 0
    t = Fraction(1, 2)
    while count < 50:
        f2 = par.f2.evaluate(t)
        f4 = par.f4.evaluate(t)
        if f2 and f4:
            u = par.f1.evaluate(t) / f2
            v = par.f3.evaluate(t) / f4
            if u and v:
                assert f.evaluate(u, v) == 0, t
                count += 1
        t += Fraction(3, 7)
