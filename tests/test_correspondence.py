import cmath
import math
import random
import time
from typing import NamedTuple

import pytest

import weldlab.correspondence as co
from weldlab.errors import (DegenerateInput, InvalidArgument, InvalidCase, NotHyperbolic,
                            OverlapDetected, RankLimit)
from weldlab.fuchsian import CASE_I, CASE_II, build_group, legal_presets
from weldlab.hyperbolic import TAU, MobiusMap

GRID = [(n, p) for (n, p, case) in legal_presets() if case == CASE_I]


# -- model maps and fibers -------------------------------------------------------

def test_tau_identities_exact():
    for (n, p) in GRID:
        m = co.ModelMaps(n, p)
        pt = m.point(0.37 - 0.11j, 1)
        cur = pt
        for _ in range(n * p):
            cur = m.tau(cur)
        assert cur.canonical(n) == pt.canonical(n)
        assert m.R(m.tau(pt)) == m.R(pt)
        # tau^-1 steps the sheet down, and from sheet 1 to sheet p one turn back
        q = m.tau(pt)
        back = (co.ModelPoint(q.w0, q.e, q.j - 1) if q.j > 1
                else co.ModelPoint(q.w0, (q.e - 1) % n, p))
        assert back.canonical(n) == pt.canonical(n)


def test_fiber_roots_of_unity():
    m = co.ModelMaps(3, 1)
    fib = co.fiber(m, m.point(0.5))
    vals = sorted((q.value(3) for q in fib), key=cmath.phase)
    w = cmath.exp(2j * math.pi / 3)
    want = sorted([0.5 + 0j, 0.5 * w, 0.5 * w * w], key=cmath.phase)
    assert all(abs(a - b) < 1e-12 for a, b in zip(vals, want))


def test_fiber_2_2_example():
    m = co.ModelMaps(2, 2)
    fib = co.fiber(m, m.point(0.3, 1))
    got = sorted((round(q.value(2).real, 9), q.j) for q in fib)
    assert got == [(-0.3, 1), (-0.3, 2), (0.3, 1), (0.3, 2)]


def test_critical_fiber_size_p():
    for (n, p) in GRID:
        m = co.ModelMaps(n, p)
        assert len(co.fiber(m, m.point(0j, 1))) == p


def fiber_by_roots(m, pt):
    """Reference: the fiber enumerated independently of tau, as all n-th
    roots of R(pt) on every sheet."""
    target = m.R(pt)
    out = []
    if target == 0:
        return [co.ModelPoint(0j, 0, j) for j in range(1, m.p + 1)]
    r = abs(target) ** (1.0 / m.n)
    base = cmath.phase(target) / m.n
    for k in range(m.n):
        w = r * cmath.exp(1j * (base + TAU * k / m.n))
        for j in range(1, m.p + 1):
            out.append(co.ModelPoint(w, 0, j))
    return out


def test_fiber_equals_root_enumeration():
    rng = random.Random(3)
    for (n, p) in GRID:
        m = co.ModelMaps(n, p)
        for _ in range(20):
            w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            j = rng.randint(1, p)
            a = sorted((round(q.value(n).real, 10), round(q.value(n).imag, 10),
                        q.j) for q in co.fiber(m, m.point(w, j)))
            b = sorted((round(q.value(n).real, 10), round(q.value(n).imag, 10),
                        q.j) for q in fiber_by_roots(m, m.point(w, j)))
            assert len(a) == len(b) == n * p
            for x, y in zip(a, b):
                assert abs(x[0] - y[0]) < 1e-12
                assert abs(x[1] - y[1]) < 1e-12
                assert x[2] == y[2]


def tau_walk_fiber(m, pt):
    """Reference: the fiber as the tau-orbit walked with ModelMaps.tau, each
    point kept the first time its canonical form is met."""
    seen = {}
    cur = pt
    for _ in range(m.n * m.p):
        key = cur.canonical(m.n) if cur.w0 != 0 else (0j, 0, cur.j)
        seen.setdefault(key, cur)
        cur = m.tau(cur)
    return list(seen.values())


def test_fiber_matches_the_tau_walk():
    rng = random.Random(11)
    for _ in range(3000):
        n, p = rng.randint(1, 12), rng.randint(1, 12)
        w = 0j if rng.random() < 0.1 else complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        pt = co.ModelPoint(w, rng.randint(-2 * n, 2 * n), rng.randint(1, p))
        m = co.ModelMaps(n, p)
        got, want = co.fiber(m, pt), tau_walk_fiber(m, pt)
        assert [q.canonical(n) for q in got] == [q.canonical(n) for q in want]
        assert [q.value(n) for q in got] == [q.value(n) for q in want]


def test_fiber_cardinality():
    m = co.ModelMaps(4, 3)
    assert len(co.fiber(m, m.point(0.2, 2))) == 12


@pytest.mark.parametrize("n,p,j,error", [
    (0, 1, 1, DegenerateInput), (3, 0, 1, DegenerateInput), (-1, 2, 1, DegenerateInput),
    (1, 1, 5, InvalidArgument), (3, 2, 0, InvalidArgument), (3, 2, 3, InvalidArgument),
    (3.5, 1, 1, InvalidArgument), (3, 1.0, 1, InvalidArgument), (3, 1, 1.0, InvalidArgument)])
def test_fiber_refuses_bad_counts_and_sheets(n, p, j, error):
    # ModelMaps(0, 1) used to give an empty fiber, and a point on sheet 5 of
    # p = 1 a fiber on sheets that do not exist
    m = co.ModelMaps(n, p)
    with pytest.raises(error):
        co.fiber(m, co.ModelPoint(0.5 + 0j, 0, j))


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf, complex(0.5, math.nan)])
def test_fiber_refuses_non_finite_points(w):
    # a NaN or infinite w once gave a fiber of NaN or infinite points
    m = co.ModelMaps(3, 2)
    with pytest.raises(InvalidArgument, match="w must be finite"):
        co.fiber(m, m.point(w))


@pytest.mark.parametrize("w", [1.0, -1.0, 1j, 2.0, 0.8 + 0.8j, complex(1.7e308, 1.7e308)])
def test_fiber_refuses_points_outside_the_disk(w):
    # the model is D x {1..p}; 1.7e308 + 1.7e308i once rotated to an infinite
    # fiber point
    m = co.ModelMaps(3, 2)
    with pytest.raises(InvalidArgument, match="open unit disk"):
        co.fiber(m, m.point(w))


# -- words ------------------------------------------------------------------------

class Word(NamedTuple):
    """Reference: the free-product word engine in eta and tau that the library
    used before its words were written in closed form.  Alternating letters,
    tau powers as integers; adjacent tau powers add and cancel only at zero,
    and eta eta cancels.
    """

    letters: tuple          # sequence of ("t", k) and ("e",), first-applied-first

    @staticmethod
    def of(*letters):
        return Word(()).extend(letters)

    def extend(self, letters):
        out = list(self.letters)
        for lt in letters:
            out.append(lt)
            _reduce(out)
        return Word(tuple(out))

    def __mul__(self, other):
        """self * other = apply other first."""
        return other.extend(self.letters)

    def inverse(self):
        out = []
        for lt in reversed(self.letters):
            out.append(("t", -lt[1]) if lt[0] == "t" else ("e",))
        return Word(()).extend(out)

    def is_identity(self):
        return not self.letters

    def __str__(self):
        # letters are stored first-applied-first; print in composition order
        if not self.letters:
            return "1"
        bits = []
        for lt in reversed(self.letters):
            bits.append("eta" if lt[0] == "e" else
                        ("tau" if lt[1] == 1 else f"tau^{lt[1]}"))
        return "*".join(bits)


def _reduce(letters):
    while len(letters) >= 2:
        a, b = letters[-2], letters[-1]
        if a[0] == "t" and b[0] == "t":
            k = a[1] + b[1]
            letters.pop(); letters.pop()
            if k:
                letters.append(("t", k))
            continue
        if a[0] == "e" and b[0] == "e":
            letters.pop(); letters.pop()
            continue
        break


def word_tau(k=1):
    return Word.of(("t", k)) if k else Word(())


def word_eta():
    return Word.of(("e",))


def component_action(m, word, j):
    """Component reached from j along the word: eta acts by sigma, tau by +1."""
    for lt in word.letters:
        j = m.sigma[j] if lt[0] == "e" else ((j - 1 + lt[1]) % m.p) + 1
    return j


WORD_GRID = [(n, p, case) for n in (1, 3, 4, 5, 6, 7, 10)
             for p in list(range(1, 13)) + [16, 31, 64] for case in (CASE_I, CASE_II)
             if n * p >= 3 and (case == CASE_I or (n == 1 and p % 2 == 0 and p >= 4))]


def test_closed_form_words_match_the_reference_engine():
    for (n, p, case) in sorted(set(legal_presets()) | set(WORD_GRID)):
        mt = co.model_tiling_set(n, p, case)
        assert co.branch_words(mt) == [str(word_tau(k) * word_eta())
                                       for k in range(1, n * p)], (n, p, case)
        rep = co.recover_representation(mt)
        assert [g.k for g in rep["generators"]] == list(mt.k_exponents)
        for g in rep["generators"]:
            # f_j = tau^{k_j} eta, conjugated by tau^{j-1}
            gamma = word_tau(-(g.j - 1)) * (word_tau(g.k) * word_eta()) * word_tau(g.j - 1)
            assert g.word == str(gamma), (n, p, case, g.j)
            assert component_action(mt, gamma, 1) == 1, (n, p, case, g.j)
        assert rep["rotation_word"] == str(word_tau(p))


def test_branch_words_count_and_identity():
    for (n, p, case) in legal_presets():
        mt = co.model_tiling_set(n, p, case)
        assert len(co.branch_words(mt)) == n * p - 1
    # tau = (tau^2 eta)(tau eta)^-1, which the CLI reports as
    # tau_generating_identity without forming the words
    t2e, te = word_tau(2) * word_eta(), word_tau(1) * word_eta()
    assert (t2e * te.inverse()).letters == word_tau(1).letters


def test_branch_words_3_1():
    mt = co.model_tiling_set(3, 1)
    assert co.branch_words(mt) == ["tau*eta", "tau^2*eta"]


def test_branch_words_smallest_case():
    # np = 2 is the smallest model: a single forward branch tau o eta
    mt = co.model_tiling_set(1, 2)
    assert co.branch_words(mt) == ["tau*eta"]


def test_tau_eta_word_drops_zero_powers():
    assert co.tau_eta_word(0) == "eta"
    assert co.tau_eta_word(0, 3) == "eta*tau^3"
    assert co.tau_eta_word(-2, 1) == "tau^-2*eta*tau"


@pytest.mark.parametrize("n,p,case,error", [(3, 2.5, CASE_I, InvalidArgument),
                                             (3, 10**9, CASE_I, RankLimit),
                                             (2, 3, CASE_I, InvalidCase),
                                             (1, 3, CASE_II, InvalidCase)])
def test_model_tiling_set_checks_parameters(n, p, case, error):
    # (3, 2.5) raised a raw TypeError and (3, 10**9) built a table of 1e9 sides
    with pytest.raises(error):
        co.model_tiling_set(n, p, case)


def test_eta_squared_identity_on_points():
    rng = random.Random(1)
    for (n, p, case) in legal_presets():
        mt = co.model_tiling_set(n, p, case)
        ee = word_eta() * word_eta()
        assert ee.is_identity()
        for _ in range(100 // len(legal_presets()) + 2):
            j = rng.randint(1, p)
            assert component_action(mt, ee, j) == j


def test_word_reduction():
    w = word_tau(3) * word_tau(-3)
    assert w.is_identity()
    w2 = word_tau(2) * word_eta() * word_eta() * word_tau(-2)
    assert w2.is_identity()
    inv = (word_tau(1) * word_eta()).inverse()
    assert str(inv) == "eta*tau^-1"


# -- recovery ----------------------------------------------------------------------

def test_recover_k_exponents():
    mt = co.model_tiling_set(1, 4)
    # sigma = (1 4)(2 3): k_j = j - sigma(j) mod p in {1..p}
    assert mt.k_exponents == (1, 3, 1, 3)
    mt2 = co.model_tiling_set(1, 4, CASE_II)
    # sigma = (1)(2 4)(3): self-paired sides get k = p
    assert mt2.k_exponents == (4, 2, 4, 2)


@pytest.mark.parametrize("n,p,case", legal_presets())
def test_recover_representation(n, p, case):
    mt = co.model_tiling_set(n, p, case)
    rep = co.recover_representation(mt)
    assert rep["rotation_order"] == n
    for g in rep["generators"]:
        if mt.sigma[g.j] == g.j:
            assert g.order == 2
        else:
            assert g.order is None
    # relation orders match the orbifold cone orders
    from weldlab.fuchsian import build_group, orbifold_signature
    sig = orbifold_signature(build_group(n, p, case))
    order2_words = sum(1 for g in rep["generators"] if g.order == 2)
    assert order2_words == sig.cone_orders.count(2)
    if n >= 3:
        assert n in sig.cone_orders


def test_eta_component_orbits_match_gallery():
    # the illustrated eta-orbit structure of the tiling-set components:
    # Gamma_{3,1}: one invariant disk; Gamma^2_{1,4}: two invariant + one
    # 2-cycle; Gamma_{1,3}: one invariant + one 2-cycle
    def orbit_shape(n, p, case):
        mt = co.model_tiling_set(n, p, case)
        inv = sum(1 for j in range(1, p + 1) if mt.sigma[j] == j)
        two_cycles = (p - inv) // 2
        return inv, two_cycles

    assert orbit_shape(3, 1, CASE_I) == (1, 0)
    assert orbit_shape(1, 4, CASE_II) == (2, 1)
    assert orbit_shape(1, 3, CASE_I) == (1, 1)


def test_recover_3_1_word():
    mt = co.model_tiling_set(3, 1)
    rep = co.recover_representation(mt)
    g = rep["generators"][0]
    assert str(g.word) == "tau*eta"
    assert g.order == 2
    # tau^p with p = 1 is tau itself; it models M_w and has order n = 3
    assert str(rep["rotation_word"]) == "tau"
    assert rep["rotation_order"] == 3


# -- tilings -----------------------------------------------------------------------

@pytest.mark.parametrize("n,p,case,length", [(3, 1, CASE_I, 4),
                                             (4, 1, CASE_I, 4),
                                             (1, 3, CASE_I, 3),
                                             (1, 4, CASE_I, 3),
                                             (1, 4, CASE_II, 3)])
def test_tiling_disjoint(n, p, case, length):
    preset = build_group(n, p, case)
    rep = co.group_tiling(preset, length)
    assert rep["overlaps"] == 0
    assert rep["count"] >= 1


def test_tiling_length_guard():
    with pytest.raises(RankLimit):
        co.group_tiling(build_group(3, 1), 99)


class _Enumerated(Exception):
    pass


def _refuse_enumeration(*args):
    raise _Enumerated


def test_ball_size_is_the_free_product_ball():
    # Z/2 * Z/3, the free group F_2 (Case I) and Z * Z/2 * Z/2 (Case II,
    # the same growth), and Z * Z * Z * Z/5; lengths 0..8
    cases = [((3, 1, CASE_I), [1, 4, 8, 14, 22, 34, 50, 74, 106]),
             ((1, 4, CASE_I), [1, 5, 17, 53, 161, 485, 1457, 4373, 13121]),
             ((1, 4, CASE_II), [1, 5, 17, 53, 161, 485, 1457, 4373, 13121]),
             ((5, 6, CASE_I), [1, 9, 65, 455, 3173, 22115, 154121, 1074071, 7485197])]
    for (n, p, case), balls in cases:
        preset = build_group(n, p, case)
        assert [co._ball_size(preset, k) for k in range(9)] == balls


@pytest.mark.parametrize("n,p,case", [(1, 4, CASE_I), (1, 6, CASE_II), (3, 1, CASE_I),
                                      (5, 6, CASE_I), (4, 3, CASE_I)])
def test_tiling_inverts_each_generator_once(monkeypatch, n, p, case):
    # the ball count, the enumeration and the tiling each used to invert
    # every pairing g_s with s < sigma(s), and M_w
    preset = build_group(n, p, case)
    inverted = []
    inverse = MobiusMap.inverse
    monkeypatch.setattr(MobiusMap, "inverse", lambda g: inverted.append(g) or inverse(g))
    co.group_tiling(preset, 2)
    pairs = sum(s < t for s, t in preset.sigma.items())
    assert len(inverted) == pairs + (n > 1)


def test_tiling_budget_checked_before_enumeration(monkeypatch):
    # group_elements builds each word's element by compose, and group_tiling
    # calls it first, so a refused compose means some work was started
    big, wide, small = build_group(5, 6), build_group(1, 6), build_group(3, 1)
    monkeypatch.setattr(co.MobiusMap, "compose", _refuse_enumeration)
    # (5, 6): 22,115 tiles at length 5 pass the budget, 7,485,197 at 8 do not
    for enumerate_ in (co.group_tiling, co.group_elements):
        with pytest.raises(_Enumerated):
            enumerate_(big, 5)
        with pytest.raises(RankLimit, match="7485197"):
            enumerate_(big, 8)
        with pytest.raises(RankLimit, match="585937"):
            enumerate_(wide, 8)
        with pytest.raises(RankLimit, match="9 > 8"):
            enumerate_(small, 9)


@pytest.mark.parametrize("length", [2.5, 3.0, "3", None])
def test_word_length_must_be_an_integer(length):
    preset = build_group(1, 4)
    for enumerate_ in (co.group_tiling, co.group_elements):
        with pytest.raises(InvalidArgument, match="word length must be an integer"):
            enumerate_(preset, length)


def test_elements_refuse_negative_length_before_work(monkeypatch):
    # a negative length used to return the identity alone
    monkeypatch.setattr(co, "_ball_size", _refuse_enumeration)
    with pytest.raises(RankLimit, match="-3 < 0"):
        co.group_elements(build_group(1, 4), -3)


def test_tiling_refuses_negative_length_before_work(monkeypatch):
    # a negative length used to raise a false OverlapDetected
    monkeypatch.setattr(co, "_pi_hat_samples", _refuse_enumeration)
    with pytest.raises(RankLimit, match="-3 < 0"):
        co.group_tiling(build_group(1, 4), -3)


def test_fiber_budget_checked_before_enumeration(monkeypatch):
    # the fiber's points are made in closed form, one ModelPoint each
    pt = co.ModelPoint(0.5, 0, 1)
    monkeypatch.setattr(co, "ModelPoint", _refuse_enumeration)
    with pytest.raises(_Enumerated):
        co.fiber(co.ModelMaps(500, 500), pt)
    with pytest.raises(RankLimit, match="250500"):
        co.fiber(co.ModelMaps(500, 501), pt)


def test_tiling_length_zero():
    rep = co.group_tiling(build_group(3, 1), 0)
    assert rep["count"] == 1
    assert rep["tiles"][0]["word"] == ()


def test_group_elements_deterministic():
    preset = build_group(3, 1)
    e1 = co.group_elements(preset, 3)
    e2 = co.group_elements(preset, 3)
    assert [w for (w, _) in e1] == [w for (w, _) in e2]


def quadratic_group_elements(preset, max_word_length):
    """Reference: the BFS compared against every accepted element (O(N^2))."""
    letters = []
    for s in range(1, preset.p + 1):
        g = preset.first_sector[s - 1]
        letters.append((f"g{s}", g))
        if preset.sigma[s] != s:
            letters.append((f"g{s}'", g.inverse()))
    if preset.n > 1:
        letters += [("m", preset.rotation), ("m'", preset.rotation.inverse())]
    accepted = [((), MobiusMap.identity())]
    frontier = list(accepted)
    for _ in range(max_word_length):
        nxt = []
        for word, mat in frontier:
            for name, gen in letters:
                m2 = gen.compose(mat)
                if all(m2.dist(other) >= 1e-8 for _, other in accepted):
                    accepted.append((word + (name,), m2))
                    nxt.append(accepted[-1])
        frontier = sorted(nxt, key=lambda e: e[0])
    return sorted(accepted, key=lambda e: (len(e[0]), e[0]))


#: the reference's absolute 1e-8 keeps copies of one element here at length 3
FREE_PRODUCT_BALL_3 = {(3, 5): 278, (3, 6): 429, (4, 5): 289, (4, 6): 442,
                       (5, 5): 300, (5, 6): 455}
PARITY = [(n, p, case, 5 if n * p <= 4 else 4 if n * p <= 6 else 3)
          for (n, p, case) in legal_presets() if (n, p) not in FREE_PRODUCT_BALL_3]


@pytest.mark.parametrize("n,p,case,length", PARITY)
def test_group_elements_match_quadratic_reference(n, p, case, length):
    preset = build_group(n, p, case)
    got = co.group_elements(preset, length)
    want = quadratic_group_elements(preset, length)
    assert [w for w, _ in got] == [w for w, _ in want]
    assert all(g.dist(h) == 0 for (_, g), (_, h) in zip(got, want))


@pytest.mark.parametrize("n,p,case", [(1, 20, CASE_I), (3, 21, CASE_I), (1, 18, CASE_II),
                                      (1, 20, CASE_II)])
def test_group_elements_shortlex_with_two_digit_names(n, p, case):
    # names sort as strings, g1' < g10 < g2: the levels are built in that
    # order, with no sort after them
    preset = build_group(n, p, case)
    words = [w for w, _ in co.group_elements(preset, 3)]
    assert ("g10",) in words and ("g2",) in words
    assert words == sorted(words, key=lambda w: (len(w), w))
    got = co.group_elements(preset, 2)
    want = quadratic_group_elements(preset, 2)
    assert [w for w, _ in got] == [w for w, _ in want]
    assert all(g.dist(h) == 0 for (_, g), (_, h) in zip(got, want))


@pytest.mark.parametrize("n,p", sorted(FREE_PRODUCT_BALL_3))
def test_group_elements_free_product_ball(n, p):
    preset = build_group(n, p)
    assert len(co.group_elements(preset, 3)) == FREE_PRODUCT_BALL_3[n, p]
    assert co.group_tiling(preset, 3)["count"] == FREE_PRODUCT_BALL_3[n, p]


#: cell of the grid on which hashed_group_elements hashes images
_CELL = 1e-9


def _cell(z: complex):
    return (round(z.real / _CELL), round(z.imag / _CELL))


def _near(cells: dict, z: complex):
    """Entries hashed at the grid cell of z or at one of its eight neighbours."""
    kx, ky = _cell(z)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            yield from cells.get((kx + dx, ky + dy), ())


def hashed_group_elements(preset, max_word_length):
    """Reference: the BFS the normal-form enumeration replaced, deduplicated
    by a grid hash of the image of one interior point and, inside the hashed
    neighbourhood, by projective distance relative to the entry size."""
    same_element = 1e-6
    letters = []
    for s in range(1, preset.p + 1):
        g = preset.first_sector[s - 1]
        letters.append((f"g{s}", g))
        if preset.sigma[s] != s:
            letters.append((f"g{s}'", g.inverse()))
    if preset.n > 1:
        letters += [("m", preset.rotation), ("m'", preset.rotation.inverse())]
    c = co._pi_hat_samples(preset)[0]
    ident = MobiusMap.identity()
    accepted = [((), ident)]
    cells = {_cell(c): [ident]}
    frontier = [((), ident)]
    for _ in range(max_word_length):
        nxt = []
        for word, mat in frontier:
            for name, gen in letters:
                m2 = gen.compose(mat)
                z = m2(c)
                size = max(abs(m2.a), abs(m2.b), abs(m2.c), abs(m2.d))
                if any(m2.dist(other) < same_element * size
                       for other in _near(cells, z)):
                    continue
                cells.setdefault(_cell(z), []).append(m2)
                accepted.append((word + (name,), m2))
                nxt.append(accepted[-1])
        frontier = sorted(nxt, key=lambda e: e[0])
    return sorted(accepted, key=lambda e: (len(e[0]), e[0]))


@pytest.mark.parametrize("n,p,case", legal_presets())
def test_group_elements_match_hashed_reference(n, p, case):
    # at every length whose ball stays under 25,000 elements; the reference
    # keeps extra copies on (4, 6) and (5, 6) at length 5
    preset = build_group(n, p, case)
    length = max(k for k in range(6) if co._ball_size(preset, k) <= 25_000)
    got = co.group_elements(preset, length)
    want = hashed_group_elements(preset, length)
    for k in range(length + 1):
        ball = co._ball_size(preset, k)
        mine = [e for e in got if len(e[0]) <= k]
        ref = [e for e in want if len(e[0]) <= k]
        assert len(mine) == ball
        if len(ref) == ball:
            assert [w for w, _ in mine] == [w for w, _ in ref]
            assert all(g.dist(h) == 0 for (_, g), (_, h) in zip(mine, ref))


@pytest.mark.parametrize("n,p", [(3, 5), (3, 6), (4, 5), (4, 6), (5, 5), (5, 6)])
def test_group_elements_count_the_ball(n, p):
    preset = build_group(n, p)
    assert len(co.group_elements(preset, 5)) == co._ball_size(preset, 5)


def test_tiling_5_4_length_6():
    # the hashed dedup kept 22,439 elements of a ball of 22,437 here
    preset = build_group(5, 4)
    assert len(co.group_elements(preset, 6)) == 22_437
    assert co.group_tiling(preset, 6)["count"] == 22_437


@pytest.mark.parametrize("n,p", [(3, 6), (4, 6), (5, 6)])
def test_tiling_length_5_passes(n, p):
    # (5, 6) passes since the return bound grows with the tile: its 3 strays
    # under the fixed 1e-6 alone came back within the growing bound
    preset = build_group(n, p)
    assert co.group_tiling(preset, 5)["count"] == co._ball_size(preset, 5)


def test_tiling_3_5_length_6_passes():
    # refused with 8 strays under the fixed return bound alone
    preset = build_group(3, 5)
    assert co.group_tiling(preset, 6)["count"] == co._ball_size(preset, 6) == 52_698


def test_tiling_time_budget():
    t0 = time.perf_counter()
    rep = co.group_tiling(build_group(1, 4), 6)
    assert time.perf_counter() - t0 < 5.0
    assert rep["count"] == 1457


@pytest.mark.parametrize("n,p,case,side", [(3, 1, CASE_I, 1), (1, 3, CASE_I, 2),
                                           (1, 4, CASE_I, 1), (1, 4, CASE_II, 2),
                                           (4, 2, CASE_I, 2), (1, 5, CASE_I, 3),
                                           (3, 3, CASE_I, 2), (6, 1, CASE_I, 1)])
def test_tiling_rejects_perturbed_generator(n, p, case, side):
    preset = build_group(n, p, case)
    gens = list(preset.first_sector)
    gens[side - 1] = gens[side - 1].compose(MobiusMap.rotation(1e-4))
    refused_like_the_search(preset._replace(first_sector=tuple(gens)))


def test_tiling_rejects_repeated_tile(monkeypatch):
    preset = build_group(1, 4)
    elems = co.group_elements(preset, 3)
    monkeypatch.setattr(co, "group_elements", lambda *_: elems + [elems[7]])
    with pytest.raises(OverlapDetected, match="1 tile pairs share the image"):
        co.group_tiling(preset, 3)


def test_tiling_counts_each_pair_of_copies(monkeypatch):
    # three copies of one word are three pairs, two of another one more
    preset = build_group(1, 4)
    elems = co.group_elements(preset, 3)
    monkeypatch.setattr(co, "group_elements",
                        lambda *_: elems + [elems[7], elems[7], elems[9]])
    with pytest.raises(OverlapDetected, match="^0 tiles fail .* 4 tile pairs share"):
        co.group_tiling(preset, 3)


def test_tiling_rejects_two_words_of_one_map(monkeypatch):
    # every word is distinct, but two carry one element, as a grid of first
    # images would have caught; the corrupted tile fails against its parent,
    # and its 3 children fail with it, as their parent failed
    preset = build_group(1, 4)
    elems = co.group_elements(preset, 3)
    elems[8] = (elems[8][0], elems[7][1])
    monkeypatch.setattr(co, "group_elements", lambda *_: elems)
    with pytest.raises(OverlapDetected, match="^4 tiles fail .* 0 tile pairs share"):
        co.group_tiling(preset, 3)


def test_tiling_rejects_a_mislabelled_rotation_run(monkeypatch):
    # M_w labelled m^3, a run longer than Z/5 spells, which is M_w^3; it
    # fails against its parent m^2, and the 5 descendants of m fail too, as
    # their parent word is gone
    preset = build_group(5, 1)
    elems = co.group_elements(preset, 3)
    i = next(i for i, (w, _) in enumerate(elems) if w == ("m",))
    elems[i] = (("m", "m", "m"), elems[i][1])
    monkeypatch.setattr(co, "group_elements", lambda *_: elems)
    with pytest.raises(OverlapDetected, match="^6 tiles fail .* 0 tile pairs share"):
        co.group_tiling(preset, 3)


def test_word_returns_stop_where_a_point_leaves_its_path(monkeypatch):
    # the word's algebra cannot see these: M_w^2 read as m ends one sector
    # off, and the identity read as g1 never enters g1's pocket
    preset = build_group(3, 1)
    ident, m = MobiusMap.identity(), preset.rotation
    for elems, strays in ([((), ident), (("m",), m.compose(m))], 1), \
                         ([((), ident), (("g1",), ident)], 1), \
                         ([((), ident), (("m",), m)], 0):
        monkeypatch.setattr(co, "group_elements", lambda *_: elems)
        if strays:
            with pytest.raises(OverlapDetected, match=f"^{strays} tiles fail .* 0 tile pairs"):
                co.group_tiling(preset, 1)
        else:
            assert co.group_tiling(preset, 1)["count"] == 2


@pytest.mark.parametrize("n,p,case", [(1, 4, CASE_I), (3, 1, CASE_I), (3, 2, CASE_I),
                                      (4, 2, CASE_I), (1, 5, CASE_I), (3, 3, CASE_I),
                                      (6, 1, CASE_I)])
def test_tiling_rejects_a_pocket_that_misses_its_tiles(n, p, case):
    # side 1 drawn at 0.9 of its radius: the generators still spell every
    # word back to z0, so only the pocket test can see it
    preset = build_group(n, p, case)
    sides = list(preset.sides)
    sides[0] = sides[0]._replace(radius=0.9 * sides[0].radius)
    refused_like_the_search(preset._replace(sides=tuple(sides)))


def walk_returns(preset, elems, samples):
    """Reference: the walk group_tiling used before it checked each tile
    against its parent.  For each (word, element), the samples carried into
    its tile and reduced back along the whole word, the letter applied last
    first, or None where a point leaves the path the word names."""
    # M_w^-k is z -> e^{-ik sector} z; the sides of Pi-hat are never diameters
    # once np >= 3, so their pockets are |z - center| < radius
    spin = [cmath.exp(-1j * TAU / preset.n * k) for k in range(preset.n)]
    pockets = [(side.center, side.radius, g.a, g.b, g.c, g.d)
               for side, g in zip(preset.sides, preset.first_sector)]
    undo = {name: s for factor in co._free_factors(preset) for name, _, _, s in factor}
    for word, g in elems:
        a, b, c, d = g.a, g.b, g.c, g.d
        ws = [(a * z + b) / (c * z + d) for z in samples]
        i = len(word)
        while i and ws is not None:
            name = word[i - 1]
            if undo[name] is None:
                j = i - 1
                while j and word[j - 1] == name:
                    j -= 1
                turn = spin[i - j] if name == "m" else spin[j - i]
                ws = [w * turn for w in ws]
                # 0 <= arg w < 2 pi/n: not below the real axis, below the far edge
                ws = ws if all(w.imag >= 0 > (w * spin[1]).imag for w in ws) else None
                i = j
            else:
                center, radius, pa, pb, pc, pd = pockets[undo[name] - 1]
                ws = ([(pa * w + pb) / (pc * w + pd) for w in ws]
                      if all(abs(w - center) < radius for w in ws) else None)
                i -= 1
        yield ws


def search_returns(preset, elems, max_word_length):
    """Reference: the pocket search group_tiling used before it reduced along
    each tile's word.  Every step rotates the point into the sector by its
    phase and applies the pairing of the deepest pocket holding it; each
    sample ends where no pocket holds it, or as None past L + 1 steps."""
    n, sector = preset.n, TAU / preset.n
    spin = [cmath.exp(-1j * sector * k) for k in range(n)]
    pockets = [(side.center, side.radius, g.a, g.b, g.c, g.d)
               for side, g in zip(preset.sides, preset.first_sector)]

    def reduce(w):
        for _ in range(max_word_length + 2):
            if n > 1:
                w *= spin[min(int(cmath.phase(w) % TAU // sector), n - 1)]
            depth, pocket = 0.0, None
            for pk in pockets:
                d = abs(w - pk[0]) - pk[1]
                if d < depth:
                    depth, pocket = d, pk
            if pocket is None:
                return w
            _, _, pa, pb, pc, pd = pocket
            w = (pa * w + pb) / (pc * w + pd)
        return None

    return [[reduce((g.a * z0 + g.b) / (g.c * z0 + g.d)) for z0 in co._pi_hat_samples(preset)]
            for _, g in elems]


def _strays(returns, samples):
    return sum(1 for ws in returns
               if ws is None or any(w is None or abs(w - z0) > co._RETURN_TOL
                                    for w, z0 in zip(ws, samples)))


@pytest.mark.parametrize("n,p,case", legal_presets())
def test_word_returns_match_the_search(n, p, case):
    # at the longest length whose ball has at most 3,000 tiles, every
    # sample comes back to the same bits by either path
    preset = build_group(n, p, case)
    length = max(k for k in range(co.MAX_WORD_LENGTH + 1) if co._ball_size(preset, k) <= 3000)
    elems = co.group_elements(preset, length)
    got = list(walk_returns(preset, elems, co._pi_hat_samples(preset)))
    assert got == search_returns(preset, elems, length)
    assert co.group_tiling(preset, length)["count"] == len(elems)


def refused_like_the_search(preset, length=3):
    """group_tiling refuses the preset, with as many stray tiles as the walk
    and search references find, and more than none."""
    elems = co.group_elements(preset, length)
    samples = co._pi_hat_samples(preset)
    with pytest.raises(OverlapDetected, match="^[0-9]+ tiles fail") as refused:
        co.group_tiling(preset, length)
    strays = int(str(refused.value).split()[0])
    assert strays == _strays(walk_returns(preset, elems, samples), samples) \
        == _strays(search_returns(preset, elems, length), samples) > 0


def test_tiling_needs_interior():
    with pytest.raises(DegenerateInput):
        co.group_tiling(build_group(1, 2), 1)


# -- Blaschke -----------------------------------------------------------------------

def test_blaschke_z2():
    b = co.blaschke([0, 0])
    assert abs(b.fixed_point) < 1e-12
    z = 0.9 + 0j
    for _ in range(1000):
        z = b(z)
    assert abs(z) < 1e-10


def test_blaschke_half():
    b = co.blaschke([0, 0.5])
    assert abs(b.fixed_point) < 1e-12
    assert abs(b.multiplier + 0.5) < 1e-15


def test_blaschke_multiplier_matches_finite_difference():
    rng = random.Random(31)
    checked = 0
    for _ in range(300):
        zeros = [cmath.rect(rng.uniform(0, 0.9), rng.uniform(0, TAU))
                 for _ in range(rng.randint(2, 5))]
        try:
            b = co.blaschke(zeros)
        except NotHyperbolic:
            continue
        z, h = b.fixed_point, 1e-6
        assert abs(b.multiplier - (b(z + h) - b(z - h)) / (2 * h)) < 1e-8
        checked += 1
    assert checked > 100


def test_blaschke_orbits_converge():
    rng = random.Random(5)
    b = co.blaschke([0.1 + 0.2j, -0.3j, 0.4])
    for _ in range(200):
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        for _ in range(1000):
            z = b(z)
        assert abs(z - b.fixed_point) < 1e-8


def blaschke_circle_degree(b, samples=64):
    """Reference: the topological degree of the circle restriction of b, by
    argument winding."""
    total = 0.0
    prev = cmath.phase(b(cmath.exp(0j)))
    for i in range(1, samples + 1):
        t = TAU * i / samples
        cur = cmath.phase(b(cmath.exp(1j * t)))
        d = (cur - prev) % TAU
        total += d
        prev = cur
    return round(total / TAU)


def test_blaschke_circle_degree():
    for zeros in ([0, 0], [0, 0.5], [0.1 + 0.2j, -0.3j, 0.4]):
        b = co.blaschke(zeros)
        assert blaschke_circle_degree(b) == len(zeros)


def test_blaschke_not_hyperbolic():
    with pytest.raises(NotHyperbolic):
        co.blaschke([0.99])  # degree 1
    with pytest.raises(NotHyperbolic):
        co.blaschke([0, 1.5])  # zero outside the disk
