"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time

import pytest

import weldlab.bowen_series as bs
import weldlab.correspondence as co
import weldlab.mating_schema as ms
import weldlab.welding as wl
from weldlab.fuchsian import (CASE_I, CASE_II, build_group, legal_presets,
                              orbifold_signature, poincare_check,
                              self_paired_sides, side_pairing_check)
from weldlab.hyperbolic import TAU, angle_dist, norm_angle

from test_bowen_series import _eval_circle_safe
from test_correspondence import fiber_by_roots

GRID = legal_presets()


class _Criterion:
    def __init__(self, number, name, budget):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name}: {status} "
              f"({dt:.2f}s / budget {self.budget:.0f}s)")
        if exc_type is None and dt > self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget: {dt:.2f}s")
        return False


def _surface(slots, contact):
    bc = ms.assemble(slots, contact)
    wc = wl.weld(bc)
    return bc, wl.surface_report(wc)


def _sweep_complexes(count=100, seed=20260809):
    rng = random.Random(seed)
    out = []
    for name in ms.PAPER_EXAMPLES:
        slots, contact, _ = ms.paper_example(name)
        out.append(ms.assemble(slots, contact))
    for _ in range(count):
        slots, contact = ms.random_schema(rng)
        out.append(ms.assemble(slots, contact))
    return out


def test_01_genus_golden_table():
    golden = {
        "5.1": (4, [0, 0, 0, 0], False),
        "5.2": (2, [0, 0], False),
        "5.3": (1, [0], True),
        "5.4": (1, [1], True),
        "5.5": (1, [2], True),
        "final": (1, [2], True),
    }
    with _Criterion(1, "genus-golden-table", 1.0):
        for name, (ncomp, genera, connected) in golden.items():
            slots, contact, _ = ms.paper_example(name)
            bc, sr = _surface(slots, contact)
            assert len(sr.components) == ncomp, name
            assert sorted(c.genus for c in sr.components) == sorted(genera), name
            assert sr.connected() == connected, name


def test_02_newton_genus_law():
    with _Criterion(2, "newton-genus-law", 1.0):
        for n in range(3, 11):
            slots, contact = ms.newton_schema(n)
            bc, sr = _surface(slots, contact)
            want = n // 2 - 1 if n % 2 == 0 else (n - 1) // 2
            assert len(sr.components) == 1
            assert sr.components[0].genus == want, n


def test_03_zipped_sphere_law():
    with _Criterion(3, "zipped-sphere-law", 5.0):
        for bc in _sweep_complexes(100):
            for z in wl.zipped_report(bc):
                assert z["euler_characteristic"] == 2


def test_04_genus_fixed_point_identity():
    with _Criterion(4, "genus-fixed-point-identity", 5.0):
        for name in ms.PAPER_EXAMPLES:
            slots, contact, _ = ms.paper_example(name)
            bc, sr = _surface(slots, contact)
            if not sr.connected():
                continue
            c = sr.components[0]
            g_chi = (2 - c.euler_characteristic) // 2
            g_fix = (c.fix_eta - 2) // 2
            assert g_chi == g_fix == c.genus, name
        for n in range(3, 11):
            bc, sr = _surface(*ms.newton_schema(n))
            c = sr.components[0]
            assert (c.fix_eta - 2) // 2 == (2 - c.euler_characteristic) // 2


def test_05_cor_4_14_sweep():
    with _Criterion(5, "order2-count-forces-genus", 5.0):
        checked = 0
        for bc in _sweep_complexes(100):
            sr = wl.surface_report(wl.weld(bc))
            if sr.connected() and bc.order2_total() >= 3:
                checked += 1
                assert sr.components[0].genus >= 1
        assert checked >= 10  # the sweep must actually exercise the implication


def test_06_welding_graph_lemmas():
    with _Criterion(6, "welding-graph-lemmas", 10.0):
        for bc in _sweep_complexes(100):
            graph = wl.welding_graph(bc)
            assert all((b, a) in graph.edges for (a, b) in graph.edges)  # Lemma 4.6
            wc = wl.weld(bc)
            assert len(graph.components()) == len(wc.components)  # Lemma 4.7
            sr = wl.surface_report(wc)  # Lemma 4.8: both invariance tests agree
            for c in sr.components:
                minus = {fi for (fi, cp) in c.faces if cp == -1}
                plus = {fi for (fi, cp) in c.faces if cp == +1}
                assert (minus == plus) == c.eta_invariant
                assert bool(minus & plus) == c.eta_invariant


def test_07_covering_degrees():
    with _Criterion(7, "covering-degrees", 2.0):
        for (n, p, case) in GRID:
            for factor in ([False, True] if n >= 3 else [False]):
                m = bs.bowen_series_map(n, p, case, factor=factor)
                assert bs.circle_degree(m) == n * p - 1


def test_08_poincare_traces():
    with _Criterion(8, "poincare-traces", 2.0):
        for (n, p, case) in GRID:
            preset = build_group(n, p, case)
            rep = poincare_check(preset)
            assert rep["rotation_order"] == n
            for c in rep["cycles"]:
                assert c["log_multiplier_residual"] < 1e-7
            for s in self_paired_sides(p, case):
                assert abs(preset.first_sector[s - 1].trace) < 1e-9


def test_09_inner_boundary_involution():
    with _Criterion(9, "inner-boundary-involution", 2.0):
        rng = random.Random(17)
        for (n, p, case) in GRID:
            m = bs.bowen_series_map(n, p, case)
            sides = m.preset.sides
            for _ in range(200):
                side = sides[rng.randrange(len(sides))]
                z = side.point_at(rng.uniform(0.1, 0.9))
                w = bs.eval_pocket(m, z)
                assert abs(bs.eval_pocket(m, w) - z) < 1e-8


def test_10_factor_well_defined_and_equivariant():
    with _Criterion(10, "factor-well-defined-equivariant", 2.0):
        rng = random.Random(23)
        for (n, p) in [(3, 1), (3, 2), (4, 1), (5, 1)]:
            m = bs.bowen_series_map(n, p, factor=True)
            for _ in range(40):
                th = rng.uniform(1e-3, TAU - 1e-3)
                vals = [bs.eval_circle(m, th, lift=k) for k in range(n)]
                assert max(angle_dist(vals[0], v) for v in vals) < 1e-9
            raw = bs.bowen_series_map(n, p)
            rot = TAU / n
            for _ in range(40):
                th = rng.uniform(1e-3, TAU - 1e-3)
                try:
                    a = bs.eval_circle_raw(raw, norm_angle(th + rot))
                    b = norm_angle(bs.eval_circle_raw(raw, th) + rot)
                except Exception:
                    continue
                assert angle_dist(a, b) < 1e-9


def test_11_conjugacy_self_consistency():
    with _Criterion(11, "conjugacy-self-consistency", 30.0):
        rng = random.Random(29)
        for (n, p, factor) in [(1, 4, False), (3, 1, True)]:
            m = bs.bowen_series_map(n, p, factor=factor)
            h = bs.ConjugacyH(m)
            d = h.d
            sups = {6: 0.0, 12: 0.0}
            thetas = [rng.uniform(1e-4, TAU - 1e-4) for _ in range(1000)]
            for th in thetas:
                for depth in (6, 12):
                    hv, _ = h.value(th, depth)
                    hd, _ = h.value(norm_angle(d * th), depth)
                    res = angle_dist(hd, _eval_circle_safe(m, hv))
                    sups[depth] = max(sups[depth], res)
            assert sups[12] < sups[6], (m.name, sups)
            svals = [h.value(t, 12)[0] for t in sorted(thetas)]
            shift = svals.index(min(svals))
            rot = svals[shift:] + svals[:shift]
            assert all(rot[i] <= rot[i + 1] for i in range(len(rot) - 1)), m.name


def test_12_fiber_law():
    with _Criterion(12, "fiber-law", 1.0):
        rng = random.Random(31)
        for (n, p, case) in GRID:
            if case != CASE_I:
                continue
            m = co.ModelMaps(n, p)
            pt0 = m.point(0.3 - 0.2j, 1)
            cur = pt0
            for _ in range(n * p):
                cur = m.tau(cur)
            assert cur.canonical(n) == pt0.canonical(n)  # tau^{np} = id exactly
            for _ in range(100):
                w = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
                j = rng.randint(1, p)
                a = sorted(((q.value(n), q.j) for q in co.fiber(m, m.point(w, j))),
                           key=lambda t: (t[0].real, t[0].imag, t[1]))
                b = sorted(((q.value(n), q.j) for q in fiber_by_roots(m, m.point(w, j))),
                           key=lambda t: (t[0].real, t[0].imag, t[1]))
                assert len(a) == len(b)
                for (za, ja), (zb, jb) in zip(a, b):
                    assert abs(za - zb) < 1e-12 and ja == jb


def test_13_representation_recovery():
    with _Criterion(13, "representation-recovery", 5.0):
        for (n, p, case) in GRID:
            mt = co.model_tiling_set(n, p, case)
            rep = co.recover_representation(mt)
            sig = orbifold_signature(build_group(n, p, case))
            order2_words = sum(1 for g in rep["generators"] if g.order == 2)
            assert order2_words == sig.cone_orders.count(2), (n, p, case)
            assert rep["rotation_order"] == n
            if n >= 3:
                assert n in sig.cone_orders


def test_14_polynomial_registry():
    with _Criterion(14, "polynomial-registry", 1.0):
        reg = ms.polynomial_registry()
        rep = ms.verify_polynomial(reg["cubic_two_basins"])
        pts = {round(c["point"][1], 6) for c in rep["critical_points"]}
        s2 = round(1 / math.sqrt(2), 6)
        assert pts == {s2, -s2}
        rep = ms.verify_polynomial(reg["quartic_double"])
        mults = sorted(c["multiplicity"] for c in rep["critical_points"])
        assert mults == [1, 2]
        a = ms._alpha_degree7()
        assert abs(15 * a + 6 * a ** 7 - 14 * a ** 5 * a.conjugate() ** 2) < 1e-10
        ms.verify_polynomial(reg["deg7_symmetric"])


def test_15_tiling_disjointness():
    with _Criterion(15, "tiling-disjointness", 10.0):
        for (n, p, case) in [(3, 1, CASE_I), (1, 4, CASE_I), (1, 4, CASE_II)]:
            preset = build_group(n, p, case)
            rep = co.group_tiling(preset, 4)
            assert rep["overlaps"] == 0
