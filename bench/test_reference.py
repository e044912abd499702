"""The benchmark's references and checks accept right answers and reject
wrong ones.  Stdlib only, no weldlab:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import cmath
import math
import unittest

import reference as ref
import workloads as wk

TAU = 2.0 * math.pi


class FreeProductBalls(unittest.TestCase):
    def test_hand_computed_series(self):
        # (1,3,I): Z * Z/2, F = (1 + x)/(1 - 2x) = 1 + 3x + 6x^2 + 12x^3 + 24x^4
        self.assertEqual(ref.ball_sizes(1, 3, "I", 4), [1, 4, 10, 22, 46])
        # (3,1,I): Z/2 * Z/3, words alternate g with m or m^-1: spheres 1, 3, 4, 6, 8
        self.assertEqual(ref.ball_sizes(3, 1, "I", 4), [1, 4, 8, 14, 22])
        # (1,4,I): Z * Z, the free group of rank 2: 1 + 4 + 12 + 36
        self.assertEqual(ref.ball_sizes(1, 4, "I", 3), [1, 5, 17, 53])

    def test_case_two_pairs_sides_differently(self):
        # Case II on p = 4: sides 1 and 3 self-paired, 2 <-> 4: Z/2 * Z/2 * Z
        self.assertEqual(sorted(ref.free_factors(1, 4, "II")), [0, 2, 2])
        self.assertEqual(sorted(ref.free_factors(1, 4, "I")), [0, 0])

    def test_check_rejects_off_by_one(self):
        ref.check_ball(1, 3, "I", 4, 46)
        for wrong in (45, 47):
            with self.assertRaises(ref.Mismatch):
                ref.check_ball(1, 3, "I", 4, wrong)

    def test_distinct_words(self):
        ref.check_distinct([(), ("g1",), ("g1", "m")])
        with self.assertRaises(ref.Mismatch):
            ref.check_distinct([(), ("g1",), ("g1",)])

    def test_domain(self):
        for n, p in ((1, 3), (1, 6), (3, 1), (5, 2)):
            for z in ref.domain_points(n):
                self.assertTrue(ref.domain_contains(n, p, z))
        self.assertTrue(ref.domain_contains(1, 3, 0j))
        beyond_side_0 = 0.5 * cmath.exp(1j * math.pi / 3)
        self.assertFalse(ref.domain_contains(1, 3, beyond_side_0))
        self.assertTrue(ref.domain_contains(1, 3, 0.9))       # in the cusp at vertex 0
        self.assertFalse(ref.domain_contains(3, 1, -0.1))     # outside the sector
        self.assertFalse(ref.domain_contains(3, 1, 0j))       # on the sector's edge

    def test_disjoint_tiles(self):
        # Gamma_{3,1}: the rotation by 2 pi/3 moves the sector off itself
        def rot(t):
            h = cmath.exp(0.5j * t)
            return (h, 0j, 0j, 1 / h)
        ident, m = rot(0.0), rot(TAU / 3)
        ref.check_tiles_disjoint(3, 1, [ident, m, rot(2 * TAU / 3)])
        with self.assertRaises(ref.Mismatch):          # a repeated tile
            ref.check_tiles_disjoint(3, 1, [ident, m, m])
        with self.assertRaises(ref.Mismatch):          # an overlapping tile
            ref.check_tiles_disjoint(3, 1, [ident, rot(0.1)])


class Surfaces(unittest.TestCase):
    def test_gallery_table(self):
        ref.check_gallery("5.4", [1])
        ref.check_gallery("5.1", [0, 0, 0, 0])
        with self.assertRaises(ref.Mismatch):
            ref.check_gallery("5.4", [2])          # genus + 1
        with self.assertRaises(ref.Mismatch):
            ref.check_gallery("5.1", [0, 0, 0])    # a component lost

    def test_newton_law(self):
        self.assertEqual([ref.newton_genus(n) for n in range(3, 11)],
                         [1, 1, 2, 2, 3, 3, 4, 4])
        ref.check_newton(500, [249])
        with self.assertRaises(ref.Mismatch):
            ref.check_newton(500, [250])
        with self.assertRaises(ref.Mismatch):
            ref.check_newton(6, [2, 0])

    def test_riemann_hurwitz(self):
        ref.check_riemann_hurwitz([(-2, 2, True, 6), (2, 0, False, 0)])
        with self.assertRaises(ref.Mismatch):
            ref.check_riemann_hurwitz([(-2, 2, True, 5)])   # wrong #Fix
        with self.assertRaises(ref.Mismatch):
            ref.check_riemann_hurwitz([(0, 1, False, 0)])   # swapped torus
        with self.assertRaises(ref.Mismatch):
            ref.check_riemann_hurwitz([(0, 2, True, 4)])    # genus + 1

    def test_zipped_spheres(self):
        ref.check_zipped([2, 2])
        with self.assertRaises(ref.Mismatch):
            ref.check_zipped([2, 0])


class CircleMaps(unittest.TestCase):
    def test_degree_cuts_markov(self):
        ref.check_degree(3, 2, 5)
        cuts = [0.5 + k for k in range(5)]
        ref.check_cuts(3, 2, cuts, 0.5, [0.5, 0.5 + 1e-12, 0.5 + TAU - 1e-12])
        ref.check_markov(1, 3, [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
        with self.assertRaises(ref.Mismatch):
            ref.check_degree(3, 2, 6)
        with self.assertRaises(ref.Mismatch):          # a cut lost
            ref.check_cuts(3, 2, cuts[:4], 0.5, [0.5])
        with self.assertRaises(ref.Mismatch):          # a cut counted twice
            ref.check_cuts(3, 2, cuts[:4] + [0.5], 0.5, [0.5])
        with self.assertRaises(ref.Mismatch):          # not a preimage
            ref.check_cuts(3, 2, cuts, 0.5, [0.5, 0.5 + 1e-6])
        with self.assertRaises(ref.Mismatch):
            ref.check_markov(1, 3, [(0, 1, 1), (1, 0, 1), (1, 1, 1)])

    def test_circular_order_wraps_at_the_marked_angle(self):
        base = 5.0
        ref.check_circular_order(base, [5.5, 6.0, 0.5, 4.0])
        with self.assertRaises(ref.Mismatch):
            ref.check_circular_order(base, [5.5, 0.5, 6.0, 4.0])

    def test_nested_arcs(self):
        shallow, deep = (1.0, 1e-3), (1.0 + 5e-4, 1e-6)
        ref.check_nested(shallow, deep)
        with self.assertRaises(ref.Mismatch):          # shifted h value
            ref.check_nested(shallow, (1.0 + 2e-3, 1e-6))
        with self.assertRaises(ref.Mismatch):          # collapsed arc (F2)
            ref.check_nested(shallow, (1.0, 0.0))
        # nesting is measured across the 0 = 2 pi seam
        ref.check_nested((TAU - 1e-4, 1e-3), (1e-4, 1e-6))

    def test_tile_counts(self):
        ref.check_tile_counts(1, 3, False, 3, [1, 3, 6, 12])
        ref.check_tile_counts(4, 1, True, 2, [1, 1, 3])
        with self.assertRaises(ref.Mismatch):          # fault F1 as seen today
            ref.check_tile_counts(4, 1, True, 2, [1, 2, 4])
        with self.assertRaises(ref.Mismatch):
            ref.check_tile_counts(1, 3, False, 3, [1, 3, 6, 13])

    def test_safe_depths(self):
        self.assertEqual(wk.safe_depth(2, 12, 12), 12)
        self.assertEqual(wk.safe_depth(2, 30, 20), 20)
        self.assertEqual(wk.safe_depth(29, 30, 20), 4)
        self.assertEqual(wk.safe_depth(2 ** 21, 30, 20), 1)


class CommandLine(unittest.TestCase):
    def test_json_sorted_keys(self):
        doc = ref.check_cli_json('{"a": 1, "schema_version": 1, "z": {"b": 2, "c": 3}}')
        self.assertEqual(doc["a"], 1)
        with self.assertRaises(ref.Mismatch):
            ref.check_cli_json('{"schema_version": 1, "a": 1}')
        with self.assertRaises(ref.Mismatch):
            ref.check_cli_json('{"a": 1}')
        with self.assertRaises(ref.Mismatch):
            ref.check_cli_json("not json")

    def test_svg(self):
        ref.check_svg(b'<svg xmlns="http://www.w3.org/2000/svg"><path d="M0 0"/></svg>')
        with self.assertRaises(ref.Mismatch):
            ref.check_svg(b"<svg><path></svg>")
        with self.assertRaises(ref.Mismatch):
            ref.check_svg(b"<html/>")

    def test_errors(self):
        ref.check_cli_error(2, "weldlab: usage error: --rank must be <= 8\n")
        with self.assertRaises(ref.Mismatch):          # fault F3 as seen today
            ref.check_cli_error(1, "Traceback (most recent call last):\n"
                                   "ValueError: math domain error\n")
        with self.assertRaises(ref.Mismatch):
            ref.check_cli_error(0, "weldlab: usage error: x\n")

    def test_signature(self):
        doc = {"signature": {"genus": 0, "punctures": 1, "cone_orders": [2, 3]}}
        ref.check_signature(doc, 0, 1, (2, 3))
        with self.assertRaises(ref.Mismatch):
            ref.check_signature(doc, 0, 2, (2, 3))


if __name__ == "__main__":
    unittest.main()
