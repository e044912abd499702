"""Every count, angle or point parameter of the public surface, swept in one
table: a bad value raises a WeldlabError and nothing else, and a count above
its budget is refused before the code that would build past it runs."""

import math

import pytest

import weldlab
from weldlab import bowen_series, correspondence, fuchsian, mating_schema
from weldlab.errors import WeldlabError

BUDGET = fuchsian.TILE_BUDGET

#: each must be refused for a count; an angle or a point may take the finite ones
VALUES = {"non-integer": 2.5, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
          "negative": -3}
NON_FINITE = ("nan", "inf", "-inf")


def _fiber(n=3, p=2, w=0.5, j=1):
    m = weldlab.ModelMaps(n, p)
    return weldlab.fiber(m, m.point(w, j))


_MAP = weldlab.bowen_series_map(3, 2)
_GROUP = weldlab.build_group(5, 6)
_CONJUGACY = weldlab.ConjugacyH(weldlab.bowen_series_map(3, 1, factor=True))

#: the code that builds past the budget of each (n, p) entry point
_GROUP_BUILDERS = ((fuchsian, "_sides"), (fuchsian, "sigma_side"),
                   (correspondence, "sigma_side"))
_FIBER_BUILDERS = ((correspondence.ModelMaps, "tau"),)

#: (public name, parameter, kind, call of one value, a value above the budget,
#: the builders patched to raise while that value is tried); a class is swept
#: through the method that takes the count or angle
ROWS = [
    ("build_group", "n", "count", lambda v: weldlab.build_group(v, 4), BUDGET + 1,
     _GROUP_BUILDERS),
    ("build_group", "p", "count", lambda v: weldlab.build_group(1, v), BUDGET + 1,
     _GROUP_BUILDERS),
    ("bowen_series_map", "n", "count", lambda v: weldlab.bowen_series_map(v, 4), BUDGET + 1,
     _GROUP_BUILDERS),
    ("bowen_series_map", "p", "count", lambda v: weldlab.bowen_series_map(1, v), BUDGET + 1,
     _GROUP_BUILDERS),
    ("model_tiling_set", "n", "count", lambda v: weldlab.model_tiling_set(v, 4), BUDGET + 1,
     _GROUP_BUILDERS),
    ("model_tiling_set", "p", "count", lambda v: weldlab.model_tiling_set(1, v), BUDGET + 1,
     _GROUP_BUILDERS),
    ("group_slot", "n", "count", lambda v: weldlab.group_slot(v, 4), BUDGET + 1, ()),
    ("group_slot", "p", "count", lambda v: weldlab.group_slot(1, v), BUDGET + 1, ()),
    ("newton_schema", "n", "count", weldlab.newton_schema, BUDGET + 1,
     ((mating_schema, "group_slot"),)),
    ("fiber", "n", "count", lambda v: _fiber(n=v), BUDGET + 1, _FIBER_BUILDERS),
    ("fiber", "p", "count", lambda v: _fiber(p=v), BUDGET + 1, _FIBER_BUILDERS),
    ("fiber", "sheet", "count", lambda v: _fiber(j=v), 3, _FIBER_BUILDERS),
    ("fiber", "w", "point", lambda v: _fiber(w=v), None, ()),
    # rank 8 on (3, 2) is 585,937 tiles, and length 7 on (5, 6) a ball of
    # 1,074,071 elements
    ("tiles", "rank", "count", lambda v: weldlab.tiles(_MAP, v), 8,
     ((bowen_series, "_branches"),)),
    ("group_tiling", "max_word_length", "count", lambda v: weldlab.group_tiling(_GROUP, v), 7,
     ((weldlab.MobiusMap, "compose"),)),
    ("ConjugacyH", "depth", "count", lambda v: _CONJUGACY.value(1.0, v), weldlab.MAX_DEPTH + 1,
     ((bowen_series, "power_map_itinerary"),)),
    ("ConjugacyH", "theta", "angle", lambda v: _CONJUGACY.value(v, 12), None, ()),
    ("degree_plan", "multiplicities", "count", lambda v: weldlab.degree_plan([1, v]), None, ()),
    ("blaschke_slot", "degree", "count", weldlab.blaschke_slot, None, ()),
    ("MobiusMap", "rotation", "angle", weldlab.MobiusMap.rotation, None, ()),
    ("MobiusMap", "from_entries", "point",
     lambda v: weldlab.MobiusMap.from_entries(v, 0.5, 0.5, 1.0), None, ()),
    ("MobiusMap", "boundary_angle", "angle", _GROUP.first_sector[0].boundary_angle, None, ()),
    ("geodesic_between", "theta1", "angle", lambda v: weldlab.geodesic_between(v, 1.0), None, ()),
    ("geodesic_between", "theta2", "angle", lambda v: weldlab.geodesic_between(1.0, v), None, ()),
    ("blaschke", "zeros", "point", lambda v: weldlab.blaschke([0.1, v]), None, ()),
    ("blaschke", "rotation", "point", lambda v: weldlab.blaschke([0.1, 0.2], v), None, ()),
]

#: public names with no count, angle or point parameter: constants, records
#: that hold what they are given and are checked where they are used (a
#: ModelMaps by fiber), and functions of built objects, paths or names
WITHOUT_COUNTS = {
    "CASE_I", "CASE_II", "ContactData", "Geodesic", "ModelMaps",
    "assemble", "circle_degree", "load_schema", "orbifold_signature", "paper_example",
    "poincare_check", "polynomial_registry", "recover_representation",
    "side_pairing_check", "surface_report", "verify_polynomial", "weld",
    "welding_graph", "zipped_report",
}


def _row_id(row):
    return f"{row[0]}-{row[1]}"


def test_every_public_name_is_swept_or_has_no_counts():
    swept = {row[0] for row in ROWS}
    assert not swept & WITHOUT_COUNTS
    assert swept | WITHOUT_COUNTS == set(weldlab.__all__)


@pytest.mark.parametrize("label", VALUES)
@pytest.mark.parametrize("row", ROWS, ids=_row_id)
def test_bad_values_raise_weldlab_errors(row, label):
    _, _, kind, call, _, _ = row
    if kind == "count" or label in NON_FINITE:
        with pytest.raises(WeldlabError):
            call(VALUES[label])
    else:
        # a finite angle or point is legal; it may still be refused by name
        try:
            call(VALUES[label])
        except WeldlabError:
            pass


@pytest.mark.parametrize("row", [row for row in ROWS if row[4] is not None], ids=_row_id)
def test_values_above_the_budget_are_refused_before_any_work(monkeypatch, row):
    _, _, _, call, over, builders = row

    def built(*args, **kwargs):
        raise AssertionError("built past the budget")

    for owner, name in builders:
        monkeypatch.setattr(owner, name, built)
    with pytest.raises(WeldlabError):
        call(over)
