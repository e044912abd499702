"""The layers' records: tuples with named fields, built on errors.Record.
Their fields, defaults and repr are those the records had as
typing.NamedTuple classes, and so are the named-tuple methods, pickling,
copying and immutability."""

import copy
import pickle

import pytest

from weldlab import bowen_series, correspondence, fuchsian, hyperbolic, mating_schema, welding
from weldlab.errors import Record

#: each record, its fields and its defaults, as typing.NamedTuple made them
RECORDS = [
    (hyperbolic.Geodesic, ("theta1", "theta2", "is_diameter", "center", "radius"),
     {"center": 0j, "radius": 0.0}),
    (fuchsian.GroupPreset, ("n", "p", "case", "sides", "axis", "first_sector", "rotation",
                            "sigma"), {}),
    (fuchsian.OrbifoldSignature, ("genus", "punctures", "cone_orders"), {}),
    (fuchsian.DegreePlan, ("multiplicities", "degree", "top_multiplicity"), {}),
    (bowen_series.BowenSeriesMap, ("preset", "maps", "factor", "marked_fixed_angle"), {}),
    (bowen_series.MarkovPartition, ("breakpoints", "transition", "arc_images"), {}),
    (bowen_series.Tile, ("word", "vertices"), {}),
    (mating_schema.Slot, ("kind", "n", "p", "case", "degree", "unbounded"),
     {"n": 0, "p": 0, "case": "I", "degree": 0, "unbounded": False}),
    (mating_schema.ContactData, ("classes",), {}),
    (mating_schema.Arc, ("hole", "side", "piece", "start", "end"), {}),
    (mating_schema.BoundaryComplex, ("slots", "contact", "arcs", "s_action", "corners", "faces",
                                     "components"), {}),
    (mating_schema.PolynomialEntry, ("name", "coefficients", "critical_points",
                                     "fixed_points"), {}),
    (welding.WeldingGraph, ("num_faces", "edges"), {}),
    (welding.ComponentReport, ("index", "faces", "euler_characteristic", "genus",
                               "eta_invariant", "fix_eta"), {}),
    (welding.WeldedComplex, ("bc", "components", "graph"), {}),
    (welding.SurfaceReport, ("components", "welding_graph", "zipped"), {}),
    (correspondence.ModelPoint, ("w0", "e", "j"), {}),
    (correspondence.ModelMaps, ("n", "p"), {}),
    (correspondence.ModelTilingSet, ("n", "p", "case", "sigma", "k_exponents"), {}),
    (correspondence.RecoveredGenerator, ("j", "k", "word", "matrix", "order"), {}),
    (correspondence.BlaschkeProduct, ("zeros", "rotation", "fixed_point", "multiplier"), {}),
]

#: repr of the record whose fields hold 0, 1, 2, ..., as typing.NamedTuple wrote it
REPRS = {
    "Geodesic": "Geodesic(theta1=0, theta2=1, is_diameter=2, center=3, radius=4)",
    "GroupPreset": "GroupPreset(n=0, p=1, case=2, sides=3, axis=4, first_sector=5, "
                   "rotation=6, sigma=7)",
    "OrbifoldSignature": "OrbifoldSignature(genus=0, punctures=1, cone_orders=2)",
    "DegreePlan": "DegreePlan(multiplicities=0, degree=1, top_multiplicity=2)",
    "BowenSeriesMap": "BowenSeriesMap(preset=0, maps=1, factor=2, marked_fixed_angle=3)",
    "MarkovPartition": "MarkovPartition(breakpoints=0, transition=1, arc_images=2)",
    "Tile": "Tile(word=0, vertices=1)",
    "Slot": "Slot(kind=0, n=1, p=2, case=3, degree=4, unbounded=5)",
    "ContactData": "ContactData(classes=0)",
    "Arc": "Arc(hole=0, side=1, piece=2, start=3, end=4)",
    "BoundaryComplex": "BoundaryComplex(slots=0, contact=1, arcs=2, s_action=3, corners=4, "
                       "faces=5, components=6)",
    "PolynomialEntry": "PolynomialEntry(name=0, coefficients=1, critical_points=2, "
                       "fixed_points=3)",
    "WeldingGraph": "WeldingGraph(num_faces=0, edges=1)",
    "ComponentReport": "ComponentReport(index=0, faces=1, euler_characteristic=2, genus=3, "
                       "eta_invariant=4, fix_eta=5)",
    "WeldedComplex": "WeldedComplex(bc=0, components=1, graph=2)",
    "SurfaceReport": "SurfaceReport(components=0, welding_graph=1, zipped=2)",
    "ModelPoint": "ModelPoint(w0=0, e=1, j=2)",
    "ModelMaps": "ModelMaps(n=0, p=1)",
    "ModelTilingSet": "ModelTilingSet(n=0, p=1, case=2, sigma=3, k_exponents=4)",
    "RecoveredGenerator": "RecoveredGenerator(j=0, k=1, word=2, matrix=3, order=4)",
    "BlaschkeProduct": "BlaschkeProduct(zeros=0, rotation=1, fixed_point=2, multiplier=3)",
}


def _ids(param):
    return param.__name__ if isinstance(param, type) else None


def test_every_record_is_listed():
    layers = (hyperbolic, fuchsian, bowen_series, mating_schema, welding, correspondence)
    found = {obj for layer in layers for obj in vars(layer).values()
             if isinstance(obj, type) and issubclass(obj, tuple) and obj is not Record}
    assert found == {cls for cls, _, _ in RECORDS}
    assert len(RECORDS) == len(REPRS) == 21


@pytest.mark.parametrize("cls,fields,defaults", RECORDS, ids=_ids)
def test_record_fields_and_defaults(cls, fields, defaults):
    assert issubclass(cls, Record)
    assert cls._fields == cls.__match_args__ == fields
    assert cls._field_defaults == defaults
    rec = cls(*range(len(fields)))
    assert repr(rec) == REPRS[cls.__name__]
    assert [getattr(rec, name) for name in fields] == list(range(len(fields)))
    assert cls(**dict(zip(fields, range(len(fields))))) == rec
    if defaults:
        least = cls(*range(len(fields) - len(defaults)))
        assert least[len(least) - len(defaults):] == tuple(defaults.values())


@pytest.mark.parametrize("cls,fields,defaults", RECORDS, ids=_ids)
def test_record_behaves_as_a_named_tuple(cls, fields, defaults):
    values = tuple(f"v{i}" for i in range(len(fields)))
    rec = cls(*values)
    assert rec == values and isinstance(rec, tuple) and len(rec) == len(fields)
    assert type(rec._replace(**{fields[-1]: "new"})) is cls
    assert rec._replace(**{fields[-1]: "new"}) == values[:-1] + ("new",)
    assert rec._replace() == rec
    with pytest.raises(ValueError, match="unexpected field names"):
        rec._replace(no_such_field=1)
    assert rec._asdict() == dict(zip(fields, values))
    assert list(rec._asdict()) == list(fields)
    made = cls._make(list(values))
    assert type(made) is cls and made == rec
    with pytest.raises(TypeError):
        cls._make(values + ("extra",))
    for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(twin) is cls and twin == rec
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], "changed")
    with pytest.raises(AttributeError):
        rec.no_such_field = 1
    assert not hasattr(rec, "__dict__")
    assert hash(rec) == hash(values)


def test_real_records_round_trip():
    preset = fuchsian.build_group(3, 2)
    m = bowen_series.bowen_series_from_preset(preset, factor=True)
    report = welding.surface_report(welding.weld(mating_schema.assemble(
        *mating_schema.paper_example("5.4")[:2])))
    for rec in (preset, m, report, hyperbolic.geodesic_between(0.0, 1.0)):
        twin = pickle.loads(pickle.dumps(rec))
        assert type(twin) is type(rec) and twin == rec
        assert copy.deepcopy(rec) == rec
    assert repr(hyperbolic.geodesic_between(0.0, 3.0)) == (
        "Geodesic(theta1=0.0, theta2=3.0, is_diameter=False, "
        "center=(1+14.10141994717166j), radius=14.101419947171662)")
    assert repr(hyperbolic.geodesic_between(0.0, 3.141592653589793)) == (
        "Geodesic(theta1=0.0, theta2=3.141592653589793, is_diameter=True, "
        "center=0j, radius=0.0)")
    assert repr(fuchsian.orbifold_signature(preset)) == (
        "OrbifoldSignature(genus=0, punctures=2, cone_orders=(3,))")
