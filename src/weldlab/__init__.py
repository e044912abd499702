"""weldlab: Fuchsian side-pairing groups, Bowen-Series circle maps,
combinatorial conformal matings, blender-surface welding, and desk-scale
correspondence models.

The layer modules load on first use (PEP 562): ``import weldlab`` is cheap,
and ``weldlab.build_group`` or ``weldlab.render`` imports the module that
defines it when it is first looked up.
"""

import importlib

__version__ = "0.1.0"

#: version of every JSON document weldlab writes
SCHEMA_VERSION = 1

#: deepest itinerary ConjugacyH.value and `bs conjugacy` accept.  The nominal
#: arc 2 pi / d^depth falls below the radius floor by depth 48 for every
#: degree d >= 2, and theta / 2 pi carries 53 significant bits, at most 53
#: significant base-d digits, so deeper symbols repeat rounding rather than
#: theta.
MAX_DEPTH = 64

#: layer module -> the public names it contributes to the package namespace
_EXPORTS = {
    "bowen_series": ("ConjugacyH", "bowen_series_map", "circle_degree", "tiles"),
    "correspondence": ("ModelMaps", "blaschke", "fiber", "group_tiling",
                       "model_tiling_set", "recover_representation"),
    "fuchsian": ("CASE_I", "CASE_II", "build_group", "degree_plan",
                 "orbifold_signature", "poincare_check", "side_pairing_check"),
    "hyperbolic": ("Geodesic", "MobiusMap", "geodesic_between"),
    "mating_schema": ("ContactData", "assemble", "blaschke_slot", "group_slot",
                      "load_schema", "newton_schema", "paper_example",
                      "polynomial_registry", "verify_polynomial"),
    "welding": ("surface_report", "weld", "welding_graph", "zipped_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "render"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
