"""Exact enumeration and verification of arithmetic frieze patterns.

The package classifies closed arithmetic Y-frieze patterns (multiplicative
diamond rule, zero boundary rows) of widths 3 and 4 by pruned exhaustive
search, generates all Coxeter friezes of a width from polygon
triangulations, and analyzes the transfer map between the two families.
Public names resolve on first access (PEP 562): `import yfrieze` loads no
submodule, so each command loads only the modules it uses.  A resolved name
is stored in the package namespace, so later reads skip the lookup.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "closedform": "W3Entries W4Entries w3_entries w3_inequalities w4_entries w4_inequalities",
    "core": "ClosureFailure FriezeError InconsistentDomain PatternKind PeriodicPattern Violation "
            "check_rows cyclic_shift glide_shift glide_shift_of_rows intrinsic_period "
            "is_arithmetic propagate_y",
    "coxeter": "NonPositive NotClosed Triangulation all_triangulations enumerate_frieze "
               "frieze_from_quiddity quiddity_of",
    "search": "BoxTooLarge SearchBox SolutionSet enumerate_generic enumerate_w4 "
              "oracle_box_check w3_boxes w4_boxes y_plan y_solutions",
    "ymap": "CorrespondenceRecord FiberReport MapFailure apply_p fiber_analysis "
            "orbit_decomposition",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as `yfrieze.search` read before its import
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        module = importlib.import_module(f".{_HOME[name]}", __name__)
        globals()[name] = value = getattr(module, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
