"""Exact de Rham data of affine toric charts over QQ and GF(p).

The package is organized bottom up: :mod:`toricdiff.linalg` holds exact
integer and field linear algebra, :mod:`toricdiff.cones` the polyhedral
geometry, :mod:`toricdiff.forms` the graded subspace model of the forms,
:mod:`toricdiff.complexes` the per-degree complexes with their cohomology
and the whole-box oracle, and :mod:`toricdiff.cartier` the characteristic-p
verification suite.  :mod:`toricdiff.cli` exposes all of it on the command
line and alone decides what the commands print.

Importing the package loads none of these modules.  Each export in
``__all__``, and each of the modules from ``linalg`` to ``cartier``,
resolves on first use and imports only the module that defines it, so ``from toricdiff import Cone``
does not load the Cartier suite, and a CLI command that only builds a cone
does not pay for the rest.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cones": ("Cone", "Facet", "NotInConeError", "NotPointedError"),
    "linalg": (
        "GF",
        "QQ",
        "SaturatedLattice",
        "Subspace",
        "field_of_characteristic",
        "hnf",
        "intersect",
        "is_prime",
        "kernel",
        "left_kernel",
        "rank",
        "saturate",
        "subspace",
        "sum_spaces",
    ),
    "forms": (
        "FormExpression",
        "FormTerm",
        "degree_subspace",
        "facet_subspace",
        "to_form",
        "wedge_subsets",
    ),
    "complexes": (
        "NoVertexError",
        "CohomologyTable",
        "DegreeComplex",
        "PoincareReport",
        "cohomology",
        "cohomology_table",
        "degree_complex",
        "oracle_full_complex",
        "poincare_check",
    ),
    "cartier": (
        "CartierReport",
        "CheckResult",
        "LevelSummary",
        "PhiMap",
        "phi",
        "verify_isomorphism",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
