"""Exact-arithmetic verification of corings, entwining structures,
cowreaths, wreaths, twisted tensor products and skew polynomial rings,
over finite-dimensional structure-constant data.

The package resolves its exports lazily (PEP 562): `from coringlab import
check_coring` imports `coringlab.coring` and what it needs, nothing else.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS_BY_MODULE = {
    "exactla": ("GF", "QQ", "Matrix"),
    "echelon": ("Echelon", "kernel_basis", "rank", "rref", "solve"),
    "algebra": ("AlgebraMorphism", "FinAlgebra", "check_algebra",
                "check_algebra_morphism", "field_algebra",
                "group_algebra_cyclic", "matrix_algebra",
                "truncated_poly_algebra"),
    "bimodule": ("Bimodule", "LinearMap", "TensorQuotient", "check_bimodule",
                 "regular_bimodule", "space", "tensor_maps", "tensor_over",
                 "unit_iso"),
    "coring": ("Bicomodule", "Comodule", "Coring", "check_bicomodule",
               "check_comodule", "check_coring", "check_coring_morphism",
               "grouplike_coalgebra", "is_colinear", "trivial_coring"),
    "rcat": ("LObject", "RMorphism", "RObject", "canonical_c_object",
             "check_l_object", "check_r_morphism", "check_r_object",
             "r_tensor_morphisms", "r_tensor_objects"),
    "entwine": ("EntwiningStructure", "check_entwining",
                "doi_koppinen_entwining", "entwined_coring", "lift_r_object"),
    "cowreath": ("Cowreath", "check_cowreath", "cowreath_product",
                 "entwining_lift_cowreath", "flip_cowreath"),
    "wreath": ("RingExtension", "RTObject", "Wreath", "check_rt_object",
               "check_wreath", "twisted_tensor_product", "wreath_product"),
    "ore": ("OreTwistTable", "SkewPoly", "SkewPolyData", "check_ore_wreath",
            "skew_mul"),
    "reports": ("InputError", "PreconditionFailure", "Report",
                "WellDefinednessError", "Witness"),
}

# exported name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in _EXPORTS_BY_MODULE.items()
              for name in names}
_SUBMODULES = (*_EXPORTS_BY_MODULE, "corpus", "session", "session_write", "cli")

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
