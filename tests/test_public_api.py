"""The names `coringlab` exports, resolved lazily from their submodules."""

import importlib
import os
import subprocess
import sys

import pytest

import coringlab

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

EXPORTS = {
    "exactla": ("GF", "QQ", "Matrix", "kernel_basis", "rank", "rref", "solve"),
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
PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_seventy_names():
    assert len({name for _, name in PAIRS}) == 70


@pytest.mark.parametrize("module,name", PAIRS)
def test_export_is_the_submodule_attribute(module, name):
    namespace = {}
    exec(f"from coringlab import {name}", namespace)
    sub = importlib.import_module(f"coringlab.{module}")
    assert namespace[name] is getattr(sub, name)
    assert getattr(coringlab, name) is getattr(sub, name)


def test_star_import():
    namespace = {}
    exec("from coringlab import *", namespace)
    assert {name for _, name in PAIRS} <= set(namespace)


def test_version():
    from coringlab import __version__
    assert __version__ == "0.1.0"


def test_dir_lists_every_export():
    listed = set(dir(coringlab))
    assert {name for _, name in PAIRS} | {"__version__"} <= listed
    assert set(EXPORTS) <= listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'check_nothing'"):
        coringlab.check_nothing
    with pytest.raises(ImportError):
        exec("from coringlab import check_nothing", {})


def test_submodule_resolves_after_bare_import():
    code = ("import sys, coringlab\n"
            "assert 'coringlab.bimodule' not in sys.modules\n"
            "assert coringlab.bimodule is sys.modules['coringlab.bimodule']\n"
            "assert coringlab.bimodule.tensor_over is coringlab.tensor_over\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


SOLVERS = ("Echelon", "kernel_basis", "rank", "rref", "solve")


@pytest.mark.parametrize("name", SOLVERS)
def test_solvers_resolve_from_the_package_and_exactla(name):
    """The solvers live in `coringlab.echelon`; the package and `exactla`
    hand out the same objects."""
    from coringlab import echelon, exactla
    package, old = {}, {}
    exec(f"from coringlab import {name}", package)
    exec(f"from coringlab.exactla import {name}", old)
    assert package[name] is old[name] is getattr(exactla, name) is getattr(echelon, name)
    assert name in coringlab.__all__


def test_exactla_unknown_name_raises_attribute_error():
    from coringlab import exactla
    with pytest.raises(AttributeError, match="no attribute 'Pivot'"):
        exactla.Pivot


def test_exactla_loads_the_solvers_on_first_use():
    code = ("import sys, coringlab.exactla as x\n"
            "assert 'coringlab.echelon' not in sys.modules\n"
            "assert x.Matrix.identity(x.QQ, 2).rows == 2\n"
            "assert 'coringlab.echelon' not in sys.modules\n"
            "assert x.rank(x.Matrix.identity(x.QQ, 2)) == 2\n"
            "assert 'coringlab.echelon' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
