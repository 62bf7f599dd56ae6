"""Witness, Report, AlgebraMorphism and SkewPolyData are plain classes that
compare, print and refuse hashing field by field, as the dataclasses they
replace did."""

import pytest

from coringlab.algebra import AlgebraMorphism, field_algebra, truncated_poly_algebra
from coringlab.exactla import QQ, Matrix
from coringlab.ore import SkewPolyData
from coringlab.reports import InputError, Report, Witness


def failing_report():
    rep = Report("coring broken")
    rep.add(Witness("counit-left", ("g",), "0", "g"))
    rep.add(Witness("coassoc", ("1", "g"), "1(x)g", "0"))
    return rep


def morphism(name="f"):
    b = truncated_poly_algebra(QQ, 2, name="k[y]/(y^2)")
    return AlgebraMorphism(b, b, Matrix.identity(QQ, 2), name=name)


def test_repr_of_passing_report():
    assert repr(Report("coring C2")) == (
        "Report(check='coring C2', status='pass', witnesses=[])")


def test_repr_of_failing_report():
    assert repr(failing_report()) == (
        "Report(check='coring broken', status='fail', witnesses=["
        "Witness(equation='counit-left', basis=('g',), lhs='0', rhs='g'), "
        "Witness(equation='coassoc', basis=('1', 'g'), lhs='1(x)g', rhs='0')])")


def test_repr_of_algebra_morphism():
    assert repr(morphism()) == (
        "AlgebraMorphism(source=FinAlgebra(k[y]/(y^2), dim=2, QQ), "
        "target=FinAlgebra(k[y]/(y^2), dim=2, QQ), "
        "matrix=Matrix(QQ, 2x2, nnz=2), name='f')")


def test_repr_of_skew_poly_data():
    f = morphism("id")
    d = SkewPolyData(f.source, f, Matrix.zeros(QQ, 2, 2), name="plain")
    assert repr(d) == (
        "SkewPolyData(coeff_algebra=FinAlgebra(k[y]/(y^2), dim=2, QQ), "
        "sigma=AlgebraMorphism(source=FinAlgebra(k[y]/(y^2), dim=2, QQ), "
        "target=FinAlgebra(k[y]/(y^2), dim=2, QQ), "
        "matrix=Matrix(QQ, 2x2, nnz=2), name='id'), "
        "delta=Matrix(QQ, 2x2, nnz=0), name='plain')")


def test_equality_compares_fields():
    assert failing_report() == failing_report()
    assert Report("x") == Report("x", "pass", [])
    assert Report("x") != Report("y")
    assert Report("x") != Report("x", "fail")
    assert Witness("e", ("a",), "0", "1") == Witness("e", ("a",), "0", "1")
    assert Witness("e", ("a",), "0", "1") != Witness("e", ("b",), "0", "1")
    f = morphism()
    assert f == AlgebraMorphism(f.source, f.target, f.matrix, name="f")
    assert f != AlgebraMorphism(f.source, f.target, f.matrix, name="g")


def test_equality_needs_the_same_class():
    assert Report("x") != ("x", "pass", [])
    assert Report("x").__eq__(("x", "pass", [])) is NotImplemented


def test_unhashable():
    for obj in (Report("x"), Witness("e", (), "0", "1"), morphism()):
        with pytest.raises(TypeError):
            hash(obj)


def test_fresh_witness_list_per_report():
    a, b = Report("x"), Report("x")
    assert a.witnesses is not b.witnesses
    a.add(Witness("e", (), "0", "1"))
    assert b.witnesses == [] and b.ok


def test_keyword_construction_and_defaults():
    rep = Report(check="x", witnesses=[Witness(equation="e", basis=(), lhs="0", rhs="1")])
    assert rep.status == "pass"
    f = morphism()
    assert AlgebraMorphism(f.source, f.source, Matrix.identity(QQ, 2)).name == "f"
    assert SkewPolyData(f.source, f, Matrix.zeros(QQ, 2, 2)).name == "ore"


def test_shape_checks_raise_input_error():
    b = truncated_poly_algebra(QQ, 2)
    k = field_algebra(QQ)
    with pytest.raises(InputError, match="must be 2x2"):
        AlgebraMorphism(b, b, Matrix.identity(QQ, 3))
    with pytest.raises(InputError, match="must be 1x2"):
        AlgebraMorphism(b, k, Matrix.identity(QQ, 2))
    f = AlgebraMorphism(b, b, Matrix.identity(QQ, 2))
    with pytest.raises(InputError, match="endomorphism"):
        SkewPolyData(k, f, Matrix.zeros(QQ, 1, 1))
    with pytest.raises(InputError, match="square matrix"):
        SkewPolyData(b, f, Matrix.zeros(QQ, 2, 3))
