"""The failure types of the package.

A check either holds or fails at a witness, so the package reports failures
with nine classes: the field layer's five, AlgebraError (input outside a
construction's domain), RelationFails (a checked identity failed, with its
witness), NotInvertible and SpecError.  The handlers that skip candidates in
a search catch only the failures of the candidate, so a missing form,
unit or involution still reaches the caller.
"""

import importlib
import inspect
import pkgutil

import pytest

import trialkit
from trialkit import autos
from trialkit.algebra import Algebra, AlgebraError
from trialkit.constructors import make_hurwitz, named_algebra
from trialkit.fields import FieldDescriptor, FieldError, RATIONALS
from trialkit.triality import RelationFails

KEPT = {
    "trialkit.fields.FieldError",
    "trialkit.fields.DescriptorMismatch",
    "trialkit.fields.DivisionByZero",
    "trialkit.fields.SqrtUnavailable",
    "trialkit.fields.FieldNotEmbeddable",
    "trialkit.algebra.AlgebraError",
    "trialkit.triality.RelationFails",
    "trialkit.linalg.NotInvertible",
    "trialkit.specfile.SpecError",
}


def test_the_package_defines_exactly_nine_exception_classes():
    found = set()
    for info in pkgutil.iter_modules(trialkit.__path__):
        module = importlib.import_module(f"trialkit.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__.startswith("trialkit")):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    assert found == KEPT


def test_the_nine_classes_keep_their_bases():
    from trialkit.fields import (DescriptorMismatch, DivisionByZero, FieldNotEmbeddable,
                                 SqrtUnavailable)
    from trialkit.linalg import NotInvertible
    from trialkit.specfile import SpecError

    assert all(issubclass(c, FieldError) for c in (
        DescriptorMismatch, DivisionByZero, SqrtUnavailable, FieldNotEmbeddable))
    assert issubclass(RelationFails, AlgebraError)
    assert issubclass(NotInvertible, ValueError) and issubclass(SpecError, ValueError)
    exc = RelationFails("identity fails", witness=(1, 2))
    assert (str(exc), exc.witness) == ("identity fails", (1, 2))
    assert RelationFails("identity fails").witness is None


def test_chain_search_lets_a_missing_involution_through():
    zorn = named_algebra("zorn")
    z = Algebra(zorn.field, zorn.structure, form=zorn.form, unit=zorn.unit, name=zorn.name)
    with pytest.raises(AlgebraError, match="^algebra has no involution$"):
        autos.find_r3_data(z)


def test_sphere_search_lets_a_missing_form_through():
    quaternions = make_hurwitz(FieldDescriptor(RATIONALS), (-1, -1))
    h = Algebra(quaternions.field, quaternions.structure,
                involution=quaternions.involution, unit=quaternions.unit)
    with pytest.raises(AlgebraError, match="^algebra has no bilinear form$"):
        autos._sphere_patterns(h)
