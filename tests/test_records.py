"""The five record classes: immutable named tuples with their field names,
defaults, methods and reprs."""

from fractions import Fraction

import pytest

from degenstirling.algebra import LambdaPoly
from degenstirling.bell import DobinskiResult
from degenstirling.serieslab import CheckReport, Mismatch
from degenstirling.stirling import FAMILIES, BasisCoeffs, Family

FIELDS = [
    (BasisCoeffs, ("coefficients", "basis")),
    (Family, ("params", "least_n", "factors", "basis", "check")),
    (DobinskiResult, ("value", "terms_used", "tail_bound")),
    (Mismatch, ("n", "expected", "actual")),
    (CheckReport, ("identity", "order", "passed", "first_mismatch")),
]


@pytest.mark.parametrize("cls, fields", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS])
def test_fields_in_order_and_positional_equals_keyword(cls, fields):
    assert cls._fields == fields
    values = tuple(range(len(fields)))
    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    assert tuple(getattr(record, f) for f in fields) == values


@pytest.mark.parametrize("cls, fields", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS])
def test_records_are_immutable_and_carry_no_instance_dict(cls, fields):
    record = cls(*range(len(fields)))
    with pytest.raises(AttributeError):
        setattr(record, fields[0], -1)
    with pytest.raises(AttributeError):
        record.other = -1
    assert not hasattr(record, "__dict__")


def test_family_defaults_and_replace():
    family = Family(("r",), 1, lambda n, r: [(0, r, j) for j in range(n)])
    assert family.basis == "falling"
    assert family.check(3) is None and family.check() is None
    assert family.factors_for(2, 3) == [(0, 3, 0), (0, 3, 1)]
    rising = family._replace(basis="rising")
    assert (rising.basis, rising.params, rising.factors) == ("rising", ("r",), family.factors)
    assert family.basis == "falling"
    assert FAMILIES["lah-signed"].basis == "rising"


def test_check_report_is_true_exactly_when_passed():
    bad = CheckReport("demo", 4, False, Mismatch(2, 1, 0))
    good = bad._replace(passed=True, first_mismatch=None)
    assert not bad and good
    assert bad.identity == good.identity == "demo"


def test_reprs_are_pinned():
    assert repr(DobinskiResult(Fraction(1, 2), 3, Fraction(1, 8))) == (
        "DobinskiResult(value=Fraction(1, 2), terms_used=3, tail_bound=Fraction(1, 8))")
    assert repr(CheckReport("demo", 4, False, Mismatch(2, 1, 0))) == (
        "CheckReport(identity='demo', order=4, passed=False,"
        " first_mismatch=Mismatch(n=2, expected=1, actual=0))")
    assert repr(BasisCoeffs((LambdaPoly([]), LambdaPoly([1, -1])), "falling")) == (
        "BasisCoeffs(coefficients=(LambdaPoly([]), LambdaPoly([1, -1])), basis='falling')")
    assert repr(Family((), 0, None, "rising", None)) == (
        "Family(params=(), least_n=0, factors=None, basis='rising', check=None)")


def test_records_compare_as_tuples():
    # a named tuple equals a plain tuple of the same fields, and iterates
    result = DobinskiResult(Fraction(1, 2), 3, Fraction(1, 8))
    value, terms, tail = result
    assert (value, terms, tail) == result == (Fraction(1, 2), 3, Fraction(1, 8))
    assert hash(result) == hash((Fraction(1, 2), 3, Fraction(1, 8)))
