"""Oracle for charge._rational: the Fraction it builds from two ints must
be indistinguishable from Fraction(num, den) of the same ints.  And for
the kernel that reads a Fraction's _numerator and _denominator slots
(charge.path_intersection): those slots must hold as_integer_ratio() of
every Fraction, however it was made.

    PYTHONPATH=src python tests/rational_oracle.py

runs check(num, den) over every pair of VALUES (huge values, negative
denominators, zero numerators, denominators of +-1 and 0), and
check_slots over slot_cases(), with no test framework, so it runs on any
supported Python, with or without pytest and hypothesis.
tests/test_charge.py drives the same checks through hypothesis.
"""

import copy
import operator
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

from k3walls.charge import _rational

VALUES = (0, 1, -1, 2, -2, 3, -6, 12, 35, -49, 2**61 - 1, -(3**40), 10**30, -(10**30) * 7, 6 * 10**45 + 6)

_BINARY = (operator.add, operator.sub, operator.mul, operator.floordiv, operator.mod, operator.truediv,
           operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def _outcome(op, a, b):
    """(type, value) of op(a, b), or the type and message of its error."""
    try:
        value = op(a, b)
    except ZeroDivisionError as error:
        return ZeroDivisionError, str(error)
    return type(value), value


def check(num: int, den: int) -> None:
    if den == 0:
        try:
            Fraction(num, 0)
        except ZeroDivisionError as error:
            expected = str(error)
        try:
            _rational(num, 0)
        except ZeroDivisionError as error:
            assert str(error) == expected, (num, str(error), expected)
            return
        raise AssertionError(f"_rational({num}, 0) did not raise")
    q, f = _rational(num, den), Fraction(num, den)
    assert type(q) is Fraction, type(q)
    assert q.as_integer_ratio() == f.as_integer_ratio(), (num, den, q.as_integer_ratio())
    assert type(q.numerator) is int and type(q.denominator) is int
    assert (hash(q), repr(q), str(q)) == (hash(f), repr(f), str(f)), (num, den)
    for other in (f, Fraction(-7, 3), 2, 0, -1):
        for op in _BINARY:
            assert _outcome(op, q, other) == _outcome(op, f, other), (num, den, op, other)
            assert _outcome(op, other, q) == _outcome(op, other, f), (num, den, op, other)
    assert (-q, abs(q), q**2, int(q), round(q)) == (-f, abs(f), f**2, int(f), round(f))
    for twin in (pickle.loads(pickle.dumps(q)), copy.deepcopy(q), copy.copy(q)):
        assert type(twin) is Fraction and twin.as_integer_ratio() == f.as_integer_ratio()
        assert hash(twin) == hash(f)


def check_slots(q: Fraction) -> None:
    """q's _numerator and _denominator slots hold q.as_integer_ratio(), as
    two ints."""
    assert type(q) is Fraction, type(q)
    assert (q._numerator, q._denominator) == q.as_integer_ratio(), (q, q._numerator, q._denominator)
    assert type(q._numerator) is int and type(q._denominator) is int, q


def slot_cases():
    """Fractions made from ints, strs, floats, Decimals, Fractions, pairs
    of ints and _rational, and the results of Fraction arithmetic."""
    for num in VALUES:
        yield Fraction(num)
        yield from (Fraction(num, den) for den in VALUES if den)
        yield from (_rational(num, den) for den in VALUES if den)
    for text in ("0", "-3", " -6/8 ", "1.25", "-0.001", "3e10", "-2.5E-7", "21/35"):
        yield Fraction(text)
    for x in (0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, 2.0**60, -1 / 3):
        yield Fraction(x)
    for text in ("1.10", "-3E+5", "0.000", "-0", "12345678901234567890.0987654321"):
        yield Fraction(Decimal(text))
    yield Fraction(Fraction(-6, 8))
    yield Fraction(Fraction(3, 4), Fraction(-5, 6))
    a, b = Fraction(-7, 12), Fraction(10**30 + 1, 6)
    yield from (a + b, a - b, a * b, a / b, a**3, a**-2, -a, abs(a), a % b, b % a, sum([a, b, a]), 2 * a, a - 1)
    yield from (a.limit_denominator(5), Fraction(1, 3) + Fraction(1, 6), Fraction(2, 3) * Fraction(3, 2))


def main() -> int:
    for num in VALUES:
        for den in VALUES:
            check(num, den)
    cases = list(slot_cases())
    for q in cases:
        check_slots(q)
    version = sys.version.split()[0]
    print(f"{len(VALUES) ** 2} pairs agree with Fraction, and {len(cases)} Fractions keep their lowest terms "
          f"in their slots, on Python {version}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
