"""Oracle for charge._rational: the Fraction it builds from two ints must
be indistinguishable from Fraction(num, den) of the same ints.

    PYTHONPATH=src python tests/rational_oracle.py

runs check(num, den) over every pair of VALUES (huge values, negative
denominators, zero numerators, denominators of +-1 and 0) with no test
framework, so it runs on any supported Python, with or without pytest
and hypothesis.  tests/test_charge.py drives the same check through
hypothesis.
"""

import copy
import operator
import pickle
import sys
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


def main() -> int:
    for num in VALUES:
        for den in VALUES:
            check(num, den)
    print(f"{len(VALUES) ** 2} pairs agree with Fraction on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
