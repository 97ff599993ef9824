from fractions import Fraction

import pytest

from lieranders import LieAlgebra, MetricTensor, catalog, identity_metric


@pytest.fixture(scope="session")
def metric4():
    return identity_metric(4)


@pytest.fixture(scope="session")
def algebras():
    return {cid: catalog(cid) for cid in range(5)}


def fr(*values):
    """Shorthand: exact vector from ints/strings."""
    return tuple(Fraction(v) for v in values)


SO3 = LieAlgebra.from_brackets(
    3, ("e1", "e2", "e3"), {(0, 1): fr(0, 0, 1), (1, 2): fr(1, 0, 0), (2, 0): fr(0, 1, 0)}
)
# R acting by the derivation diag(1, 2, 3, 1/2) on heis3 + R
SOLV5 = LieAlgebra.from_brackets(
    5,
    ("e0", "e1", "e2", "e3", "e4"),
    {
        (0, 1): fr(0, 1, 0, 0, 0),
        (0, 2): fr(0, 0, 2, 0, 0),
        (0, 3): fr(0, 0, 0, 3, 0),
        (0, 4): fr(0, 0, 0, 0, "1/2"),
        (1, 2): fr(0, 0, 0, 1, 0),
    },
)


def dense_metric(n):
    """Every entry nonzero; diagonally dominant, so positive definite."""
    return MetricTensor(
        gram=tuple(
            tuple(Fraction(i + 2) if i == j else Fraction(1, i + j + 2) for j in range(n))
            for i in range(n)
        )
    )
