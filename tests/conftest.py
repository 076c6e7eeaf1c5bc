import itertools
from pathlib import Path

import pytest

from emergent import Perm, generate_group, load_theory, validate_global_theory

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# The bundled theories, read from their fixtures by the CLI's own loader.


def _fixture(name):
    return load_theory(FIXTURES / f"{name}.json")[0]


@pytest.fixture(scope="session")
def t1():
    return _fixture("s3")


@pytest.fixture(scope="session")
def t2():
    return _fixture("s3x3")


@pytest.fixture(scope="session")
def t3():
    return _fixture("s3_diagonal")


@pytest.fixture(scope="session")
def t4():
    return _fixture("s3x3x3")


@pytest.fixture(scope="session")
def t5():
    return _fixture("s4")


# Small theories that are not products of S3, each built from generators.


def _from_generators(degree, generators):
    return validate_global_theory(generate_group(degree, [Perm(g) for g in generators]))


@pytest.fixture(scope="session")
def d5():
    """The dihedral group of the pentagon on its five vertices."""
    return _from_generators(5, [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)])


@pytest.fixture(scope="session")
def f20():
    """The Frobenius group x -> a x + b (a != 0) on the five points mod 5."""
    return _from_generators(5, [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)])


@pytest.fixture(scope="session")
def a4():
    return _from_generators(4, [(1, 2, 0, 3), (0, 2, 3, 1)])


@pytest.fixture(scope="session")
def s5():
    return _from_generators(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


@pytest.fixture(scope="session")
def a5():
    """A5 on five points: two 3-cycles.  Its systems suite reports violations."""
    return _from_generators(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])


@pytest.fixture(scope="session")
def s6():
    return _from_generators(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])


def _left_regular(n, generators):
    """Sn acting on its own n! elements by left multiplication: degree, generators."""
    elements = sorted(itertools.permutations(range(n)))
    index = {x: i for i, x in enumerate(elements)}
    return len(elements), [
        [index[tuple(a[x[i]] for i in range(n))] for x in elements] for a in generators
    ]


@pytest.fixture(scope="session")
def s3_regular():
    """S3 acting on its own six elements by left multiplication."""
    return _from_generators(*_left_regular(3, [(1, 0, 2), (1, 2, 0)]))


# Larger groups, given by generators only: too large to validate or
# enumerate in a unit test, they measure the per-element code.


@pytest.fixture(scope="session")
def s7_generators():
    """S7 on seven points: a transposition and a 7-cycle."""
    return 7, [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]


@pytest.fixture(scope="session")
def gl42_generators():
    """GL(4,2) on the 15 nonzero vectors of F2^4, by its 12 elementary transvections.

    Vector ``v`` (a 4-bit number) is point ``v - 1``; the transvection
    ``I + E_ij`` adds coordinate ``j`` to coordinate ``i``.
    """
    return 15, [
        tuple((v ^ 1 << i if v >> j & 1 else v) - 1 for v in range(1, 16))
        for i in range(4)
        for j in range(4)
        if i != j
    ]


@pytest.fixture(scope="session")
def s6_regular_generators():
    """S6 acting on its own 720 elements by left multiplication: a one-point base."""
    return _left_regular(6, [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)])
