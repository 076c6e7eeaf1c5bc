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
def s3_regular():
    """S3 acting on its own six elements by left multiplication."""
    elements = sorted(itertools.permutations(range(3)))
    index = {x: i for i, x in enumerate(elements)}
    generators = [(1, 0, 2), (1, 2, 0)]
    return _from_generators(
        6, [[index[tuple(a[x[i]] for i in range(3))] for x in elements] for a in generators]
    )
