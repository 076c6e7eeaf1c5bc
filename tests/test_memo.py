"""Memoisation held by the theory: its contract, its lifetime, its scope."""

from __future__ import annotations

import gc
import weakref
from pathlib import Path

import pytest

from emergent import (
    ResourceLimit,
    build_process_category,
    enumerate_self_bicommutant,
    enumerate_systems,
    load_theory,
)
from emergent.checks import SUITES, lattice_suite, processes_suite, run_suites
from emergent.perms import theory_memo
from emergent.processes import process_table

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fresh(name):
    """A newly loaded theory, with an empty memo."""
    return load_theory(FIXTURES / f"{name}.json")[0]


def test_memo_returns_the_first_result_for_equal_arguments():
    calls = []

    @theory_memo
    def degree_plus(theory, k, scale=1):
        calls.append(k)
        return [(theory.degree + k) * scale]

    theory = _fresh("s3")
    first = degree_plus(theory, 1)
    assert degree_plus(theory, 1) is first
    assert degree_plus(theory, 2) == [5]
    # Keyword calls work and, as with lru_cache, are keyed apart.
    assert degree_plus(theory, 1, scale=2) == [8]
    assert degree_plus(theory, k=1) == [4]
    assert degree_plus(theory, k=1) is degree_plus(theory, k=1)
    assert calls == [1, 2, 1, 1]


def test_memo_stores_nothing_for_a_call_that_raises():
    calls = []

    @theory_memo
    def fails(theory):
        calls.append(None)
        raise ValueError("no result")

    theory = _fresh("s3")
    for _ in range(2):
        with pytest.raises(ValueError):
            fails(theory)
    assert len(calls) == 2
    fresh = _fresh("s3x3")
    for _ in range(2):
        with pytest.raises(ResourceLimit):
            enumerate_self_bicommutant(fresh, max_nodes=10)
    assert len(enumerate_self_bicommutant(fresh, max_nodes=100)) > 10


@pytest.mark.parametrize("result", [None, False, 0, ()])
def test_memo_serves_a_falsy_result_without_recomputing_it(result):
    calls = []

    @theory_memo
    def falsy(theory, k):
        calls.append(k)
        return result

    theory = _fresh("s3")
    assert falsy(theory, 1) is result
    assert falsy(theory, 1) is result
    assert falsy(theory, k=1) is result
    assert calls == [1, 1]


def test_theory_equality_ignores_the_memo():
    used, fresh = _fresh("s3"), _fresh("s3")
    enumerate_systems(used)
    assert used == fresh
    assert hash(used) == hash(fresh) == hash(used.group)
    assert repr(used) == repr(fresh)


def test_a_theorys_memo_dies_with_it():
    theory, named = load_theory(FIXTURES / "s3x3.json")
    assert all(result.ok for result in run_suites(theory, tuple(SUITES)))
    refs = (weakref.ref(theory), weakref.ref(theory.group))
    del theory, named
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_equal_but_distinct_theories_share_nothing():
    loaded, again = _fresh("s3x3"), _fresh("s3x3")
    assert loaded == again
    assert loaded.group is not again.group
    for theory in (loaded, again):
        group = theory.group
        lattice = enumerate_self_bicommutant(theory)
        assert lattice.theory is theory
        assert all(node.parent is group for node in lattice.nodes)
        assert all(s.transf.parent is group for s in enumerate_systems(theory))
    assert lattice_suite(loaded) == lattice_suite(again)


def test_neither_process_tables_nor_state_maps_are_memoised():
    # A process table is read from the memoised state tables, and a state
    # map would keep every acted joint state alive.
    theory = _fresh("s3x3")
    processes_suite(build_process_category(theory))
    assert process_table not in theory._memo
    assert not any("state_map" in fn.__name__ for fn in theory._memo)
