"""Node sets, graph construction, the cut table and small-cut enumeration,
with the reference cut and crossing predicates checked against their
definitions."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cutcover import (
    CapGraph,
    GroundSetTooLarge,
    Instance,
    Link,
    NodeSet,
    SetFamily,
    check_symmetry,
    enumerate_small_cuts,
)
from cutcover import kernels
from cutcover.graph import CUT_TABLE_BYTES, cut_table
from conftest import cycle, distinct_cut_values, k2, mask, ns, random_graph, triangle
from reference import crosses, cut_capacity, delta_links


# ---------------------------------------------------------------- NodeSet

def test_nodeset_ops():
    a = ns(4, 0, 1)
    b = ns(4, 1, 2)
    assert len(a) == 2
    assert list(b) == [1, 2]


def test_nodeset_validation():
    with pytest.raises(ValueError):
        NodeSet(1 << 5, 5)
    with pytest.raises(ValueError):
        NodeSet(-1, 3)
    with pytest.raises(ValueError):
        ns(3, 3)


def test_nodeset_immutable_and_hashable():
    a = ns(4, 0, 1)
    with pytest.raises(AttributeError):
        a.bits = 3
    assert hash(a) == hash(ns(4, 1, 0))
    assert a != ns(5, 0, 1)


# ---------------------------------------------------------------- cut_capacity

def test_cut_triangle_singleton():
    assert cut_capacity(triangle(), ns(3, 0)) == 2


def test_cut_empty_set_is_zero():
    assert cut_capacity(triangle(), NodeSet(0, 3)) == 0
    assert cut_capacity(cycle(6), NodeSet(0, 6)) == 0


def test_cut_four_cycle_opposite_pair():
    # brute recompute: edges 0-1, 1-2, 2-3, 3-0 all leave {0, 2}
    assert cut_capacity(cycle(4), ns(4, 0, 2)) == 4


def test_cut_rejects_mismatched_ground_set():
    with pytest.raises(ValueError):
        cut_capacity(triangle(), ns(4, 0))


def test_cut_parallel_edges_sum():
    g = CapGraph(2, ((0, 1, Fraction(1, 2)), (0, 1, Fraction(1, 3))))
    assert cut_capacity(g, ns(2, 0)) == Fraction(5, 6)


@st.composite
def graph_and_masks(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    pairs = list(combinations(range(n), 2))
    edges = []
    for u, v in pairs:
        if draw(st.booleans()):
            cap = Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
            edges.append((u, v, cap))
    a = draw(st.integers(0, (1 << n) - 1))
    b = draw(st.integers(0, (1 << n) - 1))
    return CapGraph(n, tuple(edges)), a, b


def _cut(g, m):
    return cut_capacity(g, NodeSet(m, g.n))


@given(graph_and_masks())
def test_cut_symmetry(gm):
    g, a, _ = gm
    assert _cut(g, a) == _cut(g, a ^ ((1 << g.n) - 1))


@given(graph_and_masks())
def test_cut_submodular_inequalities(gm):
    g, a, b = gm
    lhs = _cut(g, a) + _cut(g, b)
    assert lhs >= _cut(g, a & b) + _cut(g, a | b)
    assert lhs >= _cut(g, a & ~b) + _cut(g, b & ~a)


def test_floats_rejected():
    with pytest.raises(TypeError):
        CapGraph(2, ((0, 1, 0.5),))
    with pytest.raises(TypeError):
        enumerate_small_cuts(k2(), 1.5)


@pytest.mark.parametrize("build", [
    lambda: check_symmetry(SetFamily(3, [1.9, 6.2])),
    lambda: SetFamily(3, ["3"]),
    lambda: CapGraph(3, ((0.7, 1.9, 1),)),
    lambda: CapGraph(3.5, ()),
    lambda: Link(0.5, 1, 1, 0),
    lambda: NodeSet(1.0, 3),
    lambda: Link(0, 1, 1, 0.0),
], ids=["family-float-masks", "family-str-mask", "edge-float-ends", "graph-float-n",
        "link-float-end", "nodeset-float-bits", "link-float-id"])
def test_non_integer_ids_rejected(build):
    """Node ids, node counts and masks must be exact integers: a float or a
    string is refused, not truncated or compared as it stands."""
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build, error", [
    (lambda: Link(True, 2, 1, 0), TypeError),
    (lambda: CapGraph(3, [(0, True, 1)]), TypeError),
    (lambda: CapGraph(True, []), TypeError),
    (lambda: SetFamily(2, [True]), TypeError),
    (lambda: NodeSet(True, 2), TypeError),
    (lambda: Link(0, 1, True, 0), TypeError),
    (lambda: Link(0, 1, "1e400", 0), ValueError),
    (lambda: Link(0, 1, "1/0", 0), ValueError),
    (lambda: CapGraph(2, [(0, 1, "abc")]), ValueError),
    (lambda: Link(0, 1, 1, True), TypeError),
    (lambda: Link(0, 1, "1_000", 0), ValueError),
], ids=["link-bool-end", "edge-bool-end", "graph-bool-n", "family-bool-mask",
        "nodeset-bool-bits", "link-bool-cost", "link-exponent-cost",
        "link-zero-denominator-cost", "edge-malformed-capacity", "link-bool-id",
        "link-underscore-cost"])
def test_bools_and_unreadable_rationals_rejected(build, error):
    """A bool is neither a node id nor a rational, though Python counts it
    as an int; a rational string with an exponent, a zero denominator or
    no number is a ValueError, never a huge integer or ZeroDivisionError,
    and so is one with an underscore, which not every supported Python
    reads."""
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------- delta_links

def _links(*pairs):
    return [Link(a, b, 1, i) for i, (a, b) in enumerate(pairs)]


def test_delta_links_singleton():
    links = _links((0, 1), (1, 2))
    assert delta_links(ns(3, 0), links) == {0}


def test_delta_links_empty_set():
    assert delta_links(NodeSet(0, 3), _links((0, 1), (1, 2))) == frozenset()


def test_delta_links_pair():
    links = _links((0, 1), (0, 2), (1, 3))
    assert delta_links(ns(4, 0, 1), links) == {1, 2}


# ---------------------------------------------------------------- crosses

def test_crosses_examples():
    assert crosses(ns(4, 0, 1), ns(4, 1, 2))
    assert not crosses(ns(4, 0), ns(4, 0, 1))       # subset
    assert not crosses(ns(4, 0, 1), ns(4, 2, 3))    # union covers V
    assert not crosses(ns(4, 0), ns(4, 2))          # disjoint, empty corner


@given(graph_and_masks())
def test_crosses_matches_corner_definition(gm):
    g, a, b = gm
    corners = (a & b, ((1 << g.n) - 1) & ~(a | b), a & ~b, b & ~a)
    assert crosses(NodeSet(a, g.n), NodeSet(b, g.n)) == all(corners)


# ---------------------------------------------------------------- construction

def test_self_loop_rejected():
    with pytest.raises(ValueError):
        CapGraph(3, ((1, 1, 1),))
    with pytest.raises(ValueError):
        Link(2, 2, 1, 0)


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        CapGraph(2, ((0, 1, -1),))
    with pytest.raises(ValueError):
        Link(0, 1, Fraction(-1, 2), 0)


def test_instance_link_ids_positional():
    g = k2()
    with pytest.raises(ValueError):
        Instance(g, 1, (Link(0, 1, 1, 3),))
    with pytest.raises(ValueError):
        Instance.build(g, 1, [(0, 5, 1)])
    inst = Instance.build(g, 1, [(0, 1, 2), (1, 0, 3)])
    assert [l.id for l in inst.links] == [0, 1]


# ---------------------------------------------------------------- enumeration

def brute_small_cuts(g, lam):
    full = (1 << g.n) - 1
    return {
        m for m in range(1, full)
        if _cut(g, m) < lam
    }


def test_enumerate_four_cycle_arcs():
    family = enumerate_small_cuts(cycle(4), 3)
    assert set(family.masks) == brute_small_cuts(cycle(4), 3)
    assert len(family) == 12
    # the 12 contiguous arcs: 4 singletons, 4 adjacent pairs, 4 triples
    by_size = sorted(m.bit_count() for m in family.masks)
    assert by_size == [1] * 4 + [2] * 4 + [3] * 4
    assert not family.contains_mask(mask(0, 2)) and not family.contains_mask(mask(1, 3))


def test_enumerate_strict_inequality():
    # every cut of the 4-cycle is exactly 2 or 4; nothing is < 2
    assert len(enumerate_small_cuts(cycle(4), 2)) == 0


def test_enumerate_connected_unit_graph_lambda_one():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 7)
        edges = [(i, (i + 1) % n, 1) for i in range(n)]  # ensure connectivity
        edges += [(rng.randrange(n), rng.randrange(n), 1) for _ in range(3)]
        g = CapGraph(n, tuple(e for e in edges if e[0] != e[1]))
        assert len(enumerate_small_cuts(g, 1)) == 0


def test_enumerate_k2():
    family = enumerate_small_cuts(k2(), 2)
    assert set(family.masks) == {0b01, 0b10}


def test_enumerate_random_matches_brute_force(rng):
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7), density=rng.uniform(0.2, 0.9), rational=True)
        lam = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        family = enumerate_small_cuts(g, lam)
        assert set(family.masks) == brute_small_cuts(g, lam)


def test_cut_table_matches_brute_force_on_rational_graphs():
    rng = random.Random(17)
    fractional_lam = 0
    for _ in range(30):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, density=rng.uniform(0.2, 0.9), rational=True)
        full = (1 << n) - 1
        cuts = {m: _cut(g, m) for m in range(1, full)}
        assert distinct_cut_values(g) == tuple(sorted(set(cuts.values())))
        denom = cut_table(g)[1]
        # 7/3 is a threshold whose scaled value is fractional unless 3 | denom
        fractional_lam += (Fraction(7, 3) * denom).denominator != 1
        for lam in {Fraction(7, 3), *cuts.values(), *(v + Fraction(1, 7) for v in cuts.values())}:
            expect = {m for m, v in cuts.items() if v < lam}
            assert set(enumerate_small_cuts(g, lam).masks) == expect
    assert fractional_lam > 10


def test_cut_table_refuses_before_walking(monkeypatch):
    def no_walk(n, edges):
        raise AssertionError("walked a ground set above the limit")

    monkeypatch.setattr(kernels, "cut_values", no_walk)
    with pytest.raises(GroundSetTooLarge):
        cut_table(CapGraph(9, ()), limit=8)
    with pytest.raises(GroundSetTooLarge):
        cut_table(CapGraph(21, ()))


def test_cut_table_refuses_above_byte_budget(monkeypatch):
    """Past the enumeration limit, the byte budget still refuses a table
    before anything is built: by ground-set size, and sooner when the
    capacities are wide ints. The walk is replaced, so nothing is built
    either way."""
    walked = []
    monkeypatch.setattr(kernels, "cut_values", lambda n, edges: walked.append(n))
    # 2^(n-1) entries of 2 * (8 + 28) bytes pass 2^30 bytes from n = 25
    assert CUT_TABLE_BYTES == 1 << 30
    cut_table(CapGraph(24, ()), limit=10**6)
    for n in (25, 64, 10**6):
        with pytest.raises(GroundSetTooLarge, match="budget"):
            cut_table(CapGraph(n, ()), limit=10**6)
    cut_table(CapGraph(16, ((0, 1, 1 << 100_000),)), limit=64)
    with pytest.raises(GroundSetTooLarge, match="budget"):
        cut_table(CapGraph(17, ((0, 1, 1 << 100_000),)), limit=64)
    assert walked == [24, 16]


def test_enumerate_family_is_symmetric(rng):
    for _ in range(10):
        g = random_graph(rng, 6, density=0.5)
        family = enumerate_small_cuts(g, 3)
        full = (1 << 6) - 1
        assert all(family.contains_mask(full ^ m) for m in family.masks)


def test_enumeration_limit():
    g = CapGraph(8, ())
    with pytest.raises(GroundSetTooLarge):
        enumerate_small_cuts(g, 1, limit=7)
    assert len(enumerate_small_cuts(g, 1, limit=8)) == 254  # all cuts are 0


def test_disconnected_zero_cuts_enter_family():
    g = CapGraph(4, ((0, 1, 2), (2, 3, 2)))
    family = enumerate_small_cuts(g, 1)
    assert family.contains_mask(mask(0, 1)) and family.contains_mask(mask(2, 3))


def test_enumerate_huge_rationals_uses_exact_path():
    # scaled weights far beyond a 64-bit word; the walk's Python ints stay exact
    big = Fraction(1 << 80)
    g = CapGraph(4, tuple((u, v, big) for u, v, _ in cycle(4).edges))
    family = enumerate_small_cuts(g, 3 * big)
    assert set(family.masks) == set(enumerate_small_cuts(cycle(4), 3).masks)


# ---------------------------------------------------------------- cut table entries

def test_cut_table_entries_equal_cut_capacity(rng):
    for _ in range(12):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, density=rng.uniform(0.2, 0.8), rational=True)
        vals, denom = cut_table(g)
        assert len(vals) == 1 << (n - 1)
        assert vals[0] == 0
        for m, v in enumerate(vals):
            assert Fraction(v, denom) == _cut(g, m)


def test_distinct_cut_values_four_cycle():
    assert distinct_cut_values(cycle(4)) == (2, 4)
