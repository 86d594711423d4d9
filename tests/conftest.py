"""Shared builders for graphs, families and random instances."""

from __future__ import annotations

import contextlib
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cutcover
from cutcover import CapGraph, Instance, Link, NodeSet, SetFamily, crossing_density_audit
from cutcover.family import crossing_table
from cutcover.graph import cut_table


def child_env():
    """The environment for a child Python that must import this cutcover:
    PYTHONPATH leads with the src directory the package was imported from."""
    src = str(Path(cutcover.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + rest if rest else src)


def mask(*elements):
    return sum(1 << v for v in set(elements))


def ns(n, *elements):
    return NodeSet(mask(*elements), n)


def fam(n, *element_tuples):
    return SetFamily(n, [mask(*t) for t in element_tuples])


def member_bits(table, sub):
    """The member bits over table of sub, a subfamily of the table's
    family, found by membership."""
    bits = sum(1 << i for i, m in enumerate(table.family.masks) if sub.contains_mask(m))
    assert bits.bit_count() == len(sub), f"{sub!r} is not a subfamily of {table.family!r}"
    return bits


def family_audit(phase, f_res, witness, links, core_family):
    """`crossing_density_audit` of the family f_res with core_family, a
    subfamily of it, as member bits over a crossing table of f_res."""
    table = crossing_table(f_res, [])
    return crossing_density_audit(phase, table, (1 << len(f_res)) - 1,
                                  member_bits(table, core_family), witness, links)


def triangle():
    return CapGraph(3, ((0, 1, 1), (1, 2, 1), (0, 2, 1)))


def cycle(n, cap=1):
    return CapGraph(n, tuple((i, (i + 1) % n, cap) for i in range(n)))


def k2(cap=1):
    return CapGraph(2, ((0, 1, cap),))


def many_link_path(num_links=70):
    """A 4-node unit path at threshold 2 with more links than a 64-bit
    word has bits; link 3, (3, 0) at cost 1, covers every small cut."""
    g = CapGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1)))
    return Instance.build(g, 2, [(i % 4, (i + 1) % 4, 1 + i % 3) for i in range(num_links)])


def singleton_cover(num_links):
    """A family of num_links disjoint singletons {0}, {2}, {4}, ... and
    link k, (2k, 2k + 1) at cost 1, the only link crossing {2k}: the one
    cover takes every link, as deep as a search that recursed once per
    link would go."""
    n = 2 * num_links
    return (SetFamily(n, [1 << v for v in range(0, n, 2)]),
            [Link(v, v + 1, 1, k) for k, v in enumerate(range(0, n, 2))])


@contextlib.contextmanager
def shallow_recursion_limit(headroom=100):
    """Lower the recursion limit to headroom frames above the caller's
    depth for the with block, and yield it; the old limit is restored on
    the way out."""
    depth = 0
    frame = sys._getframe(2)  # the caller: past this generator and contextlib
    while frame is not None:
        depth += 1
        frame = frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield depth + headroom
    finally:
        sys.setrecursionlimit(old)


def random_graph(rng: random.Random, n, density=0.5, max_cap=5, rational=False):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                if rational:
                    cap = Fraction(rng.randint(0, max_cap), rng.randint(1, 4))
                else:
                    cap = Fraction(rng.randint(0, max_cap))
                edges.append((u, v, cap))
    return CapGraph(n, tuple(edges))


def distinct_cut_values(g):
    """The distinct cut capacities of g over its non-trivial sets, ascending,
    read off `cut_table`: mask 0 is the empty set."""
    values, denom = cut_table(g)
    return tuple(Fraction(v, denom) for v in sorted(set(values[1:])))


def random_instance(rng: random.Random, n, num_links, density=0.5, max_cost=10, rational=False):
    """Feasible instance over a random graph: the links include a random
    spanning star (which crosses every non-trivial set) plus extras; the
    threshold sits at a high quantile of the distinct cut values. With
    rational=True the capacities and costs have denominators 1 to 4."""

    def cost():
        if rational:
            return Fraction(rng.randint(1, max_cost), rng.randint(1, 4))
        return Fraction(rng.randint(1, max_cost))

    g = random_graph(rng, n, density, rational=rational)
    values = distinct_cut_values(g)
    threshold = values[(3 * len(values)) // 4] if len(values) > 1 else values[0] + 1
    specs = []
    center = rng.randrange(n)
    for v in range(n):
        if v != center:
            specs.append((center, v, cost()))
    for _ in range(num_links):
        a = rng.randrange(n)
        b = rng.randrange(n - 1)
        if b >= a:
            b += 1
        specs.append((a, b, cost()))
    rng.shuffle(specs)
    return Instance.build(g, threshold, specs)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
