"""Branch-and-bound oracle against naive enumeration, and the guarantee chain."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import pytest

from cutcover import (
    CapGraph,
    Infeasible,
    Instance,
    SearchBudgetExceeded,
    SetFamily,
    enumerate_small_cuts,
    exact_optimum,
    residual,
    solve,
)
from cutcover.gen import RunConfig, generate
from conftest import (cycle, fam, k2, many_link_path, random_instance, shallow_recursion_limit,
                      singleton_cover)
import reference


def naive_optimum(inst, family):
    """Enumeration of all link subsets, with the costs scaled to integers
    over their common denominator; None when no subset covers family."""
    links = inst.links
    denom = lcm(*(l.cost.denominator for l in links))
    cover_bits = [sum(1 << l.id for l in links if ((m >> l.a) ^ (m >> l.b)) & 1)
                  for m in family.masks]
    costs = [sum(int(l.cost * denom) for l in links if (subset >> l.id) & 1)
             for subset in range(1 << len(links))
             if all(subset & bits for bits in cover_bits)]
    return Fraction(min(costs), denom) if costs else None


def test_exact_empty_family():
    inst = Instance.build(k2(), 1, [(0, 1, 3)])
    res = exact_optimum(inst.links, SetFamily(2, ()))
    assert res.opt_cost == 0 and res.opt_links == ()


def test_exact_single_link():
    inst = Instance.build(k2(), 2, [(0, 1, 5)])
    f = enumerate_small_cuts(k2(), 2)
    res = exact_optimum(inst.links, f)
    assert res.opt_cost == 5 and res.opt_links == (0,)


def test_exact_infeasible():
    inst = Instance.build(k2(), 2, [])
    f = enumerate_small_cuts(k2(), 2)
    with pytest.raises(Infeasible):
        exact_optimum(inst.links, f)


def test_exact_more_links_than_a_machine_word():
    inst = many_link_path()
    f = enumerate_small_cuts(inst.graph, inst.threshold)
    res = exact_optimum(inst.links, f)
    assert res.opt_cost == 1 and res.opt_links == (3,)


def test_exact_needs_no_recursion_depth():
    """The one cover of 500 disjoint singletons takes every link, 500
    levels deep, a few hundred past the lowered recursion limit: the
    cold search walks one path of 501 nodes on its explicit stack, and a
    warm start closes it at the root."""
    f, links = singleton_cover(500)
    with shallow_recursion_limit() as depth_limit:
        cold = exact_optimum(links, f)
        warm = exact_optimum(links, f, warm_start=solve(links, f))
    assert depth_limit <= 500 - 300
    assert (cold.opt_cost, cold.opt_links, cold.nodes_explored) == (500, tuple(range(500)), 501)
    assert (warm.opt_cost, warm.opt_links, warm.nodes_explored) == (500, tuple(range(500)), 1)


def test_exact_node_budget():
    """The cold search of 500 disjoint singletons explores 501 nodes: a
    budget of 500 refuses it, naming the budget, and 501 is enough."""
    f, links = singleton_cover(500)
    with pytest.raises(SearchBudgetExceeded, match="exceeded 500 nodes"):
        exact_optimum(links, f, node_budget=500)
    res = exact_optimum(links, f, node_budget=501)
    assert (res.opt_cost, res.opt_links, res.nodes_explored) == (500, tuple(range(500)), 501)


@pytest.mark.parametrize("seed", range(4))
def test_exact_agrees_with_naive(seed):
    rng = random.Random(seed)
    for _ in range(12):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 6))
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        expected = naive_optimum(inst, f)
        got = exact_optimum(inst.links, f)
        assert expected is not None
        assert got.opt_cost == expected
        # reported links really cover at the reported cost
        chosen = [inst.links[i] for i in got.opt_links]
        assert len(residual(f, chosen)) == 0
        assert sum((l.cost for l in chosen), Fraction(0)) == got.opt_cost


@pytest.mark.parametrize("seed", range(2))
def test_exact_agrees_with_naive_on_mixed_denominators(seed):
    rng = random.Random(100 + seed)
    denominators = set()
    for _ in range(12):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 6), rational=True)
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        got = exact_optimum(inst.links, f)
        assert got.opt_cost == naive_optimum(inst, f)
        chosen = [inst.links[i] for i in got.opt_links]
        assert len(residual(f, chosen)) == 0
        assert sum((l.cost for l in chosen), Fraction(0)) == got.opt_cost
        denominators.update(l.cost.denominator for l in inst.links)
    assert {2, 3} <= denominators


def test_exact_closes_at_root_when_warm_start_meets_bound():
    # the cores {0} and {2} have disjoint link sets {0, 1} and {2, 3}, so
    # every cover pays at least 3/2 + 5/3, which the solver's cover meets
    f = fam(4, (0,), (2,))
    inst = Instance.build(
        CapGraph(4, ()), 1,
        [(0, 1, Fraction(3, 2)), (0, 3, 2), (2, 3, Fraction(5, 3)), (2, 1, 4)],
    )
    res = solve(inst.links, f)
    assert res.cost == Fraction(3, 2) + Fraction(5, 3)
    warm = exact_optimum(inst.links, f, warm_start=res)
    assert warm.nodes_explored == 1
    assert (warm.opt_cost, warm.opt_links) == (res.cost, (0, 2))
    cold = exact_optimum(inst.links, f)
    assert (cold.opt_cost, cold.opt_links) == (warm.opt_cost, warm.opt_links)


def test_warm_start_of_another_family_refused():
    """A warm start lends the crossing table of the family it solved, so
    a search of any other family refuses it, a part of that family or
    the same masks over a larger ground set; an equal copy of the family
    takes it and gives the cold result."""
    f = enumerate_small_cuts(cycle(4), 3)
    inst = Instance.build(cycle(4), 3, [(0, 2, 5), (1, 3, 4), (0, 1, 3), (2, 3, 2)])
    res = solve(inst.links, f)
    for other in (SetFamily(f.n, f.masks[1:]), SetFamily(f.n + 1, f.masks)):
        with pytest.raises(ValueError, match="the warm start solved"):
            exact_optimum(inst.links, other, warm_start=res)
    cold = exact_optimum(inst.links, f)
    copy = exact_optimum(inst.links, SetFamily(f.n, f.masks), warm_start=res)
    assert (copy.opt_cost, copy.opt_links) == (cold.opt_cost, cold.opt_links)


def test_warm_start_does_not_change_optimum(rng):
    for _ in range(8):
        inst = random_instance(rng, 6, 4)
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        pd = solve(inst.links, f)
        cold = exact_optimum(inst.links, f)
        warm = exact_optimum(inst.links, f, warm_start=pd)
        assert cold.opt_cost == warm.opt_cost
        assert warm.nodes_explored <= cold.nodes_explored + 1


def test_exact_matches_frozen_member_list_search():
    """exact_optimum on member bitsets against `reference.exact_optimum`,
    the member-list search it replaced: the same optimum, the same links
    and the same node count, cold and warm, on 300 generated instances of
    the acceptance configuration (n 4-10) and 60 hand-built ones with
    rational costs."""
    cfg = RunConfig(seed=23, n_range=(4, 10), density_range=(0.15, 0.7))
    cases = [generate(cfg, index) for index in range(300)]
    rng = random.Random(61)
    for _ in range(60):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 6), rational=True)
        cases.append((inst, enumerate_small_cuts(inst.graph, inst.threshold)))
    closed = 0
    for inst, f in cases:
        cold = exact_optimum(inst.links, f)
        assert (cold.opt_cost, cold.opt_links, cold.nodes_explored) == \
            reference.exact_optimum(inst.links, f)
        res = solve(inst.links, f)
        warm = exact_optimum(inst.links, f, warm_start=res)
        assert (warm.opt_cost, warm.opt_links, warm.nodes_explored) == \
            reference.exact_optimum(inst.links, f, res.solution)
        closed += warm.nodes_explored == 1
    # warm starts both close the search at its root and leave it work
    assert 0 < closed < len(cases)


def test_guarantee_chain_on_random_runs(rng):
    for _ in range(10):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 5))
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        res = solve(inst.links, f)
        opt = exact_optimum(inst.links, f, warm_start=res)
        assert opt.opt_cost <= res.cost
        assert res.dual_total <= opt.opt_cost
        assert res.cost <= 5 * res.dual_total or res.cost == 0
        assert res.cost <= 5 * opt.opt_cost
