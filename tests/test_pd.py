"""Primal-dual engine: growth arithmetic, traces, reverse delete, duals."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cutcover import (
    Infeasible,
    Instance,
    Link,
    NodeSet,
    SetFamily,
    audit_run,
    check_pliable,
    check_structural_submodularity,
    check_symmetry,
    dual_feasible,
    enumerate_small_cuts,
    exact_optimum,
    residual,
    reverse_delete,
    solve,
)
from cutcover.family import all_covered, crossing_table
from cutcover.gen import RunConfig, generate
from conftest import cycle, fam, k2, ns, random_instance
import reference
from reference import cores, covers, load


def test_solve_empty_family():
    res = solve([Link(0, 1, 3, 0)], SetFamily(2, ()))
    assert res.solution == () and res.cost == 0
    assert res.y == {} and res.dual_total == 0
    assert res.trace == ()


def test_solve_k2_single_phase_dual():
    links = [Link(0, 1, 7, 0)]
    f = enumerate_small_cuts(k2(), 2)
    res = solve(links, f)
    assert res.solution == (0,)
    assert res.cost == 7
    # both singleton cores raised by 7/2; the link sits in both cuts
    assert res.y == {0b01: Fraction(7, 2), 0b10: Fraction(7, 2)}
    assert res.dual_total == 7
    assert len(res.trace) == 1
    pt = res.trace[0]
    assert pt.epsilon == Fraction(7, 2)
    assert pt.tight_link_ids == (0,)
    assert res.table.members(pt.core_bits) == [0b01, 0b10]
    assert dual_feasible(links, f, res.y)
    assert load(res.y, links[0], 2) == 7  # tight


def _one_phase(f, link_specs):
    """Solve f over links built from (a, b, cost) triples; returns the result."""
    return solve([Link(a, b, cost, i) for i, (a, b, cost) in enumerate(link_specs)], f)


def test_phase_single_core():
    res = _one_phase(fam(3, (0,)), [(0, 1, 5)])
    pt = res.trace[0]
    assert pt.epsilon == 5 and pt.tight_link_ids == (0,)
    assert res.y == {0b001: 5} and res.dual_total == 5


def test_phase_two_cores_half_slack():
    res = _one_phase(fam(2, (0,), (1,)), [(0, 1, 7)])
    pt = res.trace[0]
    assert pt.epsilon == Fraction(7, 2) and pt.tight_link_ids == (0,)
    assert res.dual_total == 7


def test_phase_zero_slack_link():
    res = _one_phase(fam(3, (0,)), [(0, 1, 0)])
    pt = res.trace[0]
    assert pt.epsilon == 0 and pt.tight_link_ids == (0,)
    assert res.y == {} and res.dual_total == 0  # nothing actually raised


def test_phase_uncrossed_core_infeasible():
    with pytest.raises(Infeasible) as err:
        _one_phase(fam(4, (0,), (1,)), [(1, 2, 1)])
    assert err.value.uncovered == ns(4, 0)


def test_solve_infeasible():
    inst = Instance.build(cycle(4), 3, [(0, 1, 1)])
    with pytest.raises(Infeasible):
        solve(inst.links, enumerate_small_cuts(cycle(4), 3))


def test_one_infeasibility_test():
    """solve refuses a family its links leave uncovered before the first
    phase, exactly when `all_covered` is False, by the test
    `exact_optimum` and `reverse_delete` make: all three name the lowest
    member that no link crosses."""
    cfg = RunConfig(seed=3, n_range=(4, 9), allow_infeasible=True)
    infeasible = 0
    for index in range(400):
        inst, f = generate(cfg, index)
        links = inst.links
        if all_covered(f, [(link.a, link.b) for link in links]):
            solve(links, f)
            continue
        infeasible += 1
        first = next(m for m in f.masks if not any(covers(link, NodeSet(m, f.n)) for link in links))
        for refuse in (lambda: solve(links, f), lambda: exact_optimum(links, f),
                       lambda: reverse_delete(range(len(links)), (1 << len(f)) - 1,
                                              crossing_table(f, links))):
            with pytest.raises(Infeasible) as err:
                refuse()
            assert err.value.uncovered == NodeSet(first, f.n)
    assert infeasible == 151


def test_zero_cost_links_admitted_in_zero_epsilon_phase():
    f = enumerate_small_cuts(k2(), 2)
    res = solve([Link(0, 1, 0, 0), Link(1, 0, 9, 1)], f)
    assert res.trace[0].epsilon == 0
    assert res.solution == (0,) and res.cost == 0
    assert res.dual_total == 0


def test_ties_admit_all_links_ascending():
    # two links of equal cost, each crossing exactly one of two cores
    g = cycle(4)
    f = enumerate_small_cuts(g, 3)
    res = solve([Link(1, 3, 4, 0), Link(0, 2, 4, 1)], f)
    assert res.trace[0].tight_link_ids == (0, 1)
    assert res.addition_order == (0, 1)


def test_reverse_delete_keeps_needed_link():
    f = fam(2, (0,), (1,))
    links = [Link(0, 1, 1, 0)]
    assert reverse_delete([0], (1 << len(f)) - 1, crossing_table(f, links)) == [0]


def test_reverse_delete_drops_redundant_first_link():
    # link 1 alone covers everything: scanned first, it is kept because {2}
    # needs it; link 0 is then dropped
    f = fam(3, (0,), (2,))
    links = [Link(0, 1, 1, 0), Link(0, 2, 1, 1)]
    kept = reverse_delete([0, 1], (1 << len(f)) - 1, crossing_table(f, links))
    assert kept == [1]


def test_reverse_delete_requires_cover():
    with pytest.raises(Infeasible):
        f = fam(2, (0,))
        reverse_delete([], (1 << len(f)) - 1, crossing_table(f, [Link(0, 1, 1, 0)]))


def test_reverse_delete_matches_drop_one_definition():
    """reverse_delete against `reference.reverse_delete`, which tests every
    candidate drop on every member by `covers`; an addition order that
    leaves a member uncrossed raises Infeasible naming the first one."""
    rng = random.Random(47)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(2, 7)
        full = (1 << n) - 1
        f = SetFamily(n, rng.sample(range(1, full), rng.randint(0, min(full - 1, 25))))
        links = [Link(*rng.sample(range(n), 2), 1, k) for k in range(rng.randint(0, 10))]
        links += [Link(link.a, link.b, 1, len(links) + k) for k, link in enumerate(links[:2])]
        order = rng.sample(range(len(links)), rng.randint(0, len(links)))
        table = crossing_table(f, links)
        if not reference.covered(f, [links[i] for i in order]):
            first = next(m for m in f.masks
                         if not any(covers(links[i], NodeSet(m, n)) for i in order))
            with pytest.raises(Infeasible) as err:
                reverse_delete(order, (1 << len(f)) - 1, table)
            assert err.value.uncovered == NodeSet(first, n)
            outcomes.add("uncrossed member")
            continue
        kept = reverse_delete(order, (1 << len(f)) - 1, table)
        assert kept == reference.reverse_delete(order, f, links)
        outcomes.add("dropped" if len(kept) < len(order) else "kept all")
    assert outcomes == {"uncrossed member", "dropped", "kept all"}


def test_dual_feasible_reports_violation():
    links = [Link(0, 1, 3, 0)]
    f = enumerate_small_cuts(k2(), 2)
    assert not dual_feasible(links, f, {0b01: Fraction(4)})
    assert dual_feasible(links, f, {})


def test_four_cycle_cost_within_five_of_optimum():
    g = cycle(4)
    f = enumerate_small_cuts(g, 3)
    inst = Instance.build(g, 3, [(0, 2, 5), (1, 3, 4), (0, 1, 3), (2, 3, 2)])
    res = solve(inst.links, f)
    assert len(residual(f, [inst.links[i] for i in res.solution])) == 0
    # exhaustive optimum over all 16 link subsets
    best = None
    for sel in range(16):
        chosen = [inst.links[i] for i in range(4) if (sel >> i) & 1]
        if len(residual(f, chosen)) == 0:
            cost = sum((l.cost for l in chosen), Fraction(0))
            best = cost if best is None else min(best, cost)
    assert best is not None
    assert res.cost <= 5 * best


def _replay_phases(inst, f, res):
    """Recompute each phase's residual and partial dual from the trace."""
    y, total = {}, Fraction(0)
    picked = []
    for pt in res.trace:
        remaining = residual(f, [inst.links[i] for i in picked])
        assert remaining == res.table.subfamily(pt.live)
        core_family = res.table.subfamily(pt.core_bits)
        assert cores(remaining) == core_family
        if pt.epsilon:
            for c in core_family.masks:
                y[c] = y.get(c, Fraction(0)) + pt.epsilon
            total += pt.epsilon * len(core_family)
        assert dual_feasible(inst.links, f, y), "dual infeasible at a phase boundary"
        picked.extend(pt.tight_link_ids)
    assert y == res.y and total == res.dual_total


@pytest.mark.parametrize("seed", range(6))
def test_random_runs_invariants(seed):
    rng = random.Random(seed)
    for _ in range(8):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 5))
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        res = solve(inst.links, f)
        # cover soundness
        assert len(residual(f, [inst.links[i] for i in res.solution])) == 0
        # solution is a subset of the addition order, costs add up
        assert set(res.solution) <= set(res.addition_order)
        assert res.cost == sum((inst.links[i].cost for i in res.solution), Fraction(0))
        # phase count bounded by link count; each phase admits a link
        assert len(res.trace) <= len(inst.links)
        assert all(pt.tight_link_ids for pt in res.trace)
        # inclusion-minimality: dropping any single link uncovers something
        for lid in res.solution:
            rest = [inst.links[i] for i in res.solution if i != lid]
            assert len(residual(f, rest)) > 0
        # dual feasibility at the end and at every phase boundary
        assert dual_feasible(inst.links, f, res.y)
        _replay_phases(inst, f, res)
        # dual keys were cores of some phase
        raised = set()
        for pt in res.trace:
            raised.update(res.table.members(pt.core_bits))
        assert set(res.y) <= raised
        # guarantee audit
        assert res.cost <= 5 * res.dual_total or res.cost == 0


def test_determinism():
    rng = random.Random(42)
    inst = random_instance(rng, 6, 4)
    f = enumerate_small_cuts(inst.graph, inst.threshold)
    a = solve(inst.links, f)
    b = solve(inst.links, f)
    assert a.solution == b.solution
    assert a.addition_order == b.addition_order
    assert a.trace == b.trace
    assert a.y == b.y


def _reference_solve(inst, f):
    """The phase loop in Fractions, from the definitions: each phase's
    epsilon is the least (cost - load) / degree over the unpicked links,
    with the load summed from scratch over the raised duals and the degree
    counted through `covers`. Returns the per-phase (epsilon, tight ids,
    residual size), the duals and their total."""
    y, total = {}, Fraction(0)
    picked = set()
    phases = []
    remaining = f
    while len(remaining):
        core_sets = [NodeSet(m, f.n) for m in cores(remaining).masks]
        reach = {}
        for link in inst.links:
            degree = sum(1 for c in core_sets if covers(link, c))
            if link.id not in picked and degree:
                reach[link.id] = (link.cost - load(y, link, f.n)) / degree
        epsilon = min(reach.values())
        tight = tuple(sorted(lid for lid, r in reach.items() if r == epsilon))
        if epsilon:
            for c in core_sets:
                y[c.bits] = y.get(c.bits, Fraction(0)) + epsilon
            total += epsilon * len(core_sets)
        phases.append((epsilon, tight, len(remaining)))
        picked.update(tight)
        remaining = residual(remaining, [inst.links[i] for i in tight])
    return phases, y, total


def _rational_instance_with_ties(rng):
    """A seeded instance with rational costs where some links cost 0 and
    some repeat another link's cost."""
    inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 5), rational=True)
    specs = []
    for link in inst.links:
        roll = rng.random()
        if roll < 0.15:
            cost = 0
        elif roll < 0.4 and specs:
            cost = rng.choice(specs)[2]
        else:
            cost = link.cost
        specs.append((link.a, link.b, cost))
    return Instance.build(inst.graph, inst.threshold, specs)


@pytest.mark.parametrize("seed", range(4))
def test_link_load_matches_from_scratch_load(seed):
    """The integer phase loop of `solve` against its Fraction reference:
    every phase's epsilon, tight ids and residual size, then y and the
    total."""
    rng = random.Random(seed)
    phases = zero_phases = ties = 0
    for _ in range(12):
        inst = _rational_instance_with_ties(rng)
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        res = solve(inst.links, f)
        expected, y, total = _reference_solve(inst, f)
        assert [(pt.epsilon, pt.tight_link_ids, pt.live.bit_count())
                for pt in res.trace] == expected
        assert res.y == y and res.dual_total == total
        phases += len(expected)
        zero_phases += sum(1 for eps, _, _ in expected if eps == 0)
        ties += sum(1 for _, tight, _ in expected if len(tight) > 1)
    assert phases > 20 and zero_phases and ties


@pytest.mark.parametrize("seed", range(3))
def test_dual_feasible_matches_fraction_reference(seed):
    """dual_feasible on scaled integers against the Fraction sums of
    tests/reference.py: the solved duals, where tight links carry exactly
    their cost, and the same duals with one set raised or every set scaled
    by a rational, which pushes some tight link just past its cost."""
    rng = random.Random(seed)
    outcomes = []
    for _ in range(10):
        inst = _rational_instance_with_ties(rng)
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        y = solve(inst.links, f).y
        states = [y]
        if y:
            bumped = dict(y)
            s = rng.choice(list(bumped))
            bumped[s] += Fraction(1, rng.randint(2, 997))
            factor = Fraction(rng.randint(1, 40), 37)
            states += [bumped, {s: v * factor for s, v in y.items()}]
        for y_state in states:
            expect = all(load(y_state, link, f.n) <= link.cost for link in inst.links)
            assert dual_feasible(inst.links, f, y_state) == expect
            outcomes.append(expect)
    assert set(outcomes) == {True, False}


#: the two tightest instances known, n = 5 families of the paper's class
#: with unit-cost links, as (member masks, link ends in id order, cost,
#: dual total, optimum): cost/OPT = cost/dual = 2 on the first, and
#: cost/dual = 2 on the second
_TIGHTEST = (
    ((3, 4, 6, 7, 8, 9, 11, 15, 16, 20, 22, 23, 24, 25, 27, 28),
     ((0, 3), (0, 4), (1, 2), (1, 4), (2, 3)), 4, 2, 2),
    ((1, 2, 3, 4, 6, 7, 9, 11, 20, 22, 24, 25, 27, 28, 29, 30),
     ((0, 3), (1, 3), (1, 4), (2, 4)), 4, 2, 4),
)


@pytest.mark.parametrize("masks, ends, cost, dual_total, opt_cost", _TIGHTEST,
                         ids=["cost_opt_2", "cost_dual_2"])
def test_tightest_known_instances(masks, ends, cost, dual_total, opt_cost):
    """The largest cost/OPT and cost/dual that an exhaustive run over
    every n = 5 family of the paper's class found with unit-cost links,
    each node pair linked at most once: both are 2. Each family is
    symmetric, pliable and structurally submodular, the duals are
    feasible and every phase audit passes.

    The link ids matter. Links that go tight together are admitted in
    ascending id order, and the first instance's five links numbered
    along their cycle 0-3-2-1-4-0 make the solve pay 2, not 4
    (`test_tightest_instance_follows_link_ids`). So this test also pins
    that tie rule.
    """
    f = SetFamily(5, masks)
    links = [Link(a, b, 1, k) for k, (a, b) in enumerate(ends)]
    for check in (check_symmetry, check_pliable, check_structural_submodularity):
        assert check(f).holds, check.__name__
    res = solve(links, f)
    assert (res.cost, res.dual_total) == (cost, dual_total)
    assert exact_optimum(links, f).opt_cost == opt_cost
    assert dual_feasible(links, f, res.y)
    assert all(r.passed for r in audit_run(links, res))


def test_tightest_instance_follows_link_ids():
    """The first of `_TIGHTEST` with its links numbered along the cycle
    0-3-2-1-4-0: the same links, so the same optimum, but the solve
    pays the optimum, 2."""
    masks, ends, _, _, opt_cost = _TIGHTEST[0]
    f = SetFamily(5, masks)
    cycle_ends = ((0, 3), (3, 2), (2, 1), (1, 4), (4, 0))
    assert {frozenset(e) for e in cycle_ends} == {frozenset(e) for e in ends}
    links = [Link(a, b, 1, k) for k, (a, b) in enumerate(cycle_ends)]
    assert solve(links, f).cost == exact_optimum(links, f).opt_cost == opt_cost


@pytest.mark.parametrize("seed", range(3))
def test_solve_on_families_no_graph_produces(seed):
    """The solver core on seeded families of random masks, most of them
    not symmetric, with random rational-cost links drawn until they cover:
    the solution covers, dropping any one of its links uncovers a member,
    the dual is feasible, and dual total <= optimum <= cost."""
    rng = random.Random(seed)
    asymmetric = multi_phase = 0
    for _ in range(30):
        n = rng.randint(2, 7)
        full = (1 << n) - 1
        f = SetFamily(n, rng.sample(range(1, full), rng.randint(1, min(12, full - 1))))
        asymmetric += not check_symmetry(f).holds
        links = []

        def draw():
            a, b = rng.sample(range(n), 2)
            links.append(Link(a, b, Fraction(rng.randint(0, 30), rng.randint(1, 4)), len(links)))

        while not all_covered(f, [(link.a, link.b) for link in links]):
            draw()
        for _ in range(rng.randint(0, 3)):
            draw()
        res = solve(links, f)
        multi_phase += len(res.trace) > 1
        ends = [(links[i].a, links[i].b) for i in res.solution]
        assert all_covered(f, ends)
        for k in range(len(ends)):
            assert not all_covered(f, ends[:k] + ends[k + 1:])
        assert dual_feasible(links, f, res.y)
        opt = exact_optimum(links, f)
        assert res.dual_total <= opt.opt_cost <= res.cost
    assert asymmetric > 10 and multi_phase > 10
