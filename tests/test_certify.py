"""Witness families, the containment tree, the core mapping, and audits."""

from __future__ import annotations

import random

import pytest

from cutcover import (
    Link,
    NodeSet,
    NotLaminar,
    SearchBudgetExceeded,
    SetFamily,
    WitnessAssignment,
    WitnessSearchExhausted,
    audit_run,
    build_tree,
    cores,
    crosses,
    crossing_density_audit,
    delta_links,
    enumerate_small_cuts,
    find_witness_laminar,
    psi_map,
    residual,
    reverse_delete,
    solve,
)
from conftest import cycle, fam, ns, random_instance


def _links(*pairs):
    return [Link(a, b, 1, i) for i, (a, b) in enumerate(pairs)]


# ---------------------------------------------------------------- minimal cover

def test_minimal_cover_single_link():
    f = fam(3, (0,))
    assert reverse_delete([0], f, _links((0, 1))) == [0]


def test_minimal_cover_empty_target():
    assert reverse_delete([0, 1], SetFamily(3, ()), _links((0, 1), (1, 2))) == []


def test_minimal_cover_random_single_drop_audit(rng):
    for _ in range(15):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 6))
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        if len(f) == 0:
            continue
        pruned = reverse_delete(range(len(inst.links)), f, inst.links)
        assert len(residual(f, [inst.links[i] for i in pruned])) == 0
        for lid in pruned:
            rest = [inst.links[i] for i in pruned if i != lid]
            assert len(residual(f, rest)) > 0


# ---------------------------------------------------------------- witness search

def test_witness_empty_cover():
    assignment = find_witness_laminar([], SetFamily(4, ()), [])
    assert assignment.witness == {}


def test_witness_singleton_cover():
    f = fam(3, (0,))
    links = _links((0, 1))
    assignment = find_witness_laminar([0], f, links)
    assert assignment.witness == {0: ns(3, 0)}


def test_witness_four_cycle_run_validates():
    g = cycle(4)
    f = enumerate_small_cuts(g, 3)
    inst_links = _links((0, 1), (1, 2), (2, 3), (3, 0))
    j = reverse_delete(range(4), f, inst_links)
    assignment = find_witness_laminar(j, f, inst_links)
    # independent recheck of both invariants
    sets = assignment.sets()
    for lid, s in assignment.witness.items():
        assert s in f
        assert delta_links(s, [inst_links[i] for i in j]) == {lid}
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            inter = a.bits & b.bits
            assert inter == 0 or inter == a.bits or inter == b.bits


def test_witness_assignment_laminar_family():
    f = fam(3, (0,))
    assignment = find_witness_laminar([0], f, _links((0, 1)))
    assert assignment.sets() == (ns(3, 0),)


def test_witness_exhausted_on_forced_non_laminar():
    # two crossing members, each the forced candidate of its own link
    f = fam(4, (0, 1), (1, 2))
    links = _links((0, 3), (2, 3))
    with pytest.raises(WitnessSearchExhausted):
        find_witness_laminar([0, 1], f, links)


def test_witness_candidates_missing_for_non_minimal_cover():
    # both links cover the only member, so neither is uniquely covering
    f = fam(3, (0,))
    links = _links((0, 1), (0, 2))
    with pytest.raises(WitnessSearchExhausted):
        find_witness_laminar([0, 1], f, links)


def test_witness_budget_exceeded():
    g = cycle(6)
    f = enumerate_small_cuts(g, 3)
    inst_links = _links((0, 3), (1, 4), (2, 5), (0, 2), (3, 5))
    j = reverse_delete(range(5), f, inst_links)
    with pytest.raises(SearchBudgetExceeded):
        find_witness_laminar(j, f, inst_links, node_budget=1)


# ---------------------------------------------------------------- laminar tree

def test_build_tree_empty():
    t = build_tree(SetFamily(4, ()))
    assert t.root == NodeSet.full(4)
    assert t.parent == {} and t.children[t.root] == ()


def test_build_tree_chain():
    t = build_tree(fam(4, (0,), (0, 1)))
    assert t.parent[ns(4, 0)] == ns(4, 0, 1)
    assert t.parent[ns(4, 0, 1)] == t.root
    assert t.children[ns(4, 0, 1)] == (ns(4, 0),)


def test_build_tree_siblings():
    t = build_tree(fam(4, (0,), (2,)))
    assert t.parent[ns(4, 0)] == t.root
    assert t.parent[ns(4, 2)] == t.root
    assert set(t.children[t.root]) == {ns(4, 0), ns(4, 2)}


def test_build_tree_rejects_crossing():
    with pytest.raises(NotLaminar):
        build_tree(fam(4, (0, 1), (1, 2)))


# ---------------------------------------------------------------- psi map

def test_psi_empty_lstar_maps_to_ground_set():
    m = psi_map(fam(4, (0,), (2,)), SetFamily(4, ()))
    assert m == {ns(4, 0): NodeSet.full(4), ns(4, 2): NodeSet.full(4)}


def test_psi_smallest_container():
    m = psi_map(fam(4, (0,)), fam(4, (0, 1), (0, 1, 2)))
    assert m[ns(4, 0)] == ns(4, 0, 1)


def test_psi_uncontained_core():
    m = psi_map(fam(4, (0, 3)), fam(4, (0, 1)))
    assert m[ns(4, 0, 3)] == NodeSet.full(4)


def test_psi_brute_force(rng):
    for _ in range(20):
        n = rng.randint(3, 8)
        # random laminar family: nested intervals over a shuffled order
        perm = list(range(n))
        rng.shuffle(perm)
        sets = set()
        for _ in range(rng.randint(1, 6)):
            lo = rng.randrange(n)
            hi = rng.randint(lo, n - 1)
            m = 0
            for i in range(lo, hi + 1):
                m |= 1 << perm[i]
            if 0 < m < (1 << n) - 1:
                ok = all(
                    (m & o == 0) or (m | o == m) or (m | o == o) for o in sets
                )
                if ok:
                    sets.add(m)
        lam = SetFamily(n, sets)
        core_family = fam(n, (rng.randrange(n),))
        psi = psi_map(core_family, lam)
        for c_set, target in psi.items():
            containers = [
                NodeSet(s, n) for s in lam.masks if c_set.bits & ~s == 0
            ] + [NodeSet.full(n)]
            smallest = min(containers, key=lambda s: (len(s), s.bits))
            assert target == smallest


# ---------------------------------------------------------------- audits

def test_audit_empty_cores_passes():
    report = crossing_density_audit(0, SetFamily(4, ()), WitnessAssignment(4, {}), [])
    assert report.passed
    assert report.num_cores == 0 and report.lstar_size == 0 and report.crossing_pairs == 0


def test_audit_empty_remainder_lemma_non_vacuous():
    # S0 = {2,3,4} is crossed by core {3,4,5}; its child witness {2,3} is
    # crossed too and exhausts S0 - C0. S0 is not red, the child is.
    f = SetFamily(8, [ns(8, 3, 4, 5), ns(8, 2, 3), ns(8, 2, 3, 4)])
    links = _links((4, 6), (3, 4))
    assignment = find_witness_laminar([0, 1], f, links)
    assert assignment.witness == {0: ns(8, 2, 3, 4), 1: ns(8, 2, 3)}
    report = crossing_density_audit(0, f, assignment, links)
    assert report.passed
    assert report.lstar_size == 2 and report.crossing_pairs == 2
    assert report.num_cores == 2


def test_audit_disjoint_child_lemma_non_vacuous():
    # S0 = {1,2,3,4} has child witness {1,2} disjoint from S0's crossing
    # core {4,5}; the core {2,3} maps to S0, making it red as required.
    f = SetFamily(
        8,
        [ns(8, 1, 2, 3, 4), ns(8, 1, 2), ns(8, 2, 3), ns(8, 4, 5), ns(8, 5, 6)],
    )
    links = _links((4, 0), (1, 3), (5, 7))
    assignment = find_witness_laminar([0, 1, 2], f, links)
    assert assignment.witness[0] == ns(8, 1, 2, 3, 4)
    assert assignment.witness[1] == ns(8, 1, 2)
    assert assignment.witness[2] == ns(8, 5, 6)
    report = crossing_density_audit(0, f, assignment, links)
    assert report.passed
    assert report.lstar_size == 3 and report.crossing_pairs == 3
    assert report.num_cores == 4
    assert report.lstar_size <= 2 * report.num_cores


def test_audit_flags_invalid_witness():
    # hand-made assignment whose image is not laminar
    f = fam(4, (0, 1), (1, 2))
    links = _links((0, 3), (2, 3))
    bogus = WitnessAssignment(4, {0: ns(4, 0, 1), 1: ns(4, 1, 2)})
    report = crossing_density_audit(0, f, bogus, links)
    assert not report.witness_valid and not report.passed


def test_audit_flags_wrong_delta():
    # claimed witness is covered by both links
    f = fam(4, (0,), (1,))
    links = _links((0, 2), (0, 1))
    bogus = WitnessAssignment(4, {0: ns(4, 0), 1: ns(4, 1)})
    report = crossing_density_audit(0, f, bogus, links)
    assert not report.witness_valid and not report.passed


def test_audit_run_over_random_solves(rng):
    phases = 0
    for _ in range(12):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 6))
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        result = solve(inst, f)
        reports = audit_run(inst.links, f, result)
        assert len(reports) == len(result.trace)
        for r in reports:
            assert r.passed
            assert r.crossing_pairs == r.lstar_size
            assert r.lstar_size <= 2 * r.num_cores
        # each phase is audited on the residual of every link picked before it
        picked = []
        for pt, r in zip(result.trace, reports):
            f_res = residual(f, [inst.links[i] for i in picked])
            j_hat = reverse_delete(result.solution, cores(f_res), inst.links)
            assignment = find_witness_laminar(j_hat, f_res, inst.links)
            assert r == crossing_density_audit(pt.phase, f_res, assignment, inst.links)
            picked.extend(pt.tight_link_ids)
        phases += len(result.trace)
        final_only = audit_run(inst.links, f, result, mode="final")
        assert len(final_only) == min(1, len(result.trace))
        if final_only:
            assert final_only[0] == reports[-1]
    assert phases > 24


def test_audit_red_count_bounded_by_cores():
    # each core colors exactly one node: red nodes never exceed core count
    f = SetFamily(8, [ns(8, 3, 4, 5), ns(8, 2, 3), ns(8, 2, 3, 4)])
    links = _links((4, 6), (3, 4))
    assignment = find_witness_laminar([0, 1], f, links)
    core_family = cores(f)
    l_star = SetFamily(8, [
        s for s in assignment.sets() if any(crosses(s, c) for c in core_family)
    ])
    psi = psi_map(core_family, l_star)
    red = set(psi.values())
    assert len(red) <= len(core_family)


def test_audit_mode_validated(rng):
    inst = random_instance(rng, 4, 2)
    f = enumerate_small_cuts(inst.graph, inst.threshold)
    result = solve(inst, f)
    with pytest.raises(ValueError):
        audit_run(inst.links, f, result, mode="sometimes")
