"""Witness families, the containment tree, the core mapping, and audits."""

from __future__ import annotations

import random

import pytest

from cutcover import (
    Link,
    NodeSet,
    SearchBudgetExceeded,
    SetFamily,
    WitnessSearchExhausted,
    audit_run,
    crossing_density_audit,
    enumerate_small_cuts,
    find_witness_laminar,
    residual,
    reverse_delete,
    solve,
)
from cutcover.certify import _build_tree, _psi_map, _witness_candidates
from cutcover.family import crossing_table
from conftest import cycle, fam, mask, random_instance, shallow_recursion_limit, singleton_cover
import reference
from reference import cores, covers, crosses, delta_links


def _links(*pairs):
    return [Link(a, b, 1, i) for i, (a, b) in enumerate(pairs)]


# ---------------------------------------------------------------- reverse delete gives a minimal cover

def test_reverse_delete_minimal_single_link():
    f = fam(3, (0,))
    assert reverse_delete([0], f, crossing_table(f, _links((0, 1)))) == [0]


def test_reverse_delete_minimal_empty_target():
    f = SetFamily(3, ())
    assert reverse_delete([0, 1], f, crossing_table(f, _links((0, 1), (1, 2)))) == []


def test_reverse_delete_minimal_random_single_drop_audit(rng):
    for _ in range(15):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 6))
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        if len(f) == 0:
            continue
        pruned = reverse_delete(range(len(inst.links)), f, crossing_table(f, inst.links))
        assert len(residual(f, [inst.links[i] for i in pruned])) == 0
        for lid in pruned:
            rest = [inst.links[i] for i in pruned if i != lid]
            assert len(residual(f, rest)) > 0


# ---------------------------------------------------------------- witness search

def test_witness_empty_cover():
    f = SetFamily(4, ())
    assert find_witness_laminar([], f, crossing_table(f, [])) == {}


def test_witness_singleton_cover():
    f = fam(3, (0,))
    links = _links((0, 1))
    assert find_witness_laminar([0], f, crossing_table(f, links)) == {0: 0b001}


def test_witness_four_cycle_run_validates():
    g = cycle(4)
    f = enumerate_small_cuts(g, 3)
    inst_links = _links((0, 1), (1, 2), (2, 3), (3, 0))
    table = crossing_table(f, inst_links)
    j = reverse_delete(range(4), f, table)
    witness = find_witness_laminar(j, f, table)
    # independent recheck of both invariants
    assert sorted(witness) == sorted(j)
    sets = list(witness.values())
    for lid, m in witness.items():
        assert f.contains_mask(m)
        assert delta_links(NodeSet(m, 4), [inst_links[i] for i in j]) == {lid}
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            inter = a & b
            assert inter == 0 or inter == a or inter == b


def test_witness_assignment_laminar_family():
    f = fam(3, (0,))
    assert find_witness_laminar([0], f, crossing_table(f, _links((0, 1)))) == {0: 0b001}


def test_witness_exhausted_on_forced_non_laminar():
    # two crossing members, each the forced candidate of its own link
    f = fam(4, (0, 1), (1, 2))
    links = _links((0, 3), (2, 3))
    with pytest.raises(WitnessSearchExhausted):
        find_witness_laminar([0, 1], f, crossing_table(f, links))


def test_witness_candidates_missing_for_non_minimal_cover():
    # both links cover the only member, so neither is uniquely covering
    f = fam(3, (0,))
    links = _links((0, 1), (0, 2))
    with pytest.raises(WitnessSearchExhausted):
        find_witness_laminar([0, 1], f, crossing_table(f, links))


def test_witness_candidates_match_member_scan():
    """The candidates from the cover's columns against the member-scan
    definition: the members of the residual whose crossing links among
    the cover are exactly the one link, smallest first. The tables are
    built over the whole family and the residuals are subfamilies of it,
    as in a solve's audit."""
    rng = random.Random(67)
    kinds = set()
    for _ in range(300):
        n = rng.randint(2, 8)
        full = (1 << n) - 1
        f = SetFamily(n, rng.sample(range(1, full), rng.randint(0, min(full - 1, 90))))
        links = _links(*(rng.sample(range(n), 2) for _ in range(rng.randint(1, 8))))
        table = crossing_table(f, links)
        f_res = SetFamily(n, [m for m in f.masks if rng.random() < 0.7])
        j_hat = rng.sample(range(len(links)), rng.randint(1, len(links)))
        expect = {
            lid: sorted((m for m in f_res.masks
                         if [j for j in j_hat if covers(links[j], NodeSet(m, n))] == [lid]),
                        key=lambda m: (m.bit_count(), m))
            for lid in j_hat
        }
        got = _witness_candidates(j_hat, f_res, table)
        assert got == expect and list(got) == j_hat
        kinds.update(min(len(c), 2) for c in got.values())
    assert kinds == {0, 1, 2}


def test_witness_budget_exceeded():
    g = cycle(6)
    f = enumerate_small_cuts(g, 3)
    inst_links = _links((0, 3), (1, 4), (2, 5), (0, 2), (3, 5))
    table = crossing_table(f, inst_links)
    j = reverse_delete(range(5), f, table)
    with pytest.raises(SearchBudgetExceeded):
        find_witness_laminar(j, f, table, node_budget=1)


def test_witness_search_needs_no_recursion_depth():
    """A cover of 500 links, one search position each, audits under a
    recursion limit a few hundred below that: the search is a loop, so
    no depth limit stops it."""
    f, links = singleton_cover(500)
    with shallow_recursion_limit() as depth_limit:
        [report] = audit_run(links, solve(links, f), "final")
    assert depth_limit <= 500 - 300
    assert report.passed and report.lhat_size == 500


# ---------------------------------------------------------------- laminar tree

def test_build_tree_empty():
    assert _build_tree([]) == {}


def test_build_tree_chain():
    assert _build_tree([0b0011, 0b0001]) == {0b0011: [0b0001], 0b0001: []}


def test_build_tree_siblings():
    # both sets hang off the root: neither is the other's child
    assert _build_tree([0b0001, 0b0100]) == {0b0001: [], 0b0100: []}


# ---------------------------------------------------------------- psi map

def test_psi_empty_lstar_maps_to_ground_set():
    assert _psi_map([0b0001, 0b0100], [], 0b1111) == {0b0001: 0b1111, 0b0100: 0b1111}


def test_psi_smallest_container():
    assert _psi_map([0b0001], [0b0111, 0b0011], 0b1111) == {0b0001: 0b0011}


def test_psi_uncontained_core():
    assert _psi_map([0b1001], [0b0011], 0b1111) == {0b1001: 0b1111}


def _random_laminar_masks(rng, n):
    """A random laminar family over [0, n): nested intervals of a shuffled
    node order."""
    perm = list(range(n))
    rng.shuffle(perm)
    sets = set()
    for _ in range(rng.randint(1, 6)):
        lo = rng.randrange(n)
        hi = rng.randint(lo, n - 1)
        m = 0
        for i in range(lo, hi + 1):
            m |= 1 << perm[i]
        if 0 < m < (1 << n) - 1 and all(
            (m & o == 0) or (m | o == m) or (m | o == o) for o in sets
        ):
            sets.add(m)
    return sorted(sets)


def test_psi_brute_force(rng):
    for _ in range(20):
        n = rng.randint(3, 8)
        lam = _random_laminar_masks(rng, n)
        core_masks = [1 << rng.randrange(n), rng.randrange(1, 1 << n)]
        psi = _psi_map(core_masks, lam, (1 << n) - 1)
        for c, target in psi.items():
            containers = [s for s in lam if c & ~s == 0] + [(1 << n) - 1]
            smallest = min(containers, key=lambda s: (s.bit_count(), s))
            assert target == smallest


def test_tree_and_psi_match_reference(rng):
    """The mask helpers against the NodeSet tree and core map: the same
    children under every witness set and the same image of every core."""
    for _ in range(40):
        n = rng.randint(3, 8)
        lam = _random_laminar_masks(rng, n)
        rng.shuffle(lam)
        tree = reference.build_tree(SetFamily(n, lam))
        assert _build_tree(lam) == {
            m: [k.bits for k in tree.children[NodeSet(m, n)]] for m in lam
        }
        core_family = SetFamily(n, [rng.randrange(1, (1 << n) - 1) for _ in range(3)])
        psi = reference.psi_map(core_family, SetFamily(n, lam))
        assert _psi_map(core_family.masks, lam, (1 << n) - 1) == {
            c.bits: s.bits for c, s in psi.items()
        }


# ---------------------------------------------------------------- audits

def test_audit_empty_cores_passes():
    f = SetFamily(4, ())
    report = crossing_density_audit(0, f, {}, [], cores(f))
    assert report.passed
    assert report.num_cores == 0 and report.lstar_size == 0 and report.crossing_pairs == 0


def test_audit_empty_remainder_lemma_non_vacuous():
    # S0 = {2,3,4} is crossed by core {3,4,5}; its child witness {2,3} is
    # crossed too and exhausts S0 - C0. S0 is not red, the child is.
    f = fam(8, (3, 4, 5), (2, 3), (2, 3, 4))
    links = _links((4, 6), (3, 4))
    witness = find_witness_laminar([0, 1], f, crossing_table(f, links))
    assert witness == {0: mask(2, 3, 4), 1: mask(2, 3)}
    report = crossing_density_audit(0, f, witness, links, cores(f))
    assert report.passed
    assert report.lstar_size == 2 and report.crossing_pairs == 2
    assert report.num_cores == 2


def test_audit_disjoint_child_lemma_non_vacuous():
    # S0 = {1,2,3,4} has child witness {1,2} disjoint from S0's crossing
    # core {4,5}; the core {2,3} maps to S0, making it red as required.
    f = fam(8, (1, 2, 3, 4), (1, 2), (2, 3), (4, 5), (5, 6))
    links = _links((4, 0), (1, 3), (5, 7))
    witness = find_witness_laminar([0, 1, 2], f, crossing_table(f, links))
    assert witness[0] == mask(1, 2, 3, 4)
    assert witness[1] == mask(1, 2)
    assert witness[2] == mask(5, 6)
    report = crossing_density_audit(0, f, witness, links, cores(f))
    assert report.passed
    assert report.lstar_size == 3 and report.crossing_pairs == 3
    assert report.num_cores == 4
    assert report.lstar_size <= 2 * report.num_cores


def test_audit_flags_invalid_witness():
    # hand-made witness map whose image is not laminar
    f = fam(4, (0, 1), (1, 2))
    links = _links((0, 3), (2, 3))
    bogus = {0: 0b0011, 1: 0b0110}
    report = crossing_density_audit(0, f, bogus, links, cores(f))
    assert not report.witness_valid and not report.passed


def test_audit_flags_wrong_delta():
    # claimed witness is covered by both links
    f = fam(4, (0,), (1,))
    links = _links((0, 2), (0, 1))
    bogus = {0: 0b0001, 1: 0b0010}
    report = crossing_density_audit(0, f, bogus, links, cores(f))
    assert not report.witness_valid and not report.passed


def test_audit_flags_witness_outside_ground_set():
    # a mask over a larger ground set is no member of the family: a verdict,
    # not an error
    f = fam(4, (0,), (1,))
    links = _links((0, 2))
    report = crossing_density_audit(0, f, {0: 0b10001}, links, cores(f))
    assert not report.witness_valid and not report.passed
    assert crossing_density_audit(0, f, {0: 0b00001}, links, cores(f)).passed


def test_audit_run_over_random_solves(rng):
    phases = 0
    for _ in range(12):
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 6))
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        result = solve(inst.links, f)
        reports = audit_run(inst.links, result)
        assert len(reports) == len(result.trace)
        for r in reports:
            assert r.passed
            assert r.crossing_pairs == r.lstar_size
            assert r.lstar_size <= 2 * r.num_cores
        # each phase is audited on the residual of every link picked before it
        picked = []
        for pt, r in zip(result.trace, reports):
            f_res = residual(f, [inst.links[i] for i in picked])
            core_family = cores(f_res)
            table = crossing_table(f_res, inst.links)
            j_hat = reverse_delete(result.solution, core_family, table)
            witness = find_witness_laminar(j_hat, f_res, table)
            assert r == crossing_density_audit(pt.phase, f_res, witness, inst.links, core_family)
            picked.extend(pt.tight_link_ids)
        phases += len(result.trace)
        final_only = audit_run(inst.links, result, mode="final")
        assert len(final_only) == min(1, len(result.trace))
        if final_only:
            assert final_only[0] == reports[-1]
    assert phases > 24


def test_audit_red_count_bounded_by_cores():
    # each core colors exactly one node: red nodes never exceed core count
    f = fam(8, (3, 4, 5), (2, 3), (2, 3, 4))
    links = _links((4, 6), (3, 4))
    witness = find_witness_laminar([0, 1], f, crossing_table(f, links))
    core_family = cores(f)
    l_star = SetFamily(8, [
        s for s in witness.values()
        if any(crosses(NodeSet(s, 8), NodeSet(c, 8)) for c in core_family.masks)
    ])
    psi = _psi_map(core_family.masks, l_star.masks, (1 << 8) - 1)
    red = set(psi.values())
    assert len(red) <= len(core_family)


def test_audit_mode_validated(rng):
    inst = random_instance(rng, 4, 2)
    f = enumerate_small_cuts(inst.graph, inst.threshold)
    result = solve(inst.links, f)
    with pytest.raises(ValueError):
        audit_run(inst.links, result, mode="sometimes")


# ---------------------------------------------------------------- parity with the NodeSet audit

def _crossing_first_witness(j_hat, f_res, links, core_masks):
    """A laminar witness selection that prefers, for each link, candidates
    crossing some core: the choice that makes |L*| > 0, where the solver's
    smallest-first search seldom does. None when no laminar selection
    exists."""
    full = (1 << f_res.n) - 1
    candidates = []
    for lid in j_hat:
        cand = [
            m for m in f_res.masks
            if [j for j in j_hat if covers(links[j], NodeSet(m, f_res.n))] == [lid]
        ]
        crossing = {m for m in cand for c in core_masks
                    if m & c and m & ~c and c & ~m and full & ~(m | c)}
        cand.sort(key=lambda m: (m not in crossing, m.bit_count(), m))
        candidates.append(cand)
    chosen = []

    def assign(pos):
        if pos == len(j_hat):
            return True
        for m in candidates[pos]:
            inter = [m & prev for prev in chosen]
            if all(i == 0 or i == m or i == prev for i, prev in zip(inter, chosen)):
                chosen.append(m)
                if assign(pos + 1):
                    return True
                chosen.pop()
        return False

    if not assign(0):
        return None
    return dict(zip(j_hat, chosen))


def _assert_same_audit(phase, f_res, witness, links, core_family):
    got = crossing_density_audit(phase, f_res, witness, links, core_family)
    assert got == reference.crossing_density_audit(phase, f_res, witness, links, core_family)
    return got


#: hand-picked witness maps over arbitrary families that the random draws
#: below seldom reach, as (n, member masks, link ends, link id -> witness
#: mask):
#: - a valid laminar map whose crossing witness 14 = {1,2,3} has no red
#:   node at or below it, so red cover fails;
#: - a valid map where S0 = {1,...,5} crosses the core {5,6} and is not red,
#:   and of its children {1,2} and {4,5} only the first is disjoint from
#:   that core, so the disjoint-child lemma fails on one child of two;
#: - one set claimed by five links that crosses one of the two cores, so
#:   |L*| = 5 > 2 * 2.
_HAND_AUDITS = (
    (6, (8, 10, 14, 15, 18, 32, 33, 43, 46, 56, 59), ((0, 5), (2, 1), (0, 2)),
     {0: 15, 1: 10, 2: 14}),
    (8, (0b00111110, 0b00000110, 0b00110000, 0b01100000, 0b11000101),
     ((3, 0), (1, 3), (4, 3)), {0: 0b00111110, 1: 0b00000110, 2: 0b00110000}),
    (4, (0b0011, 0b0110), ((0, 1),) * 5, dict.fromkeys(range(5), 0b0011)),
)


def test_mask_audit_matches_reference():
    """The mask audit against the NodeSet audit in tests/reference.py: on
    every solve phase of seeded instances with crossing-first witnesses,
    which reach |L*| > 0; on hand-picked witness maps; and on seeded
    arbitrary families with drawn witness maps, valid or not. Every
    verdict of the report takes both values."""
    rng = random.Random(71)
    small_cut = []
    for _ in range(40):
        inst = random_instance(rng, rng.randint(4, 7), rng.randint(2, 7))
        f = enumerate_small_cuts(inst.graph, inst.threshold)
        result = solve(inst.links, f)
        picked = []
        for pt in result.trace:
            f_res = residual(f, [inst.links[i] for i in picked])
            core_family = cores(f_res)
            j_hat = sorted(reverse_delete(result.solution, core_family,
                                          crossing_table(core_family, inst.links)))
            witness = _crossing_first_witness(j_hat, f_res, inst.links, core_family.masks)
            if witness is not None:
                small_cut.append(_assert_same_audit(pt.phase, f_res, witness, inst.links,
                                                    core_family))
            picked.extend(pt.tight_link_ids)
    assert len(small_cut) > 100 and all(r.passed for r in small_cut)
    assert any(r.lstar_size > 0 for r in small_cut)

    hand = []
    for n, masks, ends, witness in _HAND_AUDITS:
        f = SetFamily(n, masks)
        hand.append(_assert_same_audit(0, f, witness, _links(*ends), cores(f)))
    assert hand[0].witness_valid and not hand[0].red_cover_ok
    assert hand[1].witness_valid and hand[1].red_cover_ok and not hand[1].disjoint_child_ok
    assert not hand[2].density_bound_ok

    drawn = []
    for _ in range(600):
        n = rng.randint(3, 6)
        full = (1 << n) - 1
        f = SetFamily(n, rng.sample(range(1, full), rng.randint(1, min(10, full - 1))))
        links = _links(*(rng.sample(range(n), 2) for _ in range(rng.randint(1, 4))))
        j_hat = sorted(rng.sample(range(len(links)), rng.randint(1, len(links))))
        witness = {}
        for lid in j_hat:
            own = [m for m in f.masks
                   if [j for j in j_hat if covers(links[j], NodeSet(m, n))] == [lid]]
            roll = rng.random()
            if own and roll < 0.8:
                witness[lid] = rng.choice(own)
            elif roll < 0.9:
                witness[lid] = rng.choice(f.masks)
            else:
                witness[lid] = rng.randrange(1, full)
        drawn.append(_assert_same_audit(0, f, witness, links, cores(f)))
    # the tree lemmas are evaluated on a valid map with |L*| > 0
    assert sum(1 for r in drawn if r.witness_valid and r.sparse_crossing_ok and r.lstar_size) > 20

    reports = small_cut + hand + drawn
    flags = ("witness_valid", "sparse_crossing_ok", "density_bound_ok", "red_cover_ok",
             "empty_remainder_ok", "disjoint_child_ok", "passed")
    for flag in flags:
        assert {getattr(r, flag) for r in reports} == {True, False}, flag
