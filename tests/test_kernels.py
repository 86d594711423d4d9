"""Each mask kernel against a brute-force definition on seeded random families.

The definitions work on frozensets of elements rather than on bit masks, and
scan in ascending mask order, so they also fix which violation comes first.
"""

from __future__ import annotations

import ast
import inspect
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from cutcover import (
    CapGraph,
    Link,
    NodeSet,
    PropertyReport,
    SearchBudgetExceeded,
    SetFamily,
    check_gamma,
    check_gamma_star,
    check_sparse_crossing,
    check_structural_submodularity,
    enumerate_small_cuts,
    kernels,
    residual,
)
from cutcover.family import crossing_table
from cutcover.kernels import LANE_MASKS
from conftest import child_env, distinct_cut_values, random_graph
from reference import covers, cut_capacity, link_components


def elems(mask):
    return frozenset(v for v in range(mask.bit_length()) if (mask >> v) & 1)


def crosses_def(a, b, ground):
    return bool(a & b) and bool(a - b) and bool(b - a) and bool(ground - (a | b))


def minimal_def(masks):
    sets = [elems(m) for m in masks]
    return [not any(o < s for o in sets) for s in sets]


def pliable_def(masks, members=None):
    family = {elems(m) for m in (masks if members is None else members)}
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            sa, sb = elems(a), elems(b)
            corners = (sa & sb, sa | sb, sa - sb, sb - sa)
            if sum(1 for c in corners if c in family) < 2:
                return a, b
    return None


def structsub_def(masks, n, members=None):
    family = {elems(m) for m in (masks if members is None else members)}
    ground = frozenset(range(n))
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            sa, sb = elems(a), elems(b)
            if not crosses_def(sa, sb, ground):
                continue
            if not (((sa & sb) in family or (sa | sb) in family)
                    and ((sa - sb) in family or (sb - sa) in family)):
                return a, b
    return None


def sparse_crossing_def(masks, n):
    ground = frozenset(range(n))
    core_masks = [m for m, keep in zip(masks, minimal_def(masks)) if keep]
    for s in masks:
        crossed = [c for c in core_masks if crosses_def(elems(s), elems(c), ground)]
        if len(crossed) >= 2:
            return s, crossed[0], crossed[1]
    return None


def gamma_star_def(masks, n, budget, kmax):
    """Every configuration (core C, member S0 crossing C, disjoint proper
    subsets of S0 crossing C), in the order of the kernel's depth-first
    search: cores and enclosing sets ascending, subset selections as index
    tuples in lexicographic order, a prefix before its extensions."""
    ground = frozenset(range(n))
    family = {elems(m) for m in masks}
    tuples = 0
    max_k = 0
    for c, keep in zip(masks, minimal_def(masks)):
        if not keep:
            continue
        sc = elems(c)
        crossers = [s for s in masks if crosses_def(elems(s), sc, ground)]
        for s0 in crossers:
            s0_set = elems(s0)
            cand = [t for t in crossers if elems(t) < s0_set]
            sizes = range(1, (kmax or len(cand)) + 1)
            selections = sorted(
                sel
                for k in sizes
                for sel in combinations(range(len(cand)), k)
                if all(not elems(cand[i]) & elems(cand[j]) for i, j in combinations(sel, 2))
            )
            for sel in selections:
                chosen = tuple(cand[i] for i in sel)
                tuples += 1
                max_k = max(max_k, len(sel))
                rem = s0_set - sc - frozenset().union(*map(elems, chosen))
                if rem and rem not in family:
                    return False, (c, s0, chosen), tuples, max_k
                if tuples > budget:
                    return False, None, tuples, max_k
    return True, None, tuples, max_k


def random_family(rng, max_n=10, max_members=40):
    """Masks of a seeded random family: uniform random members, or a
    small-cut family (which holds every property) cut down by a residual
    and then perturbed by dropping members, so that both verdicts occur."""
    n = rng.randint(3, max_n - 1)
    full = (1 << n) - 1
    if rng.random() < 0.5:
        masks = {rng.randint(1, full - 1) for _ in range(rng.randint(1, max_members))}
    else:
        edges = tuple(
            (u, v, rng.randint(0, 4))
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        f = enumerate_small_cuts(CapGraph(n, edges), rng.randint(1, 6))
        links = []
        for k in range(rng.randint(0, 2)):
            a, b = rng.sample(range(n), 2)
            links.append(Link(a, b, 1, k))
        masks = set(residual(f, links).masks)
        for _ in range(rng.choice((0, 0, 1, 2))):
            if masks:
                masks.discard(rng.choice(sorted(masks)))
        while len(masks) > max_members:
            masks.discard(rng.choice(sorted(masks)))
    return tuple(sorted(masks)), n


def planted_gamma_family(rng):
    """At most 12 members on n = 8 around a planted configuration: the core
    C = {0,1,2}, S0 = {0,1,3,4,5} crossing it, three random proper subsets
    of S0 crossing C, and the non-empty subsets of S0 - C, which are what
    removing those can leave over; dropping one of them may plant a
    violation."""
    c, s0 = 0b111, 0b111011
    leftovers = [y << 3 for y in range(1, 8)]
    cand = rng.sample([(1 << a) | (y << 3) for a in (0, 1) for y in range(1, 8)], 3)
    if rng.random() < 0.5:
        leftovers.remove(rng.choice(leftovers))
    return tuple(sorted({c, s0, *cand, *leftovers})), 8


def pair_kinds(masks, n):
    """The kinds of pair the pair scans treat apart: nested and disjoint
    pairs, which they skip, overlapping pairs whose union is the ground set,
    which cross nothing, and crossing pairs."""
    ground = frozenset(range(n))
    kinds = set()
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            sa, sb = elems(a), elems(b)
            if sa < sb:
                kinds.add("nested")
            elif not sa & sb:
                kinds.add("disjoint")
            elif sa | sb == ground:
                kinds.add("union is ground")
            else:
                kinds.add("crossing")
    return kinds


@pytest.mark.parametrize("seed", range(5))
def test_family_scan_parity(seed):
    rng = random.Random(seed)
    verdicts = set()
    kinds = set()
    for _ in range(60):
        masks, n = random_family(rng)
        if not masks:
            continue
        full = (1 << n) - 1
        members = frozenset(masks)
        cores = kernels.minimal_indices((1 << len(masks)) - 1, masks, kernels.node_bits(masks, n))
        assert cores == [i for i, keep in enumerate(minimal_def(masks)) if keep]
        sparse = check_sparse_crossing(SetFamily(n, masks)).counterexample
        found = (
            kernels.pliable_violation(masks, members),
            kernels.structsub_violation(masks, members, full),
            sparse and tuple(s.bits for s in sparse),
        )
        assert found == (pliable_def(masks), structsub_def(masks, n), sparse_crossing_def(masks, n))
        verdicts.update((k, v is None) for k, v in enumerate(found))
        kinds |= pair_kinds(masks, n)
    # every scan both passed and failed on some family of this seed
    assert verdicts == {(k, ok) for k in range(3) for ok in (True, False)}
    # and met every kind of pair the scans skip or test
    assert kinds == {"nested", "disjoint", "union is ground", "crossing"}


def lane_scan_lists(rng):
    """(masks, members, n) scan lists at n 2-9 on both sides of
    `LANE_MASKS`: uniform random asymmetric families, and small-cut
    families (symmetric), each whole, with a complement pair dropped (still
    symmetric) or with one member dropped (asymmetric), of at most 64
    members so the definitions stay quick. A symmetric family
    gives its full list and its half list, the members without node n-1."""
    n = rng.randint(2, 9)
    full = (1 << n) - 1
    if full < 3:
        return
    size = rng.choice((rng.randint(1, LANE_MASKS - 1), rng.randint(LANE_MASKS, 64)))
    masks = {rng.randint(1, full - 1) for _ in range(size)}
    yield sorted(masks), frozenset(masks), n
    g = random_graph(rng, n, rng.uniform(0.3, 0.9))
    fams = [enumerate_small_cuts(g, v).masks for v in distinct_cut_values(g)]
    masks = set(rng.choice([m for m in fams if len(m) <= 64] or [()]))
    if not masks:
        return
    drop = rng.choice(sorted(masks))
    for members, symmetric in ((masks, True), (masks - {drop, full ^ drop}, True),
                               (masks - {drop}, False)):
        if not members:
            continue
        yield sorted(members), frozenset(members), n
        if symmetric:
            half = sorted(m for m in members if m < 1 << (n - 1))
            yield half, frozenset(members), n


@pytest.mark.parametrize("seed", range(4))
def test_pair_lanes_parity(seed, monkeypatch):
    """The pair scans' lane path, their loop and the brute-force
    definitions name the same first violation, or none, on full and half
    scan lists; the lanes are forced below `LANE_MASKS` and the loop
    above it by moving the gate."""
    rng = random.Random(seed)
    verdicts = set()
    kinds = set()
    sizes = set()
    for _ in range(30):
        for masks, members, n in lane_scan_lists(rng):
            masks = tuple(masks)
            full = (1 << n) - 1
            expect = (pliable_def(masks, members), structsub_def(masks, n, members))
            scans = [(kernels.pliable_violation(masks, members),
                      kernels.structsub_violation(masks, members, full))]
            for gate in (len(masks) + 1, 0):
                monkeypatch.setattr(kernels, "LANE_MASKS", gate)
                scans.append((kernels.pliable_violation(masks, members),
                              kernels.structsub_violation(masks, members, full)))
            monkeypatch.undo()
            assert scans == [expect] * 3, (masks, n)
            lanes = len(masks) >= LANE_MASKS and masks[-1] < 256
            sizes.add(lanes)
            if lanes:
                verdicts.update((k, v is None) for k, v in enumerate(expect))
                kinds |= pair_kinds(masks, n)
    # lists on both sides of the gate, and on the lane path both verdicts of
    # both scans and every kind of pair
    assert sizes == {True, False}
    assert verdicts == {(k, ok) for k in range(2) for ok in (True, False)}
    assert kinds == {"nested", "disjoint", "union is ground", "crossing"}


def lane_calls(monkeypatch):
    """A list that gains the mask count each time a pair scan takes its
    lanes."""
    calls = []
    lane_corners = kernels._lane_corners

    def counted(masks, members, full):
        calls.append(len(masks))
        return lane_corners(masks, members, full)

    monkeypatch.setattr(kernels, "_lane_corners", counted)
    return calls


def test_pair_lanes_half_list_below_node_8(monkeypatch):
    """The half list of a symmetric family at n = 9 whose top mask is 255:
    full = 511 fits no byte, so a pair whose union is 255 = V - {8} still
    crosses. With {0..3} and {5,6,7} missing, ({0..4}, {4..7}) lacks both
    differences and is the first violation of structural submodularity."""
    half = tuple(m for m in range(1, 256) if m not in (0b1111, 0b11100000))
    members = frozenset(half) | {511 ^ m for m in half}
    calls = lane_calls(monkeypatch)
    got = kernels.structsub_violation(half, members, 511)
    assert got == (0b11111, 0b11110000) == structsub_def(half, 9, members)
    assert got[0] | got[1] == 255
    assert kernels.pliable_violation(half, members) == pliable_def(half, members)
    assert calls == [len(half)] * 2
    f = SetFamily(9, members)
    assert check_structural_submodularity(f) == PropertyReport(
        "structural_submodularity", False, (NodeSet(0b11111, 9), NodeSet(0b11110000, 9)))


def test_pair_lanes_union_is_ground(monkeypatch):
    """The same masks, less 255, as an asymmetric family at n = 8: a pair
    whose union is 255 is now the ground set. Pliability counts it, and its first
    violation ({0..4}, {0..3,5,6,7}) has one corner, {4}; structural
    submodularity skips it and holds."""
    masks = tuple(m for m in range(1, 255) if m not in (0b1111, 0b11100000))
    members = frozenset(masks)
    calls = lane_calls(monkeypatch)
    got = kernels.pliable_violation(masks, members)
    assert got == (0b11111, 0b11101111) == pliable_def(masks, members)
    assert got[0] | got[1] == 255
    assert kernels.structsub_violation(masks, members, 255) is None
    assert structsub_def(masks, 8, members) is None
    assert calls == [len(masks)] * 2


def test_pair_lanes_gate(monkeypatch):
    """The lanes take scan lists of at least `LANE_MASKS` masks that all
    fit a byte: one mask fewer, or a top mask of 256, takes the loop."""
    rng = random.Random(7)
    calls = lane_calls(monkeypatch)
    for top, size, lanes in ((255, LANE_MASKS - 1, False), (255, LANE_MASKS, True),
                             (256, LANE_MASKS, False), (256, 40, False)):
        for _ in range(10):
            masks = tuple(sorted(rng.sample(range(1, top), size - 1))) + (top,)
            members = frozenset(masks)
            calls.clear()
            assert kernels.pliable_violation(masks, members) == pliable_def(masks)
            assert kernels.structsub_violation(masks, members, 511) == structsub_def(masks, 9)
            assert calls == ([size] * 2 if lanes else [])


@pytest.mark.parametrize("kmax", [0, 1])
def test_gamma_scan_parity(kmax):
    rng = random.Random(11)
    outcomes = set()
    deepest = 0
    for trial in range(200):
        if trial % 2:
            masks, n = planted_gamma_family(rng)
        else:
            masks, n = random_family(rng, max_n=8, max_members=12)
        if not masks:
            continue
        budget = 10**6
        tested = gamma_star_def(masks, n, budget, kmax)[2]
        if trial % 3 == 0 and tested > 1:
            # a budget that runs out before the search ends
            budget = rng.randrange(tested - 1)
        cores = [m for m, keep in zip(masks, minimal_def(masks)) if keep]
        nodes = kernels.node_bits(masks, n)
        enclosures = kernels.bit_enclosures(masks, cores, kernels.crossing_bits(cores, nodes), nodes)
        got = kernels.gamma_star_exhaustive(enclosures, frozenset(masks), budget, kmax)
        assert got == gamma_star_def(masks, n, budget, kmax)
        completed, witness, tuples, max_k = got
        outcomes.add("holds" if completed else "violated" if witness else "budget")
        if not completed and witness is None:
            assert tuples == budget + 1
        deepest = max(deepest, max_k)
    assert outcomes == {"holds", "violated", "budget"}
    assert deepest >= 2 if kmax == 0 else deepest == 1


def bit_path_families(rng):
    """Masks of families from one seeded small-cut family at n 6-9 with 8
    to 150 members: the family, a residual of it, copies cut down to 4 and
    16 members, a copy with a few members dropped, and a copy missing the
    leftover of one one-subset remainder configuration, which plants a
    violation."""
    while True:
        n = rng.randint(6, 9)
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        fams = [enumerate_small_cuts(g, v) for v in distinct_cut_values(g)]
        fams = [f for f in fams if 8 <= len(f) <= 150]
        if fams:
            break
    f = rng.choice(fams)
    a, b = rng.sample(range(n), 2)
    masks = list(f.masks)
    yield masks, n
    yield residual(f, [Link(a, b, 1, 0)]).masks, n
    for size in (4, 16):
        if len(masks) >= size:
            yield sorted(rng.sample(masks, size)), n
    dropped = set(masks)
    for _ in range(rng.randint(1, 3)):
        dropped.discard(rng.choice(masks))
    yield sorted(dropped), n
    ground = frozenset(range(n))
    cores = [m for m, keep in zip(masks, minimal_def(masks)) if keep]
    leftovers = set()
    for c in cores:
        crossers = [s for s in masks if crosses_def(elems(s), elems(c), ground)]
        for s0 in crossers:
            for t in crossers:
                if elems(t) < elems(s0) and s0 & ~(t | c):
                    leftovers.add(s0 & ~(t | c))
    leftovers &= set(masks)
    if leftovers:
        yield sorted(set(masks) - {rng.choice(sorted(leftovers))}), n


def padded_remainder_family(rng, drop):
    """A family on n = 10 whose remainder configurations are all around
    the core C = {4..7}: S0 = {0..5} and the eight sets {x, c}, x < 4 <= c
    <= 5, cross it, and every non-empty subset of {0..3} is a member, so
    the 20 configurations (up to two disjoint subsets) all hold unless
    drop removes one of the two- and three-element ones they leave. Ten
    random supersets of C pad it without adding a configuration: they are
    not minimal and cross no core, as the other cores are singletons."""
    c = 0b11110000
    masks = {c, 0b111111}
    masks |= {(1 << x) | (1 << y) for x in range(4) for y in (4, 5)}
    leftovers = set(range(1, 16))
    if drop:
        leftovers.discard(rng.choice([y for y in sorted(leftovers) if y.bit_count() in (2, 3)]))
    padding = [c | y for y in range(1, 1 << 10) if not y & c and (c | y) != (1 << 10) - 1]
    return sorted(masks | leftovers | set(rng.sample(padding, 10))), 10


def expected_remainder_report(masks, n, budget, kmax):
    """The report `gamma_star_def` implies, or None when the budget runs
    out before a verdict."""
    completed, witness, tuples, max_k = gamma_star_def(masks, n, budget, kmax)
    name = "gamma" if kmax == 1 else "gamma_star"
    if witness is not None:
        c, s0, chosen = witness
        sets = tuple(NodeSet(m, n) for m in (c, s0) + chosen)
        return PropertyReport(name, False, sets, tuples, max_k, False)
    if completed:
        return PropertyReport(name, True, None, tuples, max_k, True)
    return None


def enclosures_def(masks, n):
    """The (C, S0, candidates) of the remainder search, by the definitions:
    for each core C and each member S0 crossing C, both ascending, the
    members crossing C that are proper subsets of S0; an S0 without any is
    left out."""
    ground = frozenset(range(n))
    found = []
    for c, keep in zip(masks, minimal_def(masks)):
        if keep:
            crossers = [s for s in masks if crosses_def(elems(s), elems(c), ground)]
            for s0 in crossers:
                cand = [t for t in crossers if elems(t) < elems(s0)]
                if cand:
                    found.append((c, s0, cand))
    return found


@pytest.mark.parametrize("seed", range(4))
def test_checkers_bit_path_parity(seed):
    """The sparse-crossing and remainder checkers against the brute-force
    definitions, with budgets that hold, find a violation and run out, on
    each family both standalone and as a view of the crossing table of
    every non-trivial set at its n, whose members outside the view include
    every proper subset of its cores. `crossing_bits` and
    `bit_enclosures` give the definition's crossers and enclosures on each
    family."""
    rng = random.Random(seed)
    outcomes = set()
    families = [fam for _ in range(12) for fam in bit_path_families(rng)]
    families += [padded_remainder_family(rng, drop) for drop in (False, True)]
    tables = {}
    for masks, n in families:
        masks = tuple(masks)
        if n not in tables:
            tables[n] = crossing_table(SetFamily(n, range(1, (1 << n) - 1)), [])
        # the masks of the table's family are 1, 2, ..., so mask m is bit m - 1
        kinds = (("standalone", SetFamily(n, masks)),
                 ("view", tables[n].subfamily(sum(1 << (m - 1) for m in masks))))
        cores = [m for m, keep in zip(masks, minimal_def(masks)) if keep]
        nodes = kernels.node_bits(masks, n)
        crossing = kernels.crossing_bits(cores, nodes)
        ground = frozenset(range(n))
        assert crossing == [sum(1 << i for i, s in enumerate(masks)
                                if crosses_def(elems(s), elems(c), ground)) for c in cores]
        assert list(kernels.bit_enclosures(masks, cores, crossing, nodes)) == enclosures_def(
            masks, n)
        triple = sparse_crossing_def(masks, n)
        for kind, f in kinds:
            assert f.masks == masks
            assert check_sparse_crossing(f) == (
                PropertyReport("sparse_crossing", True) if triple is None else
                PropertyReport("sparse_crossing", False, tuple(NodeSet(m, n) for m in triple)))
            outcomes.add((kind, "sparse", triple is None))
        for kmax, check in ((0, check_gamma_star), (1, check_gamma)):
            tested = gamma_star_def(masks, n, 10**6, kmax)[2]
            for budget in [10**6] + ([rng.randrange(tested - 1)] if tested > 1 else []):
                expect = expected_remainder_report(masks, n, budget, kmax)
                for kind, f in kinds:
                    if expect is None:
                        with pytest.raises(SearchBudgetExceeded, match=f"exceeded {budget} "):
                            check(f, budget=budget)
                        outcomes.add((kind, "remainder", "budget"))
                    else:
                        assert check(f, budget=budget) == expect
                        outcomes.add((kind, "remainder", "holds" if expect.holds else "violated"))
    # every outcome occurs on both kinds of family
    assert outcomes == {(kind, "sparse", ok) for kind in ("standalone", "view")
                        for ok in (True, False)} | {
        (kind, "remainder", o) for kind in ("standalone", "view")
        for o in ("holds", "violated", "budget")}


def test_cut_kernel_parity():
    rng = random.Random(3)
    for trial in range(50):
        n = rng.randint(2, 11)
        # every tenth graph has weights far beyond a 64-bit word
        scale = 1 << 70 if trial % 10 == 0 else 1
        edges = []
        for _ in range(rng.randint(0, 19)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v, rng.randint(0, 9) * scale))
        graph = CapGraph(n, tuple(edges))
        vals = kernels.cut_values(n, edges)
        assert vals == [cut_capacity(graph, NodeSet(m, n)) for m in range(1 << (n - 1))]


def test_cover_bits_parity():
    rng = random.Random(29)
    rows_seen = set()
    ends_seen = set()
    for _ in range(300):
        n = rng.randint(1, 12)
        links = []
        for k in range(rng.randint(0, 2 * n) if n > 1 else 0):
            if links and rng.random() < 0.2:
                # a parallel link, sometimes with its ends swapped
                twin = rng.choice(links)
                a, b = (twin.a, twin.b) if rng.random() < 0.5 else (twin.b, twin.a)
                ends_seen.add("parallel")
            else:
                a, b = rng.sample(range(n), 2)
            links.append(Link(a, b, 1, k))
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(1, 20))]
        rows = kernels.cover_bits(masks, [(l.a, l.b) for l in links], n)
        for m, row in zip(masks, rows):
            s = NodeSet(m, n)
            assert row == sum(1 << k for k, l in enumerate(links) if covers(l, s))
            rows_seen.add("zero" if not row else "single" if row.bit_count() == 1 else "multi")
            for l in links:
                ends_seen.add({0: "neither inside", 1: "one inside", 2: "both inside"}[
                    (l.a in s) + (l.b in s)])
    assert rows_seen == {"zero", "single", "multi"}
    assert ends_seen == {"parallel", "neither inside", "one inside", "both inside"}
    for ends in ([(0, 4)], [(4, 0)], [(0, 1), (2, 4)]):
        with pytest.raises(ValueError, match="outside ground set"):
            kernels.cover_bits([1], ends, 4)


@pytest.mark.parametrize("n", [*range(13), 19, 20, 40])
def test_cover_bits_every_split(n):
    """Rows against the definition at every n up to 12 and at n = 19 and
    20, so the low and high tables are both of equal and of unequal size.
    Tables span at most as many nodes as the mask count has bits: 62
    masks allow 6 nodes, so from n = 13 chunks are peeled off the top,
    and 5 masks allow 3, so they are from n = 7. The masks include the
    empty set and the ground set, which no link crosses."""
    rng = random.Random(41 + n)
    ends = [tuple(rng.sample(range(n), 2)) for _ in range(2 * n)] if n > 1 else []
    ends += ends[:3]  # parallel links
    masks = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(60)]
    links = [Link(a, b, 1, k) for k, (a, b) in enumerate(ends)]
    for few in (True, False):
        some = masks[:5] if few else masks
        rows = kernels.cover_bits(some, ends, n)
        for m, row in zip(some, rows):
            assert row == sum(1 << k for k, l in enumerate(links) if covers(l, NodeSet(m, n)))
        assert rows[0] == rows[1] == 0
    assert n < 6 or len(set(rows)) > 10


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 17, 20, 64, 65, 70])
def test_node_bits_match_membership(n):
    """nodes[v] against membership, member by member, at ground-set sizes
    on both sides of each byte boundary and past 64 nodes, where the masks
    are packed one byte string at a time; on the empty family every node
    reads 0."""
    rng = random.Random(83 + n)
    assert kernels.node_bits((), n) == [0] * n
    full = (1 << n) - 1
    masks = sorted({0, full} | {rng.randrange(1 << n) for _ in range(150)})
    nodes = kernels.node_bits(masks, n)
    assert nodes == [sum(1 << i for i, m in enumerate(masks) if v in elems(m))
                     for v in range(n)]
    assert all(node.bit_length() <= len(masks) for node in nodes)


@pytest.mark.parametrize("seed", range(3))
def test_minimal_indices_match_minimal_flags(seed):
    """The bit-loop cores of a member set against the definition's flags on
    the members it holds: of the whole family, and of random subsets of it,
    as the solver's residuals and the exact search's uncovered members
    are."""
    rng = random.Random(seed)
    counts = set()
    for _ in range(80):
        masks, n = random_family(rng, max_n=11, max_members=120)
        masks = sorted(masks)
        nodes = kernels.node_bits(masks, n)
        for live in ((1 << len(masks)) - 1, rng.getrandbits(len(masks)), 0):
            held = [i for i in range(len(masks)) if (live >> i) & 1]
            flags = minimal_def([masks[i] for i in held])
            expect = [i for i, keep in zip(held, flags) if keep]
            assert kernels.minimal_indices(live, masks, nodes) == expect
            counts.add(min(len(expect), 3))
    assert counts == {0, 1, 2, 3}


def test_components_match_bfs():
    rng = random.Random(31)
    counts = set()
    for _ in range(200):
        n = rng.randint(0, 12)
        ends = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))] if n > 1 else []
        ends += rng.sample(ends, min(len(ends), rng.randint(0, 2)))  # parallel links
        comps = kernels.components(ends, n)
        assert [elems(m) for m in comps] == link_components(ends, n)
        counts.add(min(len(comps), 3) if n else "empty")
    assert counts == {"empty", 1, 2, 3}


def test_import_leaves_numpy_unloaded():
    """Importing the package and its command line, as the benchmark's
    workloads do, loads neither numpy/numba nor any process-pool machinery."""
    unloaded = ("numpy", "numba", "multiprocessing", "concurrent.futures")
    code = f"import sys, cutcover, cutcover.cli; print(*(m in sys.modules for m in {unloaded}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=child_env())
    assert out.stdout.split() == ["False"] * len(unloaded)


def test_every_kernel_has_a_src_caller():
    """Every public function of `kernels` is used as `kernels.<name>` in
    another module of the package, so none is kept for the tests alone."""
    used = set()
    for path in Path(kernels.__file__).parent.glob("*.py"):
        if path.name != "kernels.py":
            used.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "kernels")
    public = {name for name, obj in vars(kernels).items()
              if inspect.isfunction(obj) and obj.__module__ == kernels.__name__
              and not name.startswith("_")}
    assert public and public <= used, sorted(public - used)
