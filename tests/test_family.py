"""Set-family store, residuals, cores, and the property checkers."""

from __future__ import annotations

import hashlib
import random
import tracemalloc

import pytest

from cutcover import (
    Link,
    NodeSet,
    PropertyReport,
    RunConfig,
    SearchBudgetExceeded,
    SetFamily,
    check_disjoint_cores,
    check_gamma,
    check_gamma_star,
    check_pliable,
    check_sparse_crossing,
    check_structural_submodularity,
    check_symmetry,
    dual_feasible,
    enumerate_small_cuts,
    kernels,
    residual,
    solve,
)
from cutcover.family import all_covered, crossing_table
from cutcover.gen import generate
from conftest import cycle, distinct_cut_values, fam, family_audit, mask, ns, random_graph
from reference import cores, covers, crosses, delta_links, link_components


def _links(*pairs):
    return [Link(a, b, 1, i) for i, (a, b) in enumerate(pairs)]


ARCS4 = enumerate_small_cuts(cycle(4), 3)


# ---------------------------------------------------------------- SetFamily

def test_family_rejects_trivial_members():
    with pytest.raises(ValueError):
        SetFamily(3, [0])
    with pytest.raises(ValueError):
        SetFamily(3, [0b111])
    with pytest.raises(ValueError):
        SetFamily(3, [0b1000])
    with pytest.raises(ValueError, match="n must be non-negative, got -1"):
        SetFamily(-1, [])


def test_family_dedupes_and_sorts():
    f = SetFamily(3, [0b011, mask(0, 1), 0b100])
    assert f.masks == (0b011, 0b100)
    assert len(f) == 2
    assert f.contains_mask(0b100) and f.contains_mask(0b011) and not f.contains_mask(0b001)
    with pytest.raises(TypeError):
        0b011 in f


# ---------------------------------------------------------------- residual

def test_residual_empty_cover_is_identity():
    assert residual(ARCS4, []) == ARCS4


def test_residual_two_element_ground_set():
    f = fam(2, (0,), (1,))
    assert len(residual(f, _links((0, 1)))) == 0


def test_residual_four_cycle_diagonal_link():
    # the arcs containing both or neither endpoint of (0, 2) survive
    left = residual(ARCS4, _links((0, 2)))
    assert set(left.masks) == {m for m in ARCS4.masks if ((m >> 0) & 1) == ((m >> 2) & 1)}
    assert set(left.masks) == {mask(1), mask(3), mask(0, 1, 2), mask(0, 2, 3)}


def test_residual_brute_force(rng):
    for _ in range(20):
        g = random_graph(rng, 6, 0.5)
        f = enumerate_small_cuts(g, 4)
        pairs = [(rng.randrange(6), rng.randrange(6)) for _ in range(rng.randint(0, 4))]
        links = _links(*(p for p in pairs if p[0] != p[1]))
        expect = {m for m in f.masks if not delta_links(NodeSet(m, 6), links)}
        assert set(residual(f, links).masks) == expect


def test_residual_monotone(rng):
    for _ in range(10):
        g = random_graph(rng, 6, 0.5)
        f = enumerate_small_cuts(g, 4)
        pairs = [(rng.randrange(6), (rng.randrange(5) + 1 + rng.randrange(6)) % 6) for _ in range(5)]
        pairs = [p for p in pairs if p[0] != p[1]]
        small = _links(*pairs[:2])
        big = _links(*pairs)
        assert set(residual(f, big).masks) <= set(residual(f, small).masks)


def test_all_covered_matches_definition():
    """all_covered against `covers` on both of its branches: the test of
    the link graph's component unions, taken when the family has members
    and 2**(c-1) is at most the member count, and the member scan.
    Families are symmetric and asymmetric, links parallel or absent."""
    rng = random.Random(43)
    seen = set()
    for trial in range(400):
        n = rng.randint(2, 8)
        full = (1 << n) - 1
        masks = rng.sample(range(1, full), rng.randint(1, min(full - 1, rng.choice((40, 120)))))
        symmetric = trial % 2
        if symmetric:
            masks += [full ^ m for m in masks]
        f = SetFamily(n, masks)
        ends = [tuple(rng.sample(range(n), 2))
                for _ in range(rng.choice([0, rng.randint(1, n), rng.randint(n, 2 * n)]))]
        ends += rng.sample(ends, min(len(ends), rng.randint(0, 2)))  # parallel links
        links = [Link(a, b, 1, k) for k, (a, b) in enumerate(ends)]
        expect = all(any(covers(link, NodeSet(m, n)) for link in links) for m in f.masks)
        assert all_covered(f, ends) == expect
        unions = 1 << (len(link_components(ends, n)) - 1) <= len(f)
        seen |= {(unions, "holds", expect), (unions, "links", bool(ends)),
                 (unions, "symmetric", symmetric)}
    assert seen == {(u, k, v) for u in (False, True) for k in ("holds", "links", "symmetric")
                    for v in (False, True)}
    for n in range(3):
        assert all_covered(SetFamily(n, ()), [])
    assert all_covered(SetFamily(2, ()), [(0, 1)])


def test_all_covered_builds_no_large_union_list():
    """The 2**(c-1) guard keeps all_covered off the union test when the
    link graph has many components: n = 20 with the family {{0}, V - {0}}
    and 20 parallel copies of link (0, 1) leave c = 19, whose 2**19 unions
    would take tens of MB, while the member scan builds no list."""
    n = 20
    f = SetFamily(n, [1, ((1 << n) - 1) ^ 1])
    tracemalloc.start()
    try:
        assert all_covered(f, [(0, 1)] * 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_crossing_table_index():
    """crossing_table's nodes and columns against membership and endpoint
    parity, and its conversions from member bits: `members` gives masks
    in ascending order, and `subfamily` a view that carries its bits. The
    links include parallel ones, as given and with their ends swapped,
    links with both ends inside a member, and links that cross no
    member."""
    rng = random.Random(89)
    kinds = set()
    for _ in range(120):
        n = rng.randint(2, 9)
        full = (1 << n) - 1
        f = SetFamily(n, rng.sample(range(1, full), rng.randint(0, min(full - 1, 200))))
        pairs = []
        for _ in range(rng.randint(0, 8)):
            if pairs and rng.random() < 0.2:
                a, b = rng.choice(pairs)
                swapped = rng.random() < 0.5
                pairs.append((b, a) if swapped else (a, b))
                kinds.add("parallel, swapped" if swapped else "parallel")
            else:
                pairs.append(tuple(rng.sample(range(n), 2)))
        links = _links(*pairs)
        table = crossing_table(f, links)
        assert table.family is f
        assert table.nodes == [sum(1 << i for i, m in enumerate(f.masks) if (m >> v) & 1)
                               for v in range(n)]
        for k, link in enumerate(links):
            assert table.cols[k] == sum(1 << i for i, m in enumerate(f.masks)
                                        if covers(link, NodeSet(m, n)))
            if not table.cols[k]:
                kinds.add("zero column")
            if any(m >> link.a & m >> link.b & 1 for m in f.masks):
                kinds.add("both ends inside")
        everything = (1 << len(f)) - 1
        for bits in (0, everything, rng.getrandbits(len(f)), 1 << rng.randrange(len(f) or 1)):
            bits &= everything
            expect = [m for i, m in enumerate(f.masks) if (bits >> i) & 1]
            assert table.members(bits) == expect
            sub = table.subfamily(bits)
            assert sub == SetFamily(n, expect)
            assert sub._view == (table, bits) and SetFamily(n, expect)._view is None
    assert kinds == {"parallel", "parallel, swapped", "both ends inside", "zero column"}


@pytest.mark.parametrize("call", [
    lambda f, links: all_covered(f, [(0, 3)]),
    lambda f, links: residual(f, links),
    lambda f, links: dual_feasible(links, f, {}),
    lambda f, links: family_audit(0, f, {0: 0b001}, links, cores(f)),
    lambda f, links: crossing_table(f, links),
], ids=["all_covered", "residual", "dual_feasible", "crossing_density_audit", "crossing_table"])
def test_link_outside_ground_set_refused(call):
    """Every entry that reads link endpoints refuses a link ending at node
    n through the one guard, `kernels.check_ends`."""
    with pytest.raises(ValueError, match=r"^link \(0, 3\) outside ground set \[0, 3\)$"):
        call(fam(3, (0,)), _links((0, 3)))


# ---------------------------------------------------------------- cores

def bit_cores(f):
    """The cores of f as the solver and the exact search take them: the
    bit loop of `kernels.minimal_indices` over all of f's members."""
    live = (1 << len(f)) - 1
    return SetFamily(f.n, [f.masks[i] for i in
                           kernels.minimal_indices(live, f.masks, kernels.node_bits(f.masks, f.n))])


def test_cores_subset_inspection():
    f = fam(3, (0,), (0, 1), (2,))
    assert set(bit_cores(f).masks) == {mask(0), mask(2)}


def test_cores_empty():
    assert len(bit_cores(SetFamily(4, ()))) == 0


def test_cores_four_cycle_singletons():
    assert sorted(m.bit_count() for m in bit_cores(ARCS4).masks) == [1, 1, 1, 1]


def test_cores_brute_force_and_idempotent(rng):
    for _ in range(20):
        n = rng.randint(3, 8)
        members = {rng.randint(1, (1 << n) - 2) for _ in range(rng.randint(1, 25))}
        f = SetFamily(n, members)
        expect = {
            m for m in f.masks
            if not any(o != m and o & ~m == 0 for o in f.masks)
        }
        c = bit_cores(f)
        assert set(c.masks) == expect
        assert bit_cores(c) == c


# ---------------------------------------------------------------- checkers

def test_symmetry_small_cut_family_holds(rng):
    for _ in range(8):
        g = random_graph(rng, 6, 0.5)
        assert check_symmetry(enumerate_small_cuts(g, 3)).holds


def test_symmetry_failure_counterexample():
    rep = check_symmetry(fam(3, (0,)))
    assert not rep.holds and rep.counterexample == (ns(3, 0),)


def test_symmetry_empty_family_vacuous():
    assert check_symmetry(SetFamily(3, ())).holds


def test_pliable_small_cut_family_holds(rng):
    for _ in range(8):
        g = random_graph(rng, 6, 0.5, rational=True)
        assert check_pliable(enumerate_small_cuts(g, 2)).holds


def test_pliable_failure_all_corners_absent():
    rep = check_pliable(fam(4, (0, 1), (1, 2)))
    assert not rep.holds
    assert rep.counterexample == (ns(4, 0, 1), ns(4, 1, 2))


def test_pliable_disjoint_differences_count():
    # differences equal the sets themselves, so the pair contributes two
    assert check_pliable(fam(4, (0,), (1,))).holds


def test_pliable_singleton_family_holds():
    assert check_pliable(fam(3, (0,))).holds


def test_structsub_small_cut_family_holds(rng):
    for _ in range(8):
        g = random_graph(rng, 6, 0.6, rational=True)
        assert check_structural_submodularity(enumerate_small_cuts(g, 3)).holds


def test_structsub_failure_on_crossing_pair():
    rep = check_structural_submodularity(fam(4, (0, 1), (1, 2)))
    assert not rep.holds
    assert rep.counterexample == (ns(4, 0, 1), ns(4, 1, 2))


def test_structsub_no_crossing_pair_vacuous():
    # nested and disjoint pairs are exempt
    assert check_structural_submodularity(fam(4, (0,), (0, 1), (2, 3))).holds


def test_sparse_crossing_small_cut_families(rng):
    for _ in range(8):
        g = random_graph(rng, 7, 0.4)
        assert check_sparse_crossing(enumerate_small_cuts(g, 3)).holds


def test_sparse_crossing_empty():
    assert check_sparse_crossing(SetFamily(5, ())).holds


def test_sparse_crossing_hand_built_failure():
    f = fam(5, (0, 1), (1, 2), (0, 2, 3))
    rep = check_sparse_crossing(f)
    assert not rep.holds
    s, c1, c2 = rep.counterexample
    # replay: both reported minimal sets really cross the reported member
    assert cores(f).contains_mask(c1.bits) and cores(f).contains_mask(c2.bits)
    assert crosses(s, c1) and crosses(s, c2)


def test_disjoint_cores_four_cycle():
    assert check_disjoint_cores(ARCS4).holds


def test_disjoint_cores_failure():
    rep = check_disjoint_cores(fam(4, (0, 1), (1, 2)))
    assert not rep.holds
    a, b = rep.counterexample
    assert a.bits & b.bits


def test_disjoint_cores_single_member():
    assert check_disjoint_cores(fam(4, (0, 1))).holds


# ---------------------------------------------------------------- symmetric half-scan

def _first_sparse_violation(f):
    """The first member of f, ascending, that crosses two cores of f, with
    the first two cores it crosses, or None; by the definitions."""
    core_sets = [NodeSet(c, f.n) for c in cores(f).masks]
    for s in f.masks:
        crossed = [c.bits for c in core_sets if crosses(NodeSet(s, f.n), c)]
        if len(crossed) >= 2:
            return s, crossed[0], crossed[1]
    return None


def _full_scan_reports(f):
    """The pair checkers' reports built from scans over every member of f:
    the pair kernels', and the definitions' sparse-crossing scan."""
    masks, full = f.masks, (1 << f.n) - 1
    members = frozenset(masks)
    found = (
        ("pliable", kernels.pliable_violation(masks, members)),
        ("structural_submodularity", kernels.structsub_violation(masks, members, full)),
        ("sparse_crossing", _first_sparse_violation(f)),
    )
    return tuple(
        PropertyReport(name, True) if hit is None
        else PropertyReport(name, False, tuple(NodeSet(m, f.n) for m in hit))
        for name, hit in found
    )


def test_symmetric_half_scan_matches_full_scan():
    rng = random.Random(7)
    verdicts = set()
    beyond_half = 0
    for trial in range(400):
        n = rng.randint(3, 8)
        full = (1 << n) - 1
        # members without node n-1, each with its complement
        half = rng.sample(range(1, 1 << (n - 1)), rng.randint(1, min(10, (1 << (n - 1)) - 1)))
        masks = {m for h in half for m in (h, full ^ h)}
        symmetric = trial % 4 != 0
        if not symmetric:
            masks.discard(full ^ rng.choice(half))
        f = SetFamily(n, masks)
        assert check_symmetry(f).holds == symmetric
        reports = (check_pliable(f), check_structural_submodularity(f), check_sparse_crossing(f))
        assert reports == _full_scan_reports(f)
        if symmetric:
            verdicts.update((r.name, r.holds) for r in reports)
        else:
            # a counterexample the half-scan could not have reached
            beyond_half += any(
                r.counterexample and r.counterexample[0].bits >> (n - 1) for r in reports
            )
    names = ("pliable", "structural_submodularity", "sparse_crossing")
    assert verdicts == {(name, ok) for name in names for ok in (True, False)}
    assert beyond_half > 0


def test_symmetric_structsub_implies_pliable():
    """In a symmetric family a pair that does not cross has two member
    corners: a nested pair A & B and A | B, a disjoint pair A - B and
    B - A, and a pair whose union is V the complements V - B = A - B and
    V - A = B - A. A crossing pair that keeps a corner on each side, as
    structural submodularity asks, has two as well. So on symmetric
    families structural submodularity implies pliability, and every
    pliable counterexample crosses; without symmetry the implication
    fails."""
    rng = random.Random(29)
    outcomes = set()
    for _ in range(600):
        n = rng.randint(3, 8)
        full = (1 << n) - 1
        # members without node n-1, each with its complement
        half = rng.sample(range(1, 1 << (n - 1)), rng.randint(1, min(10, (1 << (n - 1)) - 1)))
        f = SetFamily(n, {m for h in half for m in (h, full ^ h)})
        pliable, structsub = check_pliable(f), check_structural_submodularity(f)
        outcomes.add((pliable.holds, structsub.holds))
        if not pliable.holds:
            assert crosses(*pliable.counterexample)
    assert outcomes == {(True, True), (True, False), (False, False)}

    broken = 0
    for _ in range(600):
        n = rng.randint(3, 7)
        full = (1 << n) - 1
        f = SetFamily(n, rng.sample(range(1, full), rng.randint(2, min(8, full - 1))))
        broken += (check_structural_submodularity(f).holds
                   and not check_pliable(f).holds)
    assert broken > 0
    # the smallest kind: a nested pair and a third set whose union with the
    # larger is V, with neither complement a member
    f = fam(7, (1, 5), (0, 1, 2, 3, 4, 5), (1, 5, 6))
    assert check_structural_submodularity(f).holds and not check_pliable(f).holds


# ---------------------------------------------------------------- fast paths against brute force

def _parity_families():
    """(complements dropped, family): the empty family at n = 1, 2, 3, then
    seeded symmetric families over n = 2..8 with none, one or two
    complements removed, each from a different complement pair."""
    for n in (1, 2, 3):
        yield 0, SetFamily(n, ())
    rng = random.Random(23)
    for trial in range(600):
        n = rng.randint(2, 8)
        full = (1 << n) - 1
        # members without node n-1, each with its complement
        half = rng.sample(range(1, 1 << (n - 1)), rng.randint(1, min(10, (1 << (n - 1)) - 1)))
        masks = {m for h in half for m in (h, full ^ h)}
        dropped = min(trial % 3, len(half))
        for h in rng.sample(half, dropped):
            masks.discard(rng.choice((h, full ^ h)))
        yield dropped, SetFamily(n, masks)


def test_symmetry_and_disjoint_cores_match_brute_force():
    """check_symmetry scans for the first missing complement and
    check_disjoint_cores tests the cores' union before any pair scan; both
    must report what the definitions report."""
    sizes = set()
    verdicts = set()
    for dropped, f in _parity_families():
        masks, full = f.masks, (1 << f.n) - 1
        missing = [m for m in masks if full ^ m not in masks]
        rep = check_symmetry(f)
        assert rep.holds == (dropped == 0) == (not missing)
        assert rep.counterexample == (None if not missing else (NodeSet(missing[0], f.n),))
        sizes.add((f.n, dropped, len(masks) % 2))

        minimal = [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]
        overlaps = [(a, b) for i, a in enumerate(minimal) for b in minimal[i + 1:] if a & b]
        rep = check_disjoint_cores(f)
        assert rep.holds == (not overlaps)
        assert rep.counterexample == (
            None if not overlaps else tuple(NodeSet(m, f.n) for m in overlaps[0])
        )
        verdicts.add(rep.holds)
    assert verdicts == {True, False}
    # the empty family, n = 1 and n = 2, odd sizes with one complement
    # dropped and even sizes with two
    assert {(1, 0, 0), (2, 0, 0), (2, 1, 1)} <= sizes
    assert {parity for _, dropped, parity in sizes if dropped == 1} == {1}
    assert {parity for _, dropped, parity in sizes if dropped == 2} == {0}


# ---------------------------------------------------------------- gamma checks

def test_gamma_star_empty_and_vacuous():
    rep = check_gamma_star(SetFamily(4, ()))
    assert rep.holds and rep.exhaustive and rep.tuples_tested == 0
    # no core crosses any member: singleton cores cross nothing
    assert check_gamma_star(ARCS4).holds


def test_gamma_failure_and_replay():
    # core {3,4} crosses {0,1,2,3} and its subset {0,3}; remainder {1,2} missing
    f = fam(6, (3, 4), (0, 1, 2, 3), (0, 3))
    rep = check_gamma(f)
    assert not rep.holds
    c, s0, *subs = rep.counterexample
    assert cores(f).contains_mask(c.bits)
    assert crosses(s0, c) and all(crosses(s, c) for s in subs)
    assert all(s.bits & ~s0.bits == 0 and s != s0 for s in subs)
    remainder = s0.bits & ~c.bits
    for s in subs:
        remainder &= ~s.bits
    assert remainder != 0 and not f.contains_mask(remainder)
    # adding the remainder set repairs the property
    assert check_gamma(fam(6, (3, 4), (0, 1, 2, 3), (0, 3), (1, 2))).holds


def test_gamma_star_distinguishes_k_two():
    # gamma (k=1) holds but the pair of disjoint subsets leaves {2} uncovered
    members = [(3, 4, 6), (0, 1, 2, 3, 4), (0, 3), (1, 4), (1, 2), (0, 2)]
    f = fam(7, *members)
    assert check_gamma(f).holds
    rep = check_gamma_star(f)
    assert not rep.holds and rep.max_k == 2
    c, s0, s1, s2 = rep.counterexample
    assert {s1, s2} == {ns(7, 0, 3), ns(7, 1, 4)}
    assert not s1.bits & s2.bits
    # repaired by adding the remainder
    assert check_gamma_star(fam(7, *(members + [(2,)]))).holds


def test_gamma_star_small_cut_residuals(rng):
    # residual families of small-cut families satisfy the remainder property
    for _ in range(10):
        g = random_graph(rng, 6, rng.uniform(0.2, 0.6))
        f = enumerate_small_cuts(g, 4)
        pairs = [(rng.randrange(6), (rng.randrange(5) + 1 + rng.randrange(6)) % 6) for _ in range(3)]
        links = _links(*(p for p in pairs if p[0] != p[1]))
        rep = check_gamma_star(residual(f, links), budget=50_000)
        assert rep.holds


def _many_config_family(drop_remainder_size=None):
    """One core {5..10} crossed by {0..7} and by fifteen two-element subsets
    {x, c}, x < 5 <= c <= 7; every subset of {0..4} is a member so each of
    the 135 removal configurations leaves a member (or nothing) behind."""
    from itertools import combinations

    members = [sum(1 << v for v in range(5, 11)), (1 << 8) - 1]
    for x in range(5):
        for c in (5, 6, 7):
            members.append((1 << x) | (1 << c))
    for r in range(1, 6):
        if r == drop_remainder_size:
            continue
        for sub in combinations(range(5), r):
            members.append(sum(1 << v for v in sub))
    return SetFamily(12, members)


def test_gamma_star_exhaustive_tuple_count():
    rep = check_gamma_star(_many_config_family(), budget=10_000)
    assert rep.holds and rep.exhaustive
    assert rep.tuples_tested == 135 and rep.max_k == 3


@pytest.mark.parametrize("check, budget", [(check_gamma, 10), (check_gamma_star, 60)])
def test_remainder_over_budget_raises(check, budget):
    # budgets below the 15 (gamma) and 135 (gamma*) configurations: no
    # verdict is drawn from part of them
    with pytest.raises(SearchBudgetExceeded, match=f"exceeded {budget} configurations"):
        check(_many_config_family(), budget=budget)


def test_gamma_star_over_budget_never_holds():
    # the third configuration violates gamma*, so a budget of one cannot
    # report a holding verdict; a budget of ten finds the violation
    f = _many_config_family(drop_remainder_size=2)
    with pytest.raises(SearchBudgetExceeded):
        check_gamma_star(f, budget=1)
    rep = check_gamma_star(f, budget=10)
    assert not rep.holds and not rep.exhaustive
    assert [sorted(s) for s in rep.counterexample] == [
        [5, 6, 7, 8, 9, 10], list(range(8)), [0, 5], [1, 6], [2, 7]
    ]


def test_gamma_star_planted_violation():
    rep = check_gamma_star(_many_config_family(drop_remainder_size=4), budget=10_000)
    assert not rep.holds
    c, s0, *subs = rep.counterexample
    remainder = s0.bits & ~c.bits
    for s in subs:
        remainder &= ~s.bits
    assert remainder != 0 and not _many_config_family(drop_remainder_size=4).contains_mask(remainder)


# ---------------------------------------------------------------- restriction closure

def test_restriction_closure(rng):
    # symmetry, pliability and structural submodularity survive residuals
    for _ in range(15):
        n = rng.randint(4, 7)
        g = random_graph(rng, n, rng.uniform(0.3, 0.8))
        values = [1, 2, 3, 4]
        f = enumerate_small_cuts(g, rng.choice(values))
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 5))]
        links = _links(*(p for p in pairs if p[0] != p[1]))
        r = residual(f, links)
        assert check_symmetry(r).holds
        assert check_pliable(r).holds
        assert check_structural_submodularity(r).holds
        assert check_disjoint_cores(r).holds
        assert check_sparse_crossing(r).holds


# ---------------------------------------------------------------- pinned reports

CHECKERS = (
    check_symmetry,
    check_pliable,
    check_structural_submodularity,
    check_disjoint_cores,
    check_sparse_crossing,
    check_gamma,
    check_gamma_star,
)

#: sha256 of the repr of every checker's report over `_pinned_families()`
CHECKER_REPORTS_SHA256 = "bfdd8d659cdcd73bfaace775402c4d665bd0148f9bd75092c752fc194a23eecc"


def _pinned_families():
    """Criterion-3 style residuals of a few seeded instances, which hold,
    then seeded random mask families, plain, symmetric and symmetric with
    one member dropped, many of which fail."""
    cfg = RunConfig(seed=20250809, n_range=(4, 8), density_range=(0.15, 0.7))
    for index in range(6):
        inst, base = generate(cfg, index)
        n = inst.graph.n
        rng = random.Random(cfg.seed ^ (index * 0x9E37))
        yield base
        for _ in range(15):
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
            yield residual(base, _links(*(p for p in pairs if p[0] != p[1])))
    rng = random.Random(11)
    for trial in range(300):
        n = rng.randint(2, 8)
        full = (1 << n) - 1
        masks = set(rng.sample(range(1, full), rng.randint(0, min(12, full - 1))))
        if trial % 3:
            masks |= {full ^ m for m in masks}
        if trial % 3 == 2 and masks:
            masks.discard(rng.choice(sorted(masks)))
        yield SetFamily(n, masks)


def test_checker_reports_pinned():
    """Every checker's report, counterexamples and counters included, is
    pinned byte for byte over holding and failing families alike."""
    h = hashlib.sha256()
    verdicts = set()
    for f in _pinned_families():
        for check in CHECKERS:
            rep = check(f, budget=2_000) if check in (check_gamma, check_gamma_star) else check(f)
            verdicts.add((rep.name, rep.holds))
            h.update(repr(rep).encode())
    # every checker both holds and fails somewhere
    assert len(verdicts) == 2 * len(CHECKERS)
    assert h.hexdigest() == CHECKER_REPORTS_SHA256


#: sha256 of the repr of every checker's report over
#: `_large_pinned_families()`, computed before the sparse-crossing and
#: remainder checks read member bits on families this large
LARGE_CHECKER_REPORTS_SHA256 = "68dc524e271a3548cc741e803344cbd42aa171363ad619b8a5f57d470f67e70a"


def _large_pinned_families():
    """Families of at least 32 members at n 6-9: small-cut families with a
    threshold in the upper half of the cut values and their residuals,
    which hold; copies with a few members dropped; random families, half
    of them closed under complements; and the many-configuration family
    with each size of leftover dropped, which plants remainder
    violations."""
    rng = random.Random(29)
    for trial in range(120):
        n = rng.randint(6, 9)
        full = (1 << n) - 1
        if trial % 4 == 3:
            masks = set(rng.sample(range(1, full), rng.randint(32, min(150, full - 1))))
            if trial % 8 == 3:
                masks |= {full ^ m for m in masks}
            f = SetFamily(n, masks)
        else:
            g = random_graph(rng, n, rng.uniform(0.3, 0.9))
            values = distinct_cut_values(g)
            f = enumerate_small_cuts(g, rng.choice(values[len(values) // 2:]))
            if trial % 4 == 1:
                pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 2))]
                f = residual(f, _links(*(p for p in pairs if p[0] != p[1])))
            elif trial % 4 == 2 and f.masks:
                masks = list(f.masks)
                for _ in range(rng.randint(1, 3)):
                    masks.remove(rng.choice(masks))
                f = SetFamily(n, masks)
        if len(f) >= 32:
            yield f
    for drop in (None, 1, 2, 3, 4, 5):
        yield _many_config_family(drop)


def test_large_checker_reports_pinned():
    """As `test_checker_reports_pinned`, over families of at least
    `kernels.LANE_MASKS` members, the scan-list size from which the pair
    scans test byte lanes."""
    h = hashlib.sha256()
    verdicts = set()
    for f in _large_pinned_families():
        assert len(f) >= kernels.LANE_MASKS
        for check in CHECKERS:
            rep = check(f, budget=2_000) if check in (check_gamma, check_gamma_star) else check(f)
            verdicts.add((rep.name, rep.holds))
            h.update(repr(rep).encode())
    assert len(verdicts) == 2 * len(CHECKERS)
    assert h.hexdigest() == LARGE_CHECKER_REPORTS_SHA256


def _report_or_refusal(check, f):
    """check's report on f, each remainder check at a budget of 200, or the
    message of the SearchBudgetExceeded it raises."""
    try:
        return check(f, budget=200) if check in (check_gamma, check_gamma_star) else check(f)
    except SearchBudgetExceeded as exc:
        return str(exc)


def _view_families():
    """Families built as subfamilies of a crossing table: criterion-3
    residuals of a few seeded instances; random subfamilies of a table
    built over such a residual, and residuals of the residual; and each
    phase's residual and cores of the instance's solve."""
    cfg = RunConfig(seed=20250809, n_range=(4, 8), density_range=(0.15, 0.7))
    for index in range(10):
        inst, base = generate(cfg, index)
        n = inst.graph.n
        rng = random.Random(cfg.seed ^ (index * 0x9E37))

        def draw():
            pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, n))]
            return [Link(a, b, 1, k) for k, (a, b) in enumerate(pairs)]

        for _ in range(12):
            r = residual(base, draw())
            yield r
            table = crossing_table(r, draw())
            yield table.subfamily(rng.getrandbits(len(r)))
            yield residual(r, draw())
        result = solve(inst.links, base)
        for pt in result.trace:
            yield result.table.subfamily(pt.live)
            yield result.table.subfamily(pt.core_bits)


def test_views_match_standalone_copies():
    """Every checker reports the same on a subfamily a crossing table
    built, which it reads through the table's member bits, as on the
    standalone copy of its masks. Among the views are some with a parent
    member inside one of their cores, which the crossing bits must leave
    out, and every checker both holds and fails on some view."""
    verdicts = set()
    inside_core = 0
    for f in _view_families():
        alone = SetFamily(f.n, f.masks)
        for check in CHECKERS:
            got = _report_or_refusal(check, f)
            assert got == _report_or_refusal(check, alone), (check.__name__, f.n, f.masks)
            verdicts.add((check.__name__, got.holds if isinstance(got, PropertyReport) else None))
        table, live = f._view
        others = [m for i, m in enumerate(table.family.masks) if not live >> i & 1]
        inside_core += any(m & ~c == 0 for c in cores(f).masks for m in others)
    assert {(check.__name__, ok) for check in CHECKERS for ok in (True, False)} <= verdicts
    assert inside_core > 0
