"""Primal-dual covering solver: phased uniform dual growth on cores,
tight-link admission and reverse delete.

All arithmetic is exact, so "the slack reaches zero" is an equality test,
never a tolerance. A solve is deterministic: links that go tight at the
same growth step are admitted together in ascending id order, and the
reverse delete scans the strict reverse of the global addition sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import kernels
from .family import CrossingTable, SetFamily, crossing_table


@dataclass(frozen=True)
class PhaseTrace:
    """One phase of a solve: the cores and the residual family at its
    start, as member bits over `SolveResult.table`, the growth amount and
    the links it admitted."""

    phase: int
    core_bits: int
    epsilon: Fraction
    tight_link_ids: tuple
    live: int


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve: the pruned solution, its exact cost, the duals
    y (the mask of each core raised above zero -> its dual) and their
    dual_total, the per-phase trace, the pre-delete addition order and the
    family's `crossing_table` over the links, which the audits and the
    exact search read."""

    solution: tuple
    cost: Fraction
    y: dict
    dual_total: Fraction
    trace: tuple
    addition_order: tuple
    table: CrossingTable


def solve(links, f: SetFamily) -> SolveResult:
    """Cover the family with the phased growth / reverse-delete scheme.

    A family that the links do not cover raises `Infeasible` before the
    first phase. Each phase raises the duals of all cores of the residual
    family uniformly until some unpicked link goes tight, admits every
    tight link and shrinks the residual by them. The residual and its
    cores are sets of member bits over f's `crossing_table` with links,
    which the result carries: the cores come from
    `kernels.minimal_indices`, a link's degree is the count of core bits
    in its column, and the residual loses each tight link's column.

    The duals grow on integers: slacks, y and the total are
    numerators over one common denominator, which a phase multiplies by
    the reduced denominator of its growth amount when that is not 1. The
    least slack / degree, and the links that reach it, are found by
    cross-multiplying slack against degree.
    """
    table = crossing_table(f, links)
    masks, nodes, cols = f.masks, table.nodes, table.cols
    live = (1 << len(masks)) - 1
    # only unpicked links cross a live member, so every core of every
    # phase below has a candidate link
    table.require_crossed(live, range(len(links)))
    den = lcm(*(link.cost.denominator for link in links))
    # link id -> numerator of its cost minus its dual load
    slack = [link.cost.numerator * (den // link.cost.denominator) for link in links]
    y = {}  # core mask -> dual numerator, for every core raised above zero
    total = 0
    unpicked = list(range(len(links)))
    picked = []
    trace = []
    while live:
        cores = kernels.minimal_indices(live, masks, nodes)
        core_bits = sum(1 << i for i in cores)
        # (link id, degree, slack) of every candidate, in ascending id order
        cand = []
        for lid in unpicked:
            d = (core_bits & cols[lid]).bit_count()
            if d:
                cand.append((lid, d, slack[lid]))
        _, best_d, best_s = cand[0]
        for _, d, s in cand:
            if s * best_d < best_s * d:
                best_d, best_s = d, s
        tight = [lid for lid, d, s in cand if s * best_d == best_s * d]

        g = gcd(best_s, best_d)
        step, scale = best_s // g, best_d // g
        if scale > 1:
            den *= scale
            slack = [v * scale for v in slack]
            y = {c: v * scale for c, v in y.items()}
            total *= scale
        for lid, d, _ in cand:
            slack[lid] -= step * d
        if step:
            for i in cores:
                y[masks[i]] = y.get(masks[i], 0) + step
            total += step * len(cores)

        trace.append(PhaseTrace(len(trace), core_bits, Fraction(step, den), tuple(tight), live))
        picked.extend(tight)
        for lid in tight:
            unpicked.remove(lid)
            live &= ~cols[lid]
    solution = reverse_delete(picked, (1 << len(masks)) - 1, table)
    cost = sum((links[i].cost for i in solution), Fraction(0))
    return SolveResult(tuple(solution), cost, {c: Fraction(v, den) for c, v in y.items()},
                       Fraction(total, den), tuple(trace), tuple(picked), table)


def reverse_delete(addition_order, target: int, table):
    """Drop links in reverse addition order whenever the rest still covers
    target, a set of member bits over table, a `crossing_table`.

    The result is an inclusion-minimal cover of target, returned in the
    original addition order; the link ids are distinct. The rest covers
    target when the OR of its columns holds target, and the rest of the
    link at position j is the links before j, whose ORs are built once,
    with the links after j that were kept. An order that leaves a member
    of target uncrossed raises `Infeasible`.
    """
    order = list(addition_order)
    table.require_crossed(target, order)
    cols = table.cols
    before = [0]
    for lid in order:
        before.append(before[-1] | cols[lid])
    kept = []
    after = 0
    for j in range(len(order) - 1, -1, -1):
        lid = order[j]
        if target & ~(before[j] | after):
            kept.append(lid)
            after |= cols[lid]
    return kept[::-1]


def dual_feasible(links, f: SetFamily, y: dict) -> bool:
    """Every link carries dual load at most its cost, exactly.

    y maps masks to their duals, as `SolveResult.y` does. A link's load is
    summed from scratch over y: the duals and the costs are scaled to
    integers over one common denominator, and the load of a link is the
    sum of the scaled duals of the masks it has exactly one endpoint in.
    """
    kernels.check_ends(((link.a, link.b) for link in links), f.n)
    den = lcm(*(v.denominator for v in y.values()),
              *(link.cost.denominator for link in links))
    duals = [(m, v.numerator * (den // v.denominator)) for m, v in y.items()]
    for link in links:
        a, b = link.a, link.b
        load = sum(v for m, v in duals if ((m >> a) ^ (m >> b)) & 1)
        if load > link.cost.numerator * (den // link.cost.denominator):
            return False
    return True
