"""Exact minimum-cost cover via branch and bound, and the ratio audit.

The search branches on the covering links of a most-constrained core of
the still-uncovered subfamily, partitioning by forbidding earlier
branches' links, on costs scaled to integers over their common
denominator. A node is pruned when its cost plus a lower bound reaches
the incumbent: uncovered minimal members whose allowed links are pairwise
disjoint each need a link of their own, so the cheapest allowed link of
each is still to pay. Only a strictly cheaper cover replaces the
incumbent, so the bound changes which nodes are explored but not the
cover reported. An optional warm start, a solve of the same links and
family, lends the search its solution as first incumbent and its crossing
table as the cover rows; the search is used as ground truth for the
solver's guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import kernels
from .errors import Infeasible, TooManyLinks, ZeroOptimumViolation
from .family import SetFamily, crossing_table
from .graph import NodeSet
from .pd import SolveResult

DEFAULT_EXACT_LIMIT = 24


@dataclass(frozen=True)
class ExactResult:
    opt_cost: Fraction
    opt_links: tuple
    nodes_explored: int


def exact_optimum(links, f: SetFamily, limit: int = DEFAULT_EXACT_LIMIT,
                  warm_start: SolveResult | None = None) -> ExactResult:
    """Minimum-cost link set covering f; warm_start, a `solve` of links
    and f, gives the first incumbent and the crossing table."""
    if len(links) > limit:
        raise TooManyLinks(f"{len(links)} links exceed the exact-search limit {limit}")
    table = crossing_table(f, links) if warm_start is None else warm_start.table
    masks = f.masks
    if not masks:
        return ExactResult(Fraction(0), (), 0)

    # bit lid of cover_bits[i] is set when link lid crosses masks[i]
    cover_bits = [table[m] for m in masks]
    for m, bits in zip(masks, cover_bits):
        if bits == 0:
            raise Infeasible(NodeSet(m, f.n))
    denom = lcm(*(link.cost.denominator for link in links))
    costs = [link.cost.numerator * (denom // link.cost.denominator) for link in links]
    by_cost = sorted(range(len(links)), key=lambda lid: (costs[lid], lid))

    best_cost = None
    best_set = None
    if warm_start is not None:
        chosen = sum(1 << lid for lid in warm_start.solution)
        if all(bits & chosen for bits in cover_bits):
            best_cost = sum(costs[lid] for lid in warm_start.solution)
            best_set = tuple(sorted(warm_start.solution))

    nodes = 0

    def search(chosen: int, cost: int, forbidden: int, rows: list, added: int) -> None:
        """Explore the covers that extend `chosen`, which has just gained the
        link bit `added`, with no forbidden link; rows are the indices of
        the members left uncovered before `added` joined."""
        nonlocal best_cost, best_set, nodes
        nodes += 1
        if best_cost is not None and cost >= best_cost:
            return
        uncovered = [i for i in rows if not cover_bits[i] & added]
        if not uncovered:
            best_cost = cost
            best_set = tuple(
                lid for lid in range(len(links)) if (chosen >> lid) & 1
            )
            return
        minimal = kernels.minimal_flags([masks[i] for i in uncovered])
        branch_bits = None
        branch_count = 0
        bound = 0
        bound_links = 0  # union of the allowed links of the members in the bound
        for i, keep in zip(uncovered, minimal):
            if not keep:
                continue
            allowed = cover_bits[i] & ~forbidden
            if not allowed:
                return
            cnt = allowed.bit_count()
            if branch_bits is None or cnt < branch_count:
                branch_bits = allowed
                branch_count = cnt
            if not allowed & bound_links:
                bound_links |= allowed
                bound += costs[next(lid for lid in by_cost if (allowed >> lid) & 1)]
        if best_cost is not None and cost + bound >= best_cost:
            return
        choices = [lid for lid in by_cost if (branch_bits >> lid) & 1]
        banned = forbidden
        for lid in choices:
            search(chosen | (1 << lid), cost + costs[lid], banned, uncovered, 1 << lid)
            banned |= 1 << lid

    search(0, 0, 0, list(range(len(masks))), 0)
    return ExactResult(Fraction(best_cost, denom), best_set, nodes)


def ratio(alg: SolveResult, opt: ExactResult) -> Fraction:
    """Exact quotient of the solver's cost over the optimum cost."""
    if opt.opt_cost == 0:
        if alg.cost != 0:
            raise ZeroOptimumViolation(
                f"optimum cost is zero but the solver paid {alg.cost}"
            )
        return Fraction(1)
    return alg.cost / opt.opt_cost
