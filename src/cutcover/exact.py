"""Exact minimum-cost cover via branch and bound.

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
table; the search is used as ground truth for the solver's guarantee. A
search that would explore more nodes than its budget raises
`SearchBudgetExceeded` rather than report a cover it has not proved
optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import kernels
from .errors import SearchBudgetExceeded
from .family import SetFamily, crossing_table
from .pd import SolveResult

#: the most nodes one search explores, the witness search's figure
DEFAULT_EXACT_BUDGET = 1_000_000


@dataclass(frozen=True)
class ExactResult:
    opt_cost: Fraction
    opt_links: tuple
    nodes_explored: int


def exact_optimum(links, f: SetFamily, node_budget: int = DEFAULT_EXACT_BUDGET,
                  warm_start: SolveResult | None = None) -> ExactResult:
    """Minimum-cost link set covering f; warm_start, a `solve` of links
    and f, gives the first incumbent and the crossing table.

    The uncovered members are a set of member bits over the table, which
    each added link shrinks by its column; their minimal members come
    from `kernels.minimal_indices`. A member's row, the links that cross
    it, is read off the columns the first time the member is minimal and
    kept for the rest of this search only.
    """
    table = crossing_table(f, links) if warm_start is None else warm_start.table
    if not f.masks:
        return ExactResult(Fraction(0), (), 0)

    target = table.bits(f)
    table.require_crossed(target, range(len(links)))
    masks, node_bits, cols = table.family.masks, table.nodes, table.cols
    denom = lcm(*(link.cost.denominator for link in links))
    costs = [link.cost.numerator * (denom // link.cost.denominator) for link in links]

    best_cost = None
    best_set = None
    if warm_start is not None:
        if not target & ~table.crossed(warm_start.solution)[0]:
            best_cost = sum(costs[lid] for lid in warm_start.solution)
            best_set = tuple(sorted(warm_start.solution))

    # bit r of a link set is link by_cost[r], cheapest first and by id among
    # equal costs, so the cheapest link of a set is its lowest bit
    by_cost = sorted(range(len(links)), key=lambda lid: (costs[lid], lid))
    costs = [costs[lid] for lid in by_cost]
    cols = [cols[lid] for lid in by_cost]
    nodes = 0
    rows = {}  # member index -> the bits of the links that cross it
    # a node (chosen, cost, forbidden, live) stands for the covers that extend
    # chosen with no forbidden link, live being the members chosen leaves
    # uncovered; children are pushed last first, so they pop depth first
    stack = [(0, 0, 0, target)]
    while stack:
        chosen, cost, forbidden, live = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"exact search exceeded {node_budget} nodes")
        if best_cost is not None and cost >= best_cost:
            continue
        if not live:
            best_cost = cost
            best_set = tuple(sorted(by_cost[r] for r in range(len(links)) if chosen >> r & 1))
            continue
        branch_bits = None
        branch_count = 0
        bound = 0
        bound_links = 0  # union of the allowed links of the members in the bound
        for i in kernels.minimal_indices(live, masks, node_bits):
            row = rows.get(i)
            if row is None:
                row = rows[i] = sum(1 << r for r, col in enumerate(cols) if col >> i & 1)
            allowed = row & ~forbidden
            if not allowed:
                break
            cnt = allowed.bit_count()
            if branch_bits is None or cnt < branch_count:
                branch_bits = allowed
                branch_count = cnt
            if not allowed & bound_links:
                bound_links |= allowed
                bound += costs[(allowed & -allowed).bit_length() - 1]
        else:
            if best_cost is not None and cost + bound >= best_cost:
                continue
            # branch on the cheapest link first; each child forbids the
            # branch links cheaper than its own
            cheaper = branch_bits
            while cheaper:
                r = cheaper.bit_length() - 1
                cheaper ^= 1 << r
                stack.append((chosen | 1 << r, cost + costs[r], forbidden | cheaper,
                              live & ~cols[r]))
    return ExactResult(Fraction(best_cost, denom), best_set, nodes)
