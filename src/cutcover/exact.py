"""Exact minimum-cost cover via branch and bound, and the ratio audit.

The search branches on the covering links of a most-constrained core of
the still-uncovered subfamily, partitioning by forbidding earlier
branches' links, and prunes on current cost against the incumbent. It is
enumeration-equivalent and is used as ground truth for the solver's
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import Infeasible, TooManyLinks, ZeroOptimumViolation
from .family import SetFamily
from .graph import Instance, NodeSet
from .pd import SolveResult

DEFAULT_EXACT_LIMIT = 24


@dataclass(frozen=True)
class ExactResult:
    opt_cost: Fraction
    opt_links: tuple
    nodes_explored: int


def exact_optimum(inst: Instance, f: SetFamily, limit: int = DEFAULT_EXACT_LIMIT,
                  warm_start=None) -> ExactResult:
    """Minimum-cost link set covering f, with optional warm-start incumbent."""
    links = inst.links
    if len(links) > limit:
        raise TooManyLinks(f"{len(links)} links exceed the exact-search limit {limit}")
    masks = f.masks
    if not masks:
        return ExactResult(Fraction(0), (), 0)

    # bit lid of cover_bits[i] is set when link lid crosses masks[i]
    cover_bits = []
    for m in masks:
        bits = 0
        for link in links:
            if ((m >> link.a) ^ (m >> link.b)) & 1:
                bits |= 1 << link.id
        if bits == 0:
            raise Infeasible(NodeSet(m, f.n))
        cover_bits.append(bits)
    costs = [link.cost for link in links]

    best_cost = None
    best_set = None
    if warm_start is not None:
        chosen = 0
        for lid in warm_start:
            chosen |= 1 << lid
        if all(bits & chosen for bits in cover_bits):
            best_cost = sum((costs[lid] for lid in warm_start), Fraction(0))
            best_set = tuple(sorted(set(warm_start)))

    nodes = 0

    def search(chosen: int, cost: Fraction, forbidden: int) -> None:
        nonlocal best_cost, best_set, nodes
        nodes += 1
        if best_cost is not None and cost >= best_cost:
            return
        uncovered = [i for i, bits in enumerate(cover_bits) if not bits & chosen]
        if not uncovered:
            best_cost = cost
            best_set = tuple(
                lid for lid in range(len(links)) if (chosen >> lid) & 1
            )
            return
        minimal = kernels.minimal_flags([masks[i] for i in uncovered])
        branch_bits = None
        branch_count = 0
        for i, keep in zip(uncovered, minimal):
            if not keep:
                continue
            allowed = cover_bits[i] & ~forbidden
            cnt = allowed.bit_count()
            if branch_bits is None or cnt < branch_count:
                branch_bits = allowed
                branch_count = cnt
        if not branch_bits:
            return
        choices = sorted(
            (lid for lid in range(len(links)) if (branch_bits >> lid) & 1),
            key=lambda lid: (costs[lid], lid),
        )
        banned = forbidden
        for lid in choices:
            search(chosen | (1 << lid), cost + costs[lid], banned)
            banned |= 1 << lid

    search(0, Fraction(0), 0)
    return ExactResult(best_cost, best_set, nodes)


def ratio(alg: SolveResult, opt: ExactResult) -> Fraction:
    """Exact quotient of the solver's cost over the optimum cost."""
    if opt.opt_cost == 0:
        if alg.cost != 0:
            raise ZeroOptimumViolation(
                f"optimum cost is zero but the solver paid {alg.cost}"
            )
        return Fraction(1)
    return alg.cost / opt.opt_cost
