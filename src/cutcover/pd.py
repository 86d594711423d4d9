"""Primal-dual covering solver: phased uniform dual growth on cores,
tight-link admission and reverse delete.

All arithmetic is exact, so "the slack reaches zero" is an equality test,
never a tolerance. A solve is deterministic: links that go tight at the
same growth step are admitted together in ascending id order, and the
reverse delete scans the strict reverse of the global addition sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import kernels
from .errors import Infeasible
from .family import SetFamily, cores, residual
from .graph import Instance, Link, NodeSet, covers


@dataclass
class DualState:
    """Dual variables keyed by the sets they were raised on.

    link_load holds, for each link that was a growth candidate in some
    phase, the dual load pressing on it; `grow_phase` keeps it up to date
    as it raises duals, for states it grows from empty. Once a link is
    picked its entry is no longer updated. `load` recomputes a link's load
    from y alone.
    """

    y: dict = field(default_factory=dict)
    total: Fraction = Fraction(0)
    link_load: dict = field(default_factory=dict)

    def load(self, link: Link) -> Fraction:
        """Total dual weight pressing on a link, summed from scratch."""
        acc = Fraction(0)
        for s, val in self.y.items():
            if covers(link, s):
                acc += val
        return acc


@dataclass(frozen=True)
class PhaseTrace:
    phase: int
    cores_snapshot: SetFamily
    epsilon: Fraction
    tight_link_ids: tuple
    residual_size: int


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve: the pruned solution, its exact cost, the dual
    state, the per-phase trace and the pre-delete addition order."""

    solution: tuple
    cost: Fraction
    dual: DualState
    trace: tuple
    addition_order: tuple


def grow_phase(state: DualState, core_family: SetFamily, links, already_picked):
    """Raise duals uniformly on all cores until some unpicked link goes tight.

    Returns the exact growth amount and the ids of every link whose slack
    hits zero, ascending. Raises Infeasible when a core is crossed by no
    unpicked link.
    """
    core_masks = core_family.masks
    if not core_masks:
        raise ValueError("grow_phase requires a non-empty core family")
    n = core_family.n

    unpicked = [link for link in links if link.id not in already_picked]
    # bit k of a core's row is set when unpicked[k] crosses the core
    rows = kernels.cover_bits(core_masks, [(link.a, link.b) for link in unpicked], n)
    counts = [0] * len(unpicked)
    for c, row in zip(core_masks, rows):
        if not row:
            raise Infeasible(NodeSet(c, n))
        while row:
            low = row & -row
            counts[low.bit_length() - 1] += 1
            row ^= low
    degree = {link.id: d for link, d in zip(unpicked, counts) if d}

    load = state.link_load
    # the growth at which each candidate's slack reaches zero
    reach = {lid: (links[lid].cost - load.get(lid, 0)) / d for lid, d in degree.items()}
    epsilon = min(reach.values())
    newly_tight = sorted(lid for lid, r in reach.items() if r == epsilon)

    for lid, d in degree.items():
        load[lid] = load.get(lid, 0) + epsilon * d
    if epsilon:
        for c in core_family.members:
            state.y[c] = state.y.get(c, Fraction(0)) + epsilon
        state.total += epsilon * len(core_masks)
    return epsilon, newly_tight


def solve(inst: Instance, f: SetFamily) -> SolveResult:
    """Cover the family with the phased growth / reverse-delete scheme.

    Each phase shrinks the residual family by the links it admitted, so
    the residual is never rebuilt from f.
    """
    if f.n != inst.graph.n:
        raise ValueError("family ground set does not match the instance graph")
    state = DualState()
    picked = []
    picked_set = set()
    trace = []
    remaining = f
    while len(remaining):
        core_family = cores(remaining)
        epsilon, tight = grow_phase(state, core_family, inst.links, picked_set)
        picked.extend(tight)
        picked_set.update(tight)
        trace.append(PhaseTrace(len(trace), core_family, epsilon, tuple(tight), len(remaining)))
        remaining = residual(remaining, [inst.links[i] for i in tight])
    solution = reverse_delete(picked, f, inst.links)
    cost = sum((inst.links[i].cost for i in solution), Fraction(0))
    return SolveResult(tuple(solution), cost, state, tuple(trace), tuple(picked))


def reverse_delete(addition_order, f: SetFamily, links):
    """Drop links in reverse addition order whenever the rest still covers f.

    The result is an inclusion-minimal cover of f, returned in the original
    addition order.
    """
    if len(f) == 0:
        return []
    ends = [(links[lid].a, links[lid].b) for lid in addition_order]
    # bit k of a member's cover is set when addition_order[k] crosses it
    cover = kernels.cover_bits(f.masks, ends, f.n)
    for m, bits in zip(f.masks, cover):
        if not bits:
            raise Infeasible(NodeSet(m, f.n), "addition order does not cover the family")
    kept = (1 << len(ends)) - 1
    for k in reversed(range(len(ends))):
        rest = kept & ~(1 << k)
        if all(bits & rest for bits in cover):
            kept = rest
    return [lid for k, lid in enumerate(addition_order) if (kept >> k) & 1]


def dual_feasible(inst: Instance, f: SetFamily, state: DualState) -> bool:
    """Every link carries dual load at most its cost, exactly."""
    return all(state.load(link) <= link.cost for link in inst.links)
