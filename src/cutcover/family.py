"""Explicit set families, residuals, cores, and executable property checkers.

The checkers return `PropertyReport` verdicts rather than raising: a failed
check carries a counterexample tuple that replays the violated condition.
The one exception is a remainder check (gamma, gamma*) that runs out of
budget before it has enumerated every configuration: it raises
`SearchBudgetExceeded` rather than give a verdict it has not established.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

from . import kernels
from .errors import Infeasible, SearchBudgetExceeded
from .graph import NodeSet

#: configurations a gamma/gamma* check may test before it gives up
DEFAULT_GAMMA_BUDGET = 100_000


class SetFamily:
    """Deduplicated collection of non-trivial subsets of one ground set,
    each an int mask; `contains_mask` is its membership test.

    Neither the empty set nor the full ground set may be a member. Members
    are kept in ascending mask order, which fixes the scan order (and hence
    the reported counterexamples) of every checker.

    A family built by `CrossingTable.subfamily` is a view of that table:
    `_view` holds (table, bits), its member bits over the table's family,
    from which the checkers read it. Any other family has `_view` None.
    """

    __slots__ = ("n", "_masks", "_mask_set", "_view")

    def __init__(self, n: int, masks: Iterable[int]):
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"the ground-set size n must be non-negative, got {n}")
        full = (1 << n) - 1
        seen = set()
        for m in masks:
            m = operator.index(m)
            if m < 0 or m >> n:
                raise ValueError(f"mask {m:#x} outside ground set [0, {n})")
            if m == 0:
                raise ValueError("the empty set cannot be a family member")
            if m == full:
                raise ValueError("the ground set cannot be a family member")
            seen.add(m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_masks", tuple(sorted(seen)))
        object.__setattr__(self, "_mask_set", frozenset(seen))
        object.__setattr__(self, "_view", None)

    @classmethod
    def _from_sorted(cls, n: int, masks, view=None) -> "SetFamily":
        """Family of masks that are already ascending, distinct and
        non-trivial, such as a filtered subsequence of a family's masks;
        skips the validation and the sort."""
        self = object.__new__(cls)
        masks = tuple(masks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_masks", masks)
        object.__setattr__(self, "_mask_set", frozenset(masks))
        object.__setattr__(self, "_view", view)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SetFamily is immutable")

    @property
    def masks(self) -> tuple:
        return self._masks

    def contains_mask(self, mask: int) -> bool:
        return mask in self._mask_set

    def __len__(self) -> int:
        return len(self._masks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.n == other.n
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, members={len(self._masks)})"


@dataclass(frozen=True)
class PropertyReport:
    """Verdict of one structural-property check.

    When a check fails, ``counterexample`` replays the violation. For the
    remainder properties it is ordered (core, enclosing set, removed
    subsets...); the pair checkers report the offending pair; symmetry
    reports the member whose complement is missing. The remainder checks
    also record how many configurations were tested, the largest number of
    removed subsets reached, and whether the enumeration was exhaustive.
    A holding remainder report is always exhaustive; a failing one reads
    False, since the search stops at the first violation.
    """

    name: str
    holds: bool
    counterexample: tuple | None = None
    tuples_tested: int | None = None
    max_k: int | None = None
    exhaustive: bool | None = None


def residual(f: SetFamily, cover_links) -> SetFamily:
    """Members of f crossed by none of the given links, as a view of their
    `crossing_table`; criterion 3 and the `lemma` benchmark call it."""
    table = crossing_table(f, cover_links)
    crossed = table.crossed(range(len(table.cols)))[0]
    return table.subfamily(table.bits(f) & ~crossed)


def all_covered(f: SetFamily, ends) -> bool:
    """True when every member of f is crossed by some link, given by its
    (a, b) endpoint pair: the links are a feasible cover of f.

    No link crosses a set exactly when the set is a union of components of
    the link graph. With c components there are 2**c unions, 2**(c-1) and
    their complements, and f is covered when none of them is a member.
    That test runs when 2**(c-1) is at most the member count; otherwise
    each member is scanned against the links. Each link merges at most two
    components into one, so c >= n - len(links), which often settles the
    choice before the components are built.
    """
    pairs = kernels.check_ends(ends, f.n)
    masks = f._masks
    spare = f.n - len(pairs)
    if masks and (spare < 1 or 1 << (spare - 1) <= len(masks)):
        comps = kernels.components(pairs, f.n)
        if 1 << (len(comps) - 1) <= len(masks):
            unions = [0]
            for c in comps:
                unions += [u | c for u in unions]
            return f._mask_set.isdisjoint(unions)
    for m in masks:
        for a, b in pairs:
            if ((m >> a) ^ (m >> b)) & 1:
                break
        else:
            return False
    return True


class CrossingTable:
    """The crossings between the members of one family and a list of
    links, as member bits, with member i standing for family.masks[i]:

    - nodes[v]: bit i set when member i contains node v;
    - cols[k] = nodes[a] ^ nodes[b]: bit i set when links[k] = (a, b)
      crosses member i.

    A set of members is an int over the member indices. `members` and
    `subfamily` turn one into masks or a SetFamily, and `bits` turns a
    subfamily back; a subfamily the table built is a view of it, which
    carries its bits. `crossed` counts a link set's crossings up to two.
    """

    __slots__ = ("family", "nodes", "cols")

    def __init__(self, family: SetFamily, nodes: list, cols: list):
        self.family = family
        self.nodes = nodes
        self.cols = cols

    def members(self, bits: int) -> list:
        """The masks, ascending, of the members whose bit is set in bits."""
        masks = self.family.masks
        found = []
        while bits:
            i = bits.bit_length() - 1
            found.append(masks[i])
            bits ^= 1 << i
        return found[::-1]

    def subfamily(self, bits: int) -> SetFamily:
        """The members whose bit is set in bits, as a SetFamily that is a
        view of this table."""
        return SetFamily._from_sorted(self.family.n, self.members(bits), (self, bits))

    def crossed(self, lids) -> tuple:
        """(once, twice): the members that at least one, and at least
        two, of the links lids cross."""
        once = twice = 0
        for lid in lids:
            twice |= once & self.cols[lid]
            once |= self.cols[lid]
        return once, twice

    def require_crossed(self, bits: int, lids) -> None:
        """Raise `Infeasible` naming the lowest member of bits that none
        of the links lids crosses."""
        cols = self.cols
        for lid in lids:
            bits &= ~cols[lid]
        if bits:
            m = self.family.masks[(bits & -bits).bit_length() - 1]
            raise Infeasible(NodeSet(m, self.family.n))

    def bits(self, sub: SetFamily) -> int:
        """The member bits of sub, a subfamily of the table's family: read
        off sub when it is a view of this table, else found by membership."""
        view = sub._view
        if view is not None and view[0] is self:
            return view[1]
        masks = self.family.masks
        if sub.n == self.family.n:
            if sub.masks == masks:
                return (1 << len(masks)) - 1
            bits = sum(1 << i for i, m in enumerate(masks) if m in sub._mask_set)
            if bits.bit_count() == len(sub):
                return bits
        raise ValueError(f"{sub!r} is not a subfamily of {self.family!r}")


def crossing_table(f: SetFamily, links) -> CrossingTable:
    """The `CrossingTable` of f's members and links. Instance links carry
    their position as id, so column k stands for link id k."""
    ends = kernels.check_ends(((link.a, link.b) for link in links), f.n)
    nodes = kernels.node_bits(f.masks, f.n)
    return CrossingTable(f, nodes, [nodes[a] ^ nodes[b] for a, b in ends])


def _missing_complement(f: SetFamily) -> int | None:
    """First member of f whose complement is not a member, or None when f
    is symmetric.

    A symmetric family lets the pair checkers scan only the members without
    node n-1, one of each complement pair. Replacing B by V - B maps the
    corners (A & B, A | B, A - B, B - A) to (A - B, V - (B - A), A & B,
    V - (A | B)), so in a symmetric family the corner count, the crossing
    test and both structural-submodularity clauses are unchanged; the same
    holds for A. Violating pairs therefore come in complement classes, and
    the first violating pair in ascending order has both members among
    those without node n-1.
    """
    full = (1 << f.n) - 1
    members = f._mask_set
    for m in f._masks:
        if full ^ m not in members:
            return m
    return None


def _pair_scan_masks(f: SetFamily) -> tuple:
    """The members a pair scan of f must visit: those without node n-1 when
    f is symmetric (see `_missing_complement`), else all of them. Those
    are the lower half of a symmetric family's masks, since of each
    complement pair exactly the smaller lacks node n-1."""
    masks = f._masks
    if _missing_complement(f) is None:
        return masks[:len(masks) >> 1]
    return masks


# a holding verdict carries no payload, and reports are frozen, so each
# checker without counters shares one
_SYMMETRY_HOLDS = PropertyReport("symmetry", True)
_PLIABLE_HOLDS = PropertyReport("pliable", True)
_STRUCTSUB_HOLDS = PropertyReport("structural_submodularity", True)
_SPARSE_CROSSING_HOLDS = PropertyReport("sparse_crossing", True)
_DISJOINT_CORES_HOLDS = PropertyReport("disjoint_cores", True)
# and a remainder check that holds with no configuration to test shares one
_UNTESTED_HOLDS = {
    name: PropertyReport(name, True, None, 0, 0, True) for name in ("gamma", "gamma_star")
}


def _cores(f: SetFamily) -> tuple:
    """(masks, nodes, live, cores): f's members are the bits of live over
    the ascending masks, nodes is `kernels.node_bits(masks, f.n)`, and
    cores lists f's inclusion-minimal masks, ascending.

    A view reads masks, nodes and live off its table: the parent's masks
    and nodes, and its own bits. Parent indices keep ascending mask order,
    so a scan over the bits meets f's members in the order of f.masks. Any
    other family is its own parent, with every bit set.
    """
    view = f._view
    if view is not None:
        table, live = view
        masks, nodes = table.family._masks, table.nodes
    else:
        masks = f._masks
        nodes = kernels.node_bits(masks, f.n)
        live = (1 << len(masks)) - 1
    return masks, nodes, live, [masks[i] for i in kernels.minimal_indices(live, masks, nodes)]


def check_symmetry(f: SetFamily) -> PropertyReport:
    """Every member's complement is also a member."""
    m = _missing_complement(f)
    if m is None:
        return _SYMMETRY_HOLDS
    return PropertyReport("symmetry", False, (NodeSet(m, f.n),))


def check_pliable(f: SetFamily) -> PropertyReport:
    """Every pair has at least two of its four corner sets in the family."""
    if len(f._masks) < 2:
        return _PLIABLE_HOLDS
    pair = kernels.pliable_violation(_pair_scan_masks(f), f._mask_set)
    if pair is None:
        return _PLIABLE_HOLDS
    return PropertyReport("pliable", False, tuple(NodeSet(m, f.n) for m in pair))


def check_structural_submodularity(f: SetFamily) -> PropertyReport:
    """Every crossing pair keeps a corner from both the intersection/union
    side and the difference side."""
    if len(f._masks) < 2:
        return _STRUCTSUB_HOLDS
    pair = kernels.structsub_violation(_pair_scan_masks(f), f._mask_set, (1 << f.n) - 1)
    if pair is None:
        return _STRUCTSUB_HOLDS
    return PropertyReport(
        "structural_submodularity", False, tuple(NodeSet(m, f.n) for m in pair)
    )


def check_sparse_crossing(f: SetFamily) -> PropertyReport:
    """No member crosses two inclusion-minimal members.

    The members crossed by two cores are read off the cores' crossing
    bits. The violation reported is (S, C1, C2): S the lowest of those
    members, C1 and C2 the first two cores whose crossing bits hold S. In
    a symmetric family V - S crosses the same cores as S, and the lower of
    the two lacks node n-1, so S is also the first member of the half scan
    `_missing_complement` describes.
    """
    if not f._masks:
        return _SPARSE_CROSSING_HOLDS
    masks, nodes, live, cores = _cores(f)
    crossing = kernels.crossing_bits(cores, nodes, live)
    once = twice = 0
    for x in crossing:
        twice |= once & x
        once |= x
    if not twice:
        return _SPARSE_CROSSING_HOLDS
    low = twice & -twice
    c1, c2 = [c for c, x in zip(cores, crossing) if x & low][:2]
    triple = (masks[low.bit_length() - 1], c1, c2)
    return PropertyReport("sparse_crossing", False, tuple(NodeSet(m, f.n) for m in triple))


def check_disjoint_cores(f: SetFamily) -> PropertyReport:
    """Inclusion-minimal members are pairwise disjoint.

    They are exactly when none meets the union of those before it, which
    one pass over the cores tests; only when one does are the pairs
    scanned, to name the first overlapping pair in ascending order."""
    if not f._masks:
        return _DISJOINT_CORES_HOLDS
    core_masks = _cores(f)[3]
    union = 0
    for c in core_masks:
        if c & union:
            break
        union |= c
    else:
        return _DISJOINT_CORES_HOLDS
    for i, a in enumerate(core_masks):
        for b in core_masks[i + 1:]:
            if a & b:
                return PropertyReport(
                    "disjoint_cores", False, (NodeSet(a, f.n), NodeSet(b, f.n))
                )
    raise AssertionError("overlapping cores without an overlapping pair")


def check_gamma(f: SetFamily, budget: int = DEFAULT_GAMMA_BUDGET) -> PropertyReport:
    """Remainder property with a single removed subset (k = 1)."""
    return _check_remainder(f, budget, 1, "gamma")


def check_gamma_star(f: SetFamily, budget: int = DEFAULT_GAMMA_BUDGET) -> PropertyReport:
    """Remainder property with any number of pairwise-disjoint removed
    subsets (k >= 1)."""
    return _check_remainder(f, budget, 0, "gamma_star")


def _check_remainder(f: SetFamily, budget: int, kmax: int, name: str) -> PropertyReport:
    """Enumerate every configuration of f within `budget`; a verdict is
    never drawn from part of them, so running out raises
    SearchBudgetExceeded."""
    if not f._masks:
        return _UNTESTED_HOLDS[name]
    masks, nodes, live, cores = _cores(f)
    crossing = kernels.crossing_bits(cores, nodes, live)
    completed, witness, tuples, max_k = kernels.gamma_star_exhaustive(
        kernels.bit_enclosures(masks, cores, crossing, nodes), f._mask_set, budget, kmax
    )
    if witness is not None:
        c, s0, chosen = witness
        sets = tuple(NodeSet(m, f.n) for m in (c, s0) + chosen)
        return PropertyReport(name, False, sets, tuples, max_k, False)
    if completed:
        if tuples == 0:
            return _UNTESTED_HOLDS[name]
        return PropertyReport(name, True, None, tuples, max_k, True)
    raise SearchBudgetExceeded(f"{name} search exceeded {budget} configurations")
