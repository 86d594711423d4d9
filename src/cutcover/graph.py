"""Capacitated graphs, node subsets, cut evaluation and small-cut enumeration.

All capacities, costs and thresholds are exact rationals; floats are
rejected at construction time so that tightness comparisons downstream are
exact.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Iterable, Iterator

from . import kernels
from .errors import GroundSetTooLarge

DEFAULT_ENUM_LIMIT = 20

#: the most memory a `cut_table` may take, in bytes
CUT_TABLE_BYTES = 1 << 30


def _rat(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("exact rational required, got float; pass Fraction, int or 'p/q' string")
    return Fraction(value)


class NodeSet:
    """Immutable subset of the ground set [0, n), stored as a bit mask."""

    __slots__ = ("bits", "n")

    def __init__(self, bits: int, n: int):
        bits = int(bits)
        if n < 0:
            raise ValueError("ground-set size must be non-negative")
        if bits < 0 or bits >> n:
            raise ValueError(f"mask {bits:#x} has members outside the ground set [0, {n})")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("NodeSet is immutable")

    @classmethod
    def of(cls, n: int, *elements: int) -> "NodeSet":
        return cls.from_iterable(n, elements)

    @classmethod
    def from_iterable(cls, n: int, elements: Iterable[int]) -> "NodeSet":
        bits = 0
        for v in elements:
            if not 0 <= v < n:
                raise ValueError(f"element {v} outside ground set [0, {n})")
            bits |= 1 << v
        return cls(bits, n)

    @classmethod
    def empty(cls, n: int) -> "NodeSet":
        return cls(0, n)

    @classmethod
    def full(cls, n: int) -> "NodeSet":
        return cls((1 << n) - 1, n)

    def complement(self) -> "NodeSet":
        return NodeSet(self.bits ^ ((1 << self.n) - 1), self.n)

    def _check(self, other: "NodeSet") -> None:
        if not isinstance(other, NodeSet):
            raise TypeError(f"expected NodeSet, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"mixed ground sets: {self.n} vs {other.n}")

    def __or__(self, other: "NodeSet") -> "NodeSet":
        self._check(other)
        return NodeSet(self.bits | other.bits, self.n)

    def __and__(self, other: "NodeSet") -> "NodeSet":
        self._check(other)
        return NodeSet(self.bits & other.bits, self.n)

    def __sub__(self, other: "NodeSet") -> "NodeSet":
        self._check(other)
        return NodeSet(self.bits & ~other.bits, self.n)

    def __le__(self, other: "NodeSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "NodeSet") -> bool:
        return self <= other and self.bits != other.bits

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, NodeSet) and self.bits == other.bits and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.bits, self.n))

    def __repr__(self) -> str:
        return f"NodeSet({{{', '.join(map(str, self))}}}, n={self.n})"


def crosses(a: NodeSet, b: NodeSet) -> bool:
    """True when all four corner regions of the pair are non-empty."""
    a._check(b)
    full = (1 << a.n) - 1
    return (
        a.bits & b.bits != 0
        and a.bits & ~b.bits != 0
        and b.bits & ~a.bits != 0
        and full & ~(a.bits | b.bits) != 0
    )


@dataclass(frozen=True)
class Link:
    """Priced candidate edge; id is its position in the instance link list."""

    a: int
    b: int
    cost: Fraction
    id: int

    def __post_init__(self):
        object.__setattr__(self, "cost", _rat(self.cost))
        if self.a == self.b:
            raise ValueError(f"link {self.id} is a self-loop on node {self.a}")
        if self.a < 0 or self.b < 0:
            raise ValueError("link endpoints must be non-negative")
        if self.cost < 0:
            raise ValueError(f"link {self.id} has negative cost {self.cost}")


@dataclass(frozen=True)
class CapGraph:
    """Undirected capacitated graph; parallel edges allowed, self-loops not."""

    n: int
    edges: tuple = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"the node count n must be non-negative, got {self.n}")
        canon = []
        for u, v, cap in self.edges:
            cap = _rat(cap)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside ground set [0, {self.n})")
            if cap < 0:
                raise ValueError(f"edge ({u}, {v}) has negative capacity {cap}")
            canon.append((int(u), int(v), cap))
        object.__setattr__(self, "edges", tuple(canon))


@dataclass(frozen=True)
class Instance:
    """A capacitated graph, a cut threshold and the priced links."""

    graph: CapGraph
    threshold: Fraction
    links: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "threshold", _rat(self.threshold))
        object.__setattr__(self, "links", tuple(self.links))
        for pos, link in enumerate(self.links):
            if link.id != pos:
                raise ValueError(f"link at position {pos} carries id {link.id}")
            if link.a >= self.graph.n or link.b >= self.graph.n:
                raise ValueError(f"link ({link.a}, {link.b}) outside ground set")

    @classmethod
    def build(cls, graph: CapGraph, threshold, link_specs) -> "Instance":
        """Construct from (a, b, cost) triples, assigning positional ids."""
        links = tuple(Link(a, b, cost, i) for i, (a, b, cost) in enumerate(link_specs))
        return cls(graph, threshold, links)


def cut_capacity(g: CapGraph, s: NodeSet) -> Fraction:
    """Total capacity of edges with exactly one endpoint in s."""
    if s.n != g.n:
        raise ValueError(f"set over ground {s.n} against graph of size {g.n}")
    total = Fraction(0)
    bits = s.bits
    for u, v, cap in g.edges:
        if ((bits >> u) ^ (bits >> v)) & 1:
            total += cap
    return total


def covers(link: Link, s: NodeSet) -> bool:
    """True when exactly one endpoint of the link lies in s."""
    if link.a >= s.n or link.b >= s.n:
        raise ValueError(f"link ({link.a}, {link.b}) outside ground set [0, {s.n})")
    return ((s.bits >> link.a) ^ (s.bits >> link.b)) & 1 == 1


def delta_links(s: NodeSet, links) -> frozenset:
    """Ids of the links with exactly one endpoint in s."""
    return frozenset(link.id for link in links if covers(link, s))


def check_ground_set(n: int, limit: int, total_weight: int = 0) -> None:
    """Raise GroundSetTooLarge when a `cut_table` over n nodes exceeds the
    enumeration limit, or CUT_TABLE_BYTES when its total weight, an int
    over the common denominator, is total_weight; the default 0 gives the
    smallest entry, so a ground set it refuses is refused whatever the
    edges."""
    if n > limit:
        raise GroundSetTooLarge(f"ground set of size {n} exceeds enumeration limit {limit}")
    # a list slot and an int as wide as the total weight per entry, twice:
    # the last doubling step holds two half-size rows beside the table
    entry_bytes = 2 * (8 + sys.getsizeof(total_weight))
    # 2^(n-1) entries fit when n-1 is below the bit length of the entry budget
    if n - 1 >= (CUT_TABLE_BYTES // entry_bytes).bit_length():
        raise GroundSetTooLarge(
            f"a cut table over {n} nodes needs 2^{n - 1} entries of about "
            f"{entry_bytes} bytes, more than the budget of {CUT_TABLE_BYTES} bytes"
        )


def cut_table(g: CapGraph, limit: int = DEFAULT_ENUM_LIMIT):
    """Every cut of g, indexed by mask.

    Returns (values, denom): values[mask] is the cut capacity of each
    subset of {0..n-2} times denom, the common denominator of the
    capacities, as an int. Every other non-trivial set is the complement of
    one of these and has the same cut. Raises GroundSetTooLarge before
    building anything when `check_ground_set` refuses g.
    """
    # refused by size alone before the capacities are scaled, then by width
    check_ground_set(g.n, limit)
    denom = lcm(*(cap.denominator for _, _, cap in g.edges))
    edges = [(u, v, cap.numerator * (denom // cap.denominator)) for u, v, cap in g.edges]
    check_ground_set(g.n, limit, sum(w for _, _, w in edges))
    if g.n == 0:
        return [], denom
    return kernels.cut_values(g.n, edges), denom


def small_cut_family(n: int, table, threshold):
    """The non-trivial sets of a `cut_table` over [0, n) whose cut capacity
    is strictly below the threshold; symmetric by construction."""
    from .family import SetFamily

    values, denom = table
    threshold = _rat(threshold)
    # an integer cut v has v / denom < threshold exactly when v < lam
    lam = ceil(threshold * denom)
    full = (1 << n) - 1
    small = [m for m, v in enumerate(values) if v < lam and m]
    # the complements all contain node n-1, so they follow the small masks,
    # and reversing the small masks puts them in ascending order
    return SetFamily._from_sorted(n, small + [full ^ m for m in reversed(small)])


def enumerate_small_cuts(g: CapGraph, threshold, limit: int = DEFAULT_ENUM_LIMIT):
    """The family of non-trivial sets whose cut capacity is strictly below
    the threshold; symmetric by construction."""
    threshold = _rat(threshold)
    return small_cut_family(g.n, cut_table(g, limit), threshold)

