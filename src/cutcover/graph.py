"""Capacitated graphs, cut tables and small-cut enumeration.

All capacities, costs and thresholds are exact rationals, and node ids,
node counts and masks exact integers: every constructor reads them by
`rational` and `exact_int`, the one rule for what counts as either, so
that tightness comparisons downstream are exact.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from typing import Iterator

from . import kernels
from .errors import GroundSetTooLarge

DEFAULT_ENUM_LIMIT = 20

#: the most memory a `cut_table` may take, in bytes
CUT_TABLE_BYTES = 1 << 30


def rational(value) -> Fraction:
    """The exact rational a Fraction, an int or a "p/q" string stands for.

    A bool, a float, whose binary value is not the decimal it prints, or any
    other type raises TypeError. A string with an exponent ("1e99999999"
    alone would build a 330M-bit integer), a zero denominator or no number
    raises ValueError. Both messages show the value."""
    if type(value) is Fraction:
        return value
    if type(value) is bool or not isinstance(value, (int, str, Fraction)):
        raise TypeError(f"exact rational required: an int or a 'p/q' string, got {value!r}")
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise ValueError(f"a rational may not carry an exponent, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a 'p/q' rational with a non-zero denominator: {value!r}") from None


def exact_int(value) -> int:
    """A node id, count or mask: `operator.index`, which refuses a float or
    a string, but refusing a bool too, so that True is never node 1."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"an integer is required, got {value!r}")


class NodeSet:
    """Read-only view of a mask over the ground set [0, n), for error
    messages and counterexamples; all set work is done on the int masks."""

    __slots__ = ("bits", "n")

    def __init__(self, bits: int, n: int):
        bits = exact_int(bits)
        n = exact_int(n)
        if n < 0:
            raise ValueError("ground-set size must be non-negative")
        if bits < 0 or bits >> n:
            raise ValueError(f"mask {bits:#x} has members outside the ground set [0, {n})")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("NodeSet is immutable")

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __eq__(self, other) -> bool:
        return isinstance(other, NodeSet) and self.bits == other.bits and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.bits, self.n))

    def __repr__(self) -> str:
        return f"NodeSet({{{', '.join(map(str, self))}}}, n={self.n})"


@dataclass(frozen=True)
class Link:
    """Priced candidate edge; id is its position in the instance link list."""

    a: int
    b: int
    cost: Fraction
    id: int

    def __post_init__(self):
        object.__setattr__(self, "a", exact_int(self.a))
        object.__setattr__(self, "b", exact_int(self.b))
        object.__setattr__(self, "cost", rational(self.cost))
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
        object.__setattr__(self, "n", exact_int(self.n))
        if self.n < 0:
            raise ValueError(f"the node count n must be non-negative, got {self.n}")
        canon = []
        for u, v, cap in self.edges:
            u, v, cap = exact_int(u), exact_int(v), rational(cap)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside ground set [0, {self.n})")
            if cap < 0:
                raise ValueError(f"edge ({u}, {v}) has negative capacity {cap}")
            canon.append((u, v, cap))
        object.__setattr__(self, "edges", tuple(canon))


@dataclass(frozen=True)
class Instance:
    """A capacitated graph, a cut threshold and the priced links."""

    graph: CapGraph
    threshold: Fraction
    links: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "threshold", rational(self.threshold))
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
    threshold = rational(threshold)
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
    return small_cut_family(g.n, cut_table(g, limit), threshold)

