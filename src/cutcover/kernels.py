"""The hot bit-mask scans, on Python ints.

A set over the ground set [0, n) is an int whose bit v is set when v is a
member, so the masks are exact at any ground-set size. A family arrives as
the ascending tuple of the masks to scan (all of its members, or one of
each complement pair when the family is symmetric) plus a set of all its
masks for membership tests. Every scan reports the first violation in
ascending mask order, which fixes the counterexamples the checkers print:
a loop meets it first, and the pair scans' byte lanes (`_lane_corners`),
which test every pair at once, decode the same pair from the highest
failing lane.

A pair (A, B) crosses when all four corners A & B, A - B, B - A and the
outside of A | B are non-empty.
"""

from __future__ import annotations

import sys
from array import array

#: the kernel implementation, recorded with every benchmark timing
BACKEND = "python"


def cut_values(n, edges):
    """The cut value of every mask over {0..n-2}, indexed by the mask, for
    n >= 1. edges are (u, v, integer weight) triples.

    The table doubles once per node k < n-1: for S within {0..k-1},
    cut(S | {k}) = cut(S) + deg(k) - 2 w(k, S), and the row of 2 w(k, S)
    over those S doubles in the same way, once per node below k.
    """
    weight = [[0] * n for _ in range(n)]
    degree = [0] * n
    for u, v, w in edges:
        weight[u][v] += w
        weight[v][u] += w
        degree[u] += w
        degree[v] += w
    vals = [0]
    for k in range(n - 1):
        # twice the weight from k into each subset of {0..k-1}, by mask
        into = [0]
        for w in weight[k][:k]:
            if w:
                w2 = 2 * w
                into += [x + w2 for x in into]
            else:
                into += into
        d = degree[k]
        vals += [v + d - x for v, x in zip(vals, into)]
    return vals


def check_ends(ends, n):
    """The (a, b) endpoint pairs of ends as a list; raises ValueError when
    a link has an endpoint outside the ground set [0, n)."""
    ends = list(ends)
    for a, b in ends:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"link ({a}, {b}) outside ground set [0, {n})")
    return ends


#: per bit b of a byte, the byte translation that maps each byte to the
#: digit b"0" or b"1" of its bit b
_DIGIT = [bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8)]


def node_bits(masks, n):
    """For each node v < n, an int whose bit i is set when masks[i]
    contains v.

    The masks are packed `width` bytes each, little-endian and last first,
    so byte v >> 3 of every mask is a strided slice of the packed bytes;
    translating each byte to the digit of its bit v & 7 spells nodes[v] in
    binary, most significant member first, and int() reads it at C speed.
    """
    if not masks:
        return [0] * n
    if n <= 64:
        packed = array("Q", masks[::-1])
        if sys.byteorder == "big":
            packed.byteswap()
        packed, width = packed.tobytes(), 8
    else:
        width = (n + 7) >> 3
        packed = b"".join(m.to_bytes(width, "little") for m in reversed(masks))
    return [int(packed[v >> 3::width].translate(_DIGIT[v & 7]), 2) for v in range(n)]


def components(ends, n):
    """The masks of the connected components of the graph on [0, n) whose
    edges are the (a, b) pairs of ends, ascending by lowest node; a node no
    pair touches is a component of its own.

    label[v] is the lowest node of v's component, and masks[u] the
    component's mask when u is that lowest node, else 0.
    """
    label = list(range(n))
    masks = [1 << v for v in range(n)]
    for a, b in ends:
        keep, gone = label[a], label[b]
        if keep != gone:
            if keep > gone:
                keep, gone = gone, keep
            m = masks[gone]
            masks[keep] |= m
            masks[gone] = 0
            while m:
                low = m & -m
                label[low.bit_length() - 1] = keep
                m ^= low
    return [m for m in masks if m]


def minimal_indices(live, masks, nodes):
    """The indices, ascending, of the inclusion-minimal members among the
    ascending, distinct masks whose bit is set in live; nodes is
    `node_bits(masks, n)`.

    A proper subset is a smaller int, so the lowest member left is
    minimal; the members that contain it, the AND of nodes[v] over its
    nodes v, drop out with it, and the loop repeats on the rest.
    """
    found = []
    while live:
        i = (live & -live).bit_length() - 1
        found.append(i)
        m = masks[i]
        supersets = live
        while m:
            low = m & -m
            supersets &= nodes[low.bit_length() - 1]
            m ^= low
        live ^= supersets
    return found


#: the fewest masks, all below 256, that the pair scans test in byte lanes
#: (`_lane_corners`) rather than pair by pair. Timed on criterion-3
#: residuals, best of 15, the lanes cost less than the loops from about 16
#: scan masks: 9 against 12 µs at 16-19 masks, 24 against 68 µs at 28-63.
LANE_MASKS = 28

#: the pairs i < j < 256 in colexicographic order, (0, 1), (0, 2), (1, 2),
#: (0, 3), ...: lane p pairs index _LANE_I[p] with index _LANE_J[p], so
#: the pairs among the first k masks are the first k (k - 1) / 2 lanes
_BYTES = bytes(range(256))
_LANE_I = b"".join(_BYTES[:j] for j in range(256))
_LANE_J = b"".join(_BYTES[j:j + 1] * j for j in range(256))
#: bit 0 of every lane
_LANE_BIT0 = int.from_bytes(b"\1" * len(_LANE_I), "little")
#: bit 1 set on every byte but the empty set
_NON_EMPTY = b"\0" + b"\2" * 255


def _lane_corners(masks, members, full):
    """The flags of the corners A & B, A | B, A - B and B - A of every pair
    of the ascending masks, all below 256, one pair per byte lane: bit 0
    when the corner is a member, bit 1 when it is neither empty nor full
    (a full above 255 is no byte, so only the empty set clears it).

    `translate` through the masks, reversed, packs the smaller mask A and
    the larger B of every lane, so lane p holds (masks[k-1-j],
    masks[k-1-i]) for (i, j) = (_LANE_I[p], _LANE_J[p]) and k masks: the
    higher the lane, the earlier a scan in ascending mask order meets its
    pair, and the highest lane that fails is the scan's first violation.
    """
    lanes = len(masks) * (len(masks) - 1) >> 1
    rev = bytes(masks[::-1]).ljust(256, b"\0")
    a = int.from_bytes(_LANE_J[:lanes].translate(rev), "little")
    b = int.from_bytes(_LANE_I[:lanes].translate(rev), "little")
    table = bytearray(_NON_EMPTY)
    if full < 256:
        table[full] = 0
    for m in members:
        if m < 256:
            table[m] = 3
    inter = a & b
    return [int.from_bytes(x.to_bytes(lanes, "little").translate(table), "little")
            for x in (inter, a | b, a ^ inter, b ^ inter)]


def _first_lane(masks, bad):
    """The pair of the highest lane whose bit 0 is set in bad, or None."""
    if not bad:
        return None
    lane = (bad.bit_length() - 1) >> 3
    k = len(masks) - 1
    return masks[k - _LANE_J[lane]], masks[k - _LANE_I[lane]]


def pliable_violation(masks, members):
    """First pair (A, B) with fewer than two of its corners A & B, A | B,
    A - B and B - A in the family, or None.

    Corners equal to the empty set or the ground set are never members, so
    plain membership tests implement the corner-counting rule directly. A
    nested pair has A & B and A | B in the family and a disjoint pair has
    A - B = A and B - A = B, so neither can fail and both are skipped; B is
    the larger mask, so only A can lie inside the other.

    At least `LANE_MASKS` masks, all below 256, are tested in byte lanes
    (`_lane_corners`): a lane fails when A & B and A - B are non-empty and
    at most one corner is a member.
    """
    if len(masks) >= LANE_MASKS and masks[-1] < 256:
        # bit 1 is read only off A & B and A - B, which are never the
        # ground set, so full = 0 flags nothing more than the empty set
        i, u, d1, d2 = _lane_corners(masks, members, 0)
        two = i & u | d1 & d2 | (i | u) & (d1 | d2)
        return _first_lane(masks, (i & d1) >> 1 & _LANE_BIT0 & ~two)
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            inter = a & b
            if inter == a or not inter:
                continue
            # the corners A & B, A | B, A - B, B - A in turn, stopping at
            # the second one that is a member
            if inter in members:
                if (a | b) in members or (a ^ inter) in members or (b ^ inter) in members:
                    continue
            elif (a | b) in members:
                if (a ^ inter) in members or (b ^ inter) in members:
                    continue
            elif (a ^ inter) in members and (b ^ inter) in members:
                continue
            return a, b
    return None


def structsub_violation(masks, members, full):
    """First crossing pair missing both of A & B and A | B, or both of
    A - B and B - A, or None. Nested and disjoint pairs do not cross and
    are skipped as in `pliable_violation`, and so are byte lanes: a lane
    crosses when A & B, A - B and A | B are neither empty nor full."""
    if len(masks) >= LANE_MASKS and masks[-1] < 256:
        i, u, d1, d2 = _lane_corners(masks, members, full)
        return _first_lane(masks, (i & d1 & u) >> 1 & _LANE_BIT0 & ~((i | u) & (d1 | d2)))
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            inter = a & b
            if inter == a or not inter:
                continue
            if (inter in members or (a | b) in members) and (
                (a ^ inter) in members or (b ^ inter) in members
            ):
                continue
            # the pair crosses only when A | B leaves a node out
            if a | b != full:
                return a, b
    return None


def crossing_bits(cores, nodes, live):
    """For each core c of cores, an int whose bit i is set when member i
    is live, meets c and contains neither c nor the rest of the ground
    set; nodes is `node_bits(masks, n)` of the members, and live the bits
    of those that form the family in which each c is minimal.

    A member crosses c when it also meets the rest, which every member of
    that family does, but c. A member outside it may lie inside c, which
    live masks out.

    The live members that meet c without containing it come from c's
    nodes alone; only when there are some, which a one-node core never
    has, are the other nodes walked, to drop those that contain all of
    them.
    """
    found = []
    for c in cores:
        meet = 0
        within = -1
        m = c
        while m:
            low = m & -m
            x = nodes[low.bit_length() - 1]
            meet |= x
            within &= x
            m ^= low
        part = meet & ~within & live
        if part:
            # the members of part that contain every node outside c
            rest = part
            for v, x in enumerate(nodes):
                if not c >> v & 1:
                    rest &= x
            part ^= rest
        found.append(part)
    return found


def bit_enclosures(masks, cores, crossing, nodes):
    """The (C, S0, candidates) a remainder search enumerates: for each core
    C in the order given and each member S0 crossing C, ascending, the
    members crossing C that are proper subsets of S0, ascending; an S0
    without candidates is left out. crossing[k] holds the bits of the
    members crossing cores[k], over the ascending masks whose `node_bits`
    are nodes. A proper subset is a smaller mask, so S0's candidates are
    among the crossers below it, and they are those in no nodes[v] of a
    node v outside S0."""
    for c, crossers in zip(cores, crossing):
        rest = crossers
        while rest:
            low = rest & -rest
            rest ^= low
            cand = crossers & (low - 1)
            s0 = masks[low.bit_length() - 1]
            for v, x in enumerate(nodes):
                if not s0 >> v & 1:
                    cand &= ~x
            if cand:
                found = []
                while cand:
                    i = cand & -cand
                    found.append(masks[i.bit_length() - 1])
                    cand ^= i
                yield c, s0, found


def gamma_star_exhaustive(enclosures, members, budget, kmax):
    """Enumerate remainder-property configurations up to a tuple budget.

    A configuration is a minimal set C, a member S0 crossing C, and k >= 1
    pairwise-disjoint proper subsets of S0 that are members crossing C; it
    passes when S0 minus (union of the subsets and C) is empty or a member.
    kmax bounds k (0 means unbounded). enclosures yields each (C, S0,
    candidates) in turn, as `bit_enclosures` does, and the subsets are
    chosen by a depth-first search over the candidates in ascending order.
    Returns
        (completed, witness, tuples, max_k)
    where witness is (C, S0, subsets) for the first failing configuration
    or None, tuples counts the configurations tested, and completed means
    the whole space was enumerated within budget with no failure.
    """
    tuples = 0
    max_k = 0
    for c, s0, cand in enclosures:
        nc = len(cand)
        # level l holds the next candidate index to try and the union of
        # the l subsets chosen so far
        nxt = [0] * (nc + 1)
        union = [0] * (nc + 1)
        chosen = [0] * nc
        level = 0
        while level >= 0:
            t_idx = nxt[level]
            if t_idx == nc:
                level -= 1
                continue
            nxt[level] = t_idx + 1
            t = cand[t_idx]
            if t & union[level]:
                continue
            chosen[level] = t
            union2 = union[level] | t
            k = level + 1
            tuples += 1
            if k > max_k:
                max_k = k
            rem = s0 & ~(union2 | c)
            if rem and rem not in members:
                return False, (c, s0, tuple(chosen[:k])), tuples, max_k
            if tuples > budget:
                return False, None, tuples, max_k
            if kmax == 0 or k < kmax:
                level += 1
                nxt[level] = t_idx + 1
                union[level] = union2
    return True, None, tuples, max_k
