"""Reference implementations on NodeSet and Fraction objects, written from
the definitions, that the int-mask and scaled-integer code is tested
against."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from cutcover import AuditReport, NodeSet, SetFamily
from cutcover.cli import instance_to_obj


def dump_instance(inst) -> str:
    """The instance as one compact JSON object, as `cutcover gen` writes it."""
    return json.dumps(instance_to_obj(inst), separators=(",", ":"))


def minimal(masks) -> list:
    """The inclusion-minimal masks among the distinct masks, in their
    order: those that no other mask is a subset of."""
    return [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]


def cores(f: SetFamily) -> SetFamily:
    """Inclusion-minimal members of f, by `minimal`."""
    return SetFamily._from_sorted(f.n, minimal(f.masks))


def crosses(a: NodeSet, b: NodeSet) -> bool:
    """A and B cross when all four corners A & B, A - B, B - A and
    V - (A | B) are non-empty, V being the ground set [0, n)."""
    sa, sb = set(a), set(b)
    return all((sa & sb, sa - sb, sb - sa, set(range(a.n)) - (sa | sb)))


def cut_capacity(g, s: NodeSet) -> Fraction:
    """Total capacity of the edges of g with exactly one endpoint in s."""
    if s.n != g.n:
        raise ValueError(f"set over ground {s.n} against graph of size {g.n}")
    inside = set(s)
    return sum((cap for u, v, cap in g.edges if (u in inside) != (v in inside)), Fraction(0))


def covers(link, s: NodeSet) -> bool:
    """True when exactly one endpoint of the link lies in s."""
    inside = set(s)
    return (link.a in inside) != (link.b in inside)


def delta_links(s: NodeSet, links) -> frozenset:
    """Ids of the links with exactly one endpoint in s."""
    return frozenset(link.id for link in links if covers(link, s))


def covered(f: SetFamily, links) -> bool:
    """Every member of f has some link with exactly one endpoint in it."""
    return all(any(covers(link, NodeSet(m, f.n)) for link in links) for m in f.masks)


def reverse_delete(order, f: SetFamily, links) -> list:
    """The ids of order, kept in order, after dropping each link, the last
    added first, whenever the links still kept without it cover f."""
    kept = list(order)
    for lid in reversed(order):
        rest = [i for i in kept if i != lid]
        if covered(f, [links[i] for i in rest]):
            kept = rest
    return kept


def exact_optimum(links, f: SetFamily, warm_solution=None) -> tuple:
    """The branch and bound of `cutcover.exact.exact_optimum` as it stood
    with member-list nodes, frozen: each node lists the indices of its
    uncovered members and takes their cores from `minimal`;
    crossing rows come from endpoint parity. Returns (opt_cost, opt_links,
    nodes_explored); warm_solution is a solve's solution, the first
    incumbent when it covers f."""
    masks = f.masks
    if not masks:
        return Fraction(0), (), 0
    cover_bits = [sum(1 << k for k, link in enumerate(links)
                      if ((m >> link.a) ^ (m >> link.b)) & 1) for m in masks]
    denom = lcm(*(link.cost.denominator for link in links))
    costs = [link.cost.numerator * (denom // link.cost.denominator) for link in links]
    by_cost = sorted(range(len(links)), key=lambda lid: (costs[lid], lid))

    best_cost = None
    best_set = None
    if warm_solution is not None:
        chosen = sum(1 << lid for lid in warm_solution)
        if all(bits & chosen for bits in cover_bits):
            best_cost = sum(costs[lid] for lid in warm_solution)
            best_set = tuple(sorted(warm_solution))

    nodes = 0

    def search(chosen, cost, forbidden, rows, added):
        nonlocal best_cost, best_set, nodes
        nodes += 1
        if best_cost is not None and cost >= best_cost:
            return
        uncovered = [i for i in rows if not cover_bits[i] & added]
        if not uncovered:
            best_cost = cost
            best_set = tuple(lid for lid in range(len(links)) if (chosen >> lid) & 1)
            return
        core_masks = set(minimal([masks[i] for i in uncovered]))
        branch_bits = None
        branch_count = 0
        bound = 0
        bound_links = 0
        for i in uncovered:
            if masks[i] not in core_masks:
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
    return Fraction(best_cost, denom), best_set, nodes


def link_components(ends, n: int) -> list:
    """Connected components of the graph on [0, n) whose edges are the
    (a, b) pairs of ends, as frozensets, by breadth-first search from each
    node not yet reached, in ascending order."""
    adj = {v: set() for v in range(n)}
    for a, b in ends:
        adj[a].add(b)
        adj[b].add(a)
    reached, comps = set(), []
    for start in range(n):
        if start in reached:
            continue
        comp, queue = {start}, [start]
        for v in queue:
            for w in adj[v] - comp:
                comp.add(w)
                queue.append(w)
        reached |= comp
        comps.append(frozenset(comp))
    return comps


def load(y: dict, link, n: int) -> Fraction:
    """Total dual weight pressing on a link: the sum of y over the masks,
    as sets over [0, n), that it has exactly one endpoint in."""
    acc = Fraction(0)
    for m, val in y.items():
        if covers(link, NodeSet(m, n)):
            acc += val
    return acc


def _laminar_pair(a: int, b: int) -> bool:
    inter = a & b
    return inter == 0 or inter == a or inter == b


@dataclass(frozen=True)
class WitnessTree:
    """Rooted containment tree over the crossing witness sets plus the
    ground set; a node is red when some core maps to its set."""

    n: int
    root: NodeSet
    parent: dict
    children: dict
    red: frozenset


def build_tree(l_star: SetFamily, red=frozenset()) -> WitnessTree:
    """Containment tree of the family plus the ground set as root."""
    n = l_star.n
    masks = l_star.masks
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if not _laminar_pair(a, b):
                raise ValueError(f"{NodeSet(a, n)} and {NodeSet(b, n)} partially overlap")
    root = NodeSet((1 << n) - 1, n)
    parent = {}
    for m in masks:
        supersets = [q for q in masks if q != m and m & ~q == 0]
        if supersets:
            best = min(supersets, key=lambda q: (q.bit_count(), q))
            parent[NodeSet(m, n)] = NodeSet(best, n)
        else:
            parent[NodeSet(m, n)] = root
    children = {node: [] for node in list(parent) + [root]}
    for child, par in parent.items():
        children[par].append(child)
    children = {node: tuple(sorted(kids, key=lambda s: s.bits)) for node, kids in children.items()}
    return WitnessTree(n, root, parent, children, frozenset(red))


def psi_map(core_family: SetFamily, l_star: SetFamily) -> dict:
    """Each core to the smallest crossing-witness set containing it (the
    ground set when none does)."""
    if core_family.n != l_star.n:
        raise ValueError("mixed ground sets")
    n = l_star.n
    result = {}
    for c in core_family.masks:
        containers = [s for s in l_star.masks if c & ~s == 0]
        if containers:
            best = min(containers, key=lambda s: (s.bit_count(), s))
            result[NodeSet(c, n)] = NodeSet(best, n)
        else:
            result[NodeSet(c, n)] = NodeSet((1 << n) - 1, n)
    return result


def crossing_density_audit(phase, f_res: SetFamily, witness: dict, links, core_family=None):
    """The per-phase crossing-density audit on NodeSets, with `covers`
    deciding every witness's crossing links; witness maps each cover link
    id to its witness mask."""
    n = f_res.n
    if core_family is None:
        core_family = cores(f_res)
    core_sets = [NodeSet(m, n) for m in core_family.masks]

    j_hat = sorted(witness)
    sets = {lid: NodeSet(m, n) for lid, m in witness.items()}
    witness_valid = True
    for lid, s in sets.items():
        if not f_res.contains_mask(s.bits):
            witness_valid = False
            break
        delta = [j for j in j_hat if covers(links[j], s)]
        if delta != [lid]:
            witness_valid = False
            break
    l_hat = [sets[lid] for lid in j_hat]
    if witness_valid:
        for i, s in enumerate(l_hat):
            for t in l_hat[i + 1:]:
                if not _laminar_pair(s.bits, t.bits):
                    witness_valid = False
                    break
            if not witness_valid:
                break

    crossing_of = {s: [c for c in core_sets if crosses(s, c)] for s in l_hat}
    l_star = [s for s in l_hat if crossing_of[s]]
    crossing_pairs = sum(len(v) for v in crossing_of.values())
    sparse_ok = all(len(v) <= 1 for v in crossing_of.values())
    density_ok = len(l_star) <= 2 * len(core_sets)

    red_ok = remainder_ok = disjoint_ok = witness_valid and sparse_ok
    if witness_valid and sparse_ok:
        l_star_family = SetFamily(n, [s.bits for s in l_star])
        psi = psi_map(core_family, l_star_family)
        red = frozenset(psi.values())
        tree = build_tree(l_star_family, red)
        for s0 in l_star:
            c0 = crossing_of[s0][0]
            kids = tree.children[s0]
            is_red = s0 in red
            if not is_red and not any(k in red for k in kids):
                red_ok = False
            if not is_red:
                crossed_kids = [k for k in kids if crosses(k, c0)]
                remainder = s0.bits & ~c0.bits
                for k in crossed_kids:
                    remainder &= ~k.bits
                if not crossed_kids or remainder != 0:
                    remainder_ok = False
            if any((k.bits & c0.bits) == 0 for k in kids) and not is_red:
                disjoint_ok = False

    passed = (
        witness_valid
        and sparse_ok
        and density_ok
        and red_ok
        and remainder_ok
        and disjoint_ok
        and crossing_pairs == len(l_star)
    )
    return AuditReport(
        phase=phase,
        num_cores=len(core_sets),
        lhat_size=len(l_hat),
        lstar_size=len(l_star),
        crossing_pairs=crossing_pairs,
        witness_valid=witness_valid,
        sparse_crossing_ok=sparse_ok,
        density_bound_ok=density_ok,
        red_cover_ok=red_ok,
        empty_remainder_ok=remainder_ok,
        disjoint_child_ok=disjoint_ok,
        passed=passed,
    )
