"""Certification of a solve: laminar witness families, the containment
tree over the crossing witnesses, the core-to-smallest-container mapping,
red-node accounting, and the crossing-density audit.

Audit failures are verdicts inside the report, never exceptions; the only
errors raised here concern malformed inputs (a link outside the ground
set, witness search running out of candidates or budget).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .errors import SearchBudgetExceeded, WitnessSearchExhausted
from .family import SetFamily
from .pd import SolveResult, reverse_delete

DEFAULT_WITNESS_BUDGET = 1_000_000

#: the modes of `audit_run`: every phase, or only the last
AUDIT_MODES = ("per-phase", "final")


def _witness_candidates(j_hat, f_res: SetFamily, table) -> dict:
    """Each link of the cover j_hat to the masks of the members of f_res
    that it crosses and no other link of j_hat does, smallest first and
    ascending among equal sizes.

    A link's candidates are the bits of its column in f_res outside the
    members that two or more cover links cross.
    """
    alone = table.bits(f_res) & ~table.crossed(j_hat)[1]
    # stable, and the members arrive ascending, so ties stay ascending
    return {lid: sorted(table.members(alone & table.cols[lid]), key=int.bit_count)
            for lid in j_hat}


def find_witness_laminar(j_hat, f_res: SetFamily, table,
                         node_budget: int = DEFAULT_WITNESS_BUDGET) -> dict:
    """Backtracking search for a mutually laminar witness selection: each
    link of an inclusion-minimal cover to its witness mask, a residual
    member that this link alone covers.

    Candidates for each link are the residual members covered by that link
    and no other link of the cover (`_witness_candidates`);
    inclusion-minimality of the cover makes every candidate list
    non-empty. Candidates are tried smallest first. table is a
    `crossing_table` over the links of f_res or of a family that f_res is
    part of.
    """
    j_hat = list(j_hat)
    if not j_hat:
        return {}

    candidates = _witness_candidates(j_hat, f_res, table)
    for lid, cand in candidates.items():
        if not cand:
            raise WitnessSearchExhausted(
                f"link {lid} has no witness candidate; the cover is not inclusion-minimal"
            )

    order = sorted(j_hat, key=lambda lid: (len(candidates[lid]), lid))
    lists = [candidates[lid] for lid in order]
    chosen = []  # the witness of order[pos] at each position pos reached
    tried = [0] * len(order)  # the candidates tried at each position
    nodes = 0
    pos = 0
    while pos < len(order):  # a loop, so that no cover is too deep to search
        if tried[pos] == len(lists[pos]):
            if not pos:
                raise WitnessSearchExhausted(
                    "no laminar witness selection exists; this signals a defect"
                )
            tried[pos] = 0
            pos -= 1
            chosen.pop()
            continue
        m = lists[pos][tried[pos]]
        tried[pos] += 1
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceeded(f"witness search exceeded {node_budget} nodes")
        for prev in chosen:
            inter = m & prev
            if inter and inter != m and inter != prev:
                break
        else:
            chosen.append(m)
            pos += 1
    return dict(zip(order, chosen))


def _size_order(m: int):
    return (m.bit_count(), m)


def _build_tree(l_star) -> dict:
    """The containment tree of the masks of l_star, a laminar list, with the
    ground set as root: each mask to its children, ascending. A mask's
    parent is its smallest proper superset in l_star, by size and then by
    mask, or the root when it has none."""
    children = {m: [] for m in l_star}
    for m in l_star:
        parent = min((q for q in l_star if q != m and m & ~q == 0), key=_size_order,
                     default=None)
        if parent is not None:
            children[parent].append(m)
    return {m: sorted(kids) for m, kids in children.items()}


def _psi_map(core_masks, l_star, full: int) -> dict:
    """Each core mask to the smallest mask of l_star containing it, by size
    and then by mask; to full, the ground set, when none does."""
    return {
        c: min((s for s in l_star if c & ~s == 0), key=_size_order, default=full)
        for c in core_masks
    }


@dataclass(frozen=True)
class AuditReport:
    """Per-phase crossing-density audit.

    passed requires: the witness map re-checks (membership,
    uniqueness, laminarity), every witness set crosses at most one core,
    the crossing-witness count is at most twice the core count, and the
    three tree lemmas (red cover, empty remainder, disjoint child) hold.
    """

    phase: int
    num_cores: int
    lhat_size: int
    lstar_size: int
    crossing_pairs: int
    witness_valid: bool
    sparse_crossing_ok: bool
    density_bound_ok: bool
    red_cover_ok: bool
    empty_remainder_ok: bool
    disjoint_child_ok: bool
    passed: bool


def crossing_density_audit(phase: int, f_res: SetFamily, witness: dict,
                           links, core_family: SetFamily) -> AuditReport:
    """Audit one phase's residual family against the witness map, each
    cover link id to its witness mask; core_family holds the
    inclusion-minimal members of f_res.

    Every set is a mask. The witness re-check runs from scratch: each
    witness must be a member of f_res that exactly one cover link, its own,
    crosses, by the parity of the link's endpoints in the mask.
    """
    n = f_res.n
    full = (1 << n) - 1
    core_masks = core_family.masks

    j_hat = sorted(witness)
    ends = kernels.check_ends([(links[j].a, links[j].b) for j in j_hat], n)
    witness_valid = True
    for lid, s in witness.items():
        if not f_res.contains_mask(s):
            witness_valid = False
            break
        delta = [j for j, (a, b) in zip(j_hat, ends) if ((s >> a) ^ (s >> b)) & 1]
        if delta != [lid]:
            witness_valid = False
            break
    l_hat = [witness[lid] for lid in j_hat]
    if witness_valid:
        for i, s in enumerate(l_hat):
            if any(s & t and s & t != s and s & t != t for t in l_hat[i + 1:]):
                witness_valid = False
                break

    crossing_of = {
        s: [c for c in core_masks if s & c and s & ~c and c & ~s and full & ~(s | c)]
        for s in l_hat
    }
    l_star = [s for s in l_hat if crossing_of[s]]
    crossing_pairs = sum(len(v) for v in crossing_of.values())
    sparse_ok = all(len(v) <= 1 for v in crossing_of.values())
    density_ok = len(l_star) <= 2 * len(core_masks)

    red_ok = remainder_ok = disjoint_ok = witness_valid and sparse_ok
    if red_ok and l_star:
        red = set(_psi_map(core_masks, l_star, full).values())
        # witness_valid holds, so l_star, a part of l_hat, is laminar
        children = _build_tree(l_star)
        for s0 in l_star:
            # each lemma speaks only of a crossing witness that is not red
            if s0 in red:
                continue
            c0 = crossing_of[s0][0]
            kids = children[s0]
            if not any(k in red for k in kids):
                red_ok = False
            crossed_kids = [k for k in kids
                            if k & c0 and k & ~c0 and c0 & ~k and full & ~(k | c0)]
            remainder = s0 & ~c0
            for k in crossed_kids:
                remainder &= ~k
            if not crossed_kids or remainder:
                remainder_ok = False
            if any(not k & c0 for k in kids):
                disjoint_ok = False

    passed = (
        witness_valid
        and sparse_ok
        and density_ok
        and red_ok
        and remainder_ok
        and disjoint_ok
    )
    return AuditReport(
        phase=phase,
        num_cores=len(core_masks),
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


def audit_run(links, result: SolveResult, mode: str = "per-phase"):
    """Audit every phase of a solve of links (or only the last, mode="final").

    Each phase is audited on the residual family and cores its trace
    recorded, against the final solution pruned to an inclusion-minimal
    cover of those cores. The reverse delete and the witness candidates
    read the columns of the solve's crossing table: the members each link
    crosses.
    """
    if mode not in AUDIT_MODES:
        raise ValueError(f"audit mode must be one of {AUDIT_MODES}, got {mode!r}")
    reports = []
    for pt in result.trace if mode == "per-phase" else result.trace[-1:]:
        j_hat = reverse_delete(result.solution, pt.cores_snapshot, result.table)
        witness = find_witness_laminar(j_hat, pt.residual, result.table)
        reports.append(crossing_density_audit(pt.phase, pt.residual, witness, links,
                                              pt.cores_snapshot))
    return reports
