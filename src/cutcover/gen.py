"""Deterministic random-instance generation.

Every instance is a pure function of (seed, index): one 64-bit mix seeds a
private RNG per index, so batches are reproducible byte-for-byte and any
one instance can be generated without the ones before it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .certify import AUDIT_MODES
from .errors import GenerationExhausted
from .family import all_covered
from .graph import (
    CapGraph,
    DEFAULT_ENUM_LIMIT,
    Instance,
    check_ground_set,
    cut_table,
    rational,
    small_cut_family,
)

_MASK64 = (1 << 64) - 1

#: graph draws `generate` makes before it gives up on a feasible instance
MAX_RETRIES = 200

#: the most links one instance may draw: `generate` draws them one by one
#: and the solver's work grows faster than their count, so a huge
#: --link-range would never finish
MAX_LINKS = 10_000


def _mix64(seed: int, index: int) -> int:
    """splitmix64 round over seed and index; stable across platforms."""
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RunConfig:
    """Batch parameters; the seed fully determines every generated instance."""

    seed: int = 0
    count: int = 1
    n_range: tuple = (4, 10)
    density_range: tuple = (0.3, 0.7)
    cap_range: tuple = (1, 10)
    link_range: tuple = (3, 14)
    cost_range: tuple = (1, 20)
    lambda_policy: str = "quantile:0.5"
    audit_mode: str = "per-phase"
    enum_limit: int = DEFAULT_ENUM_LIMIT
    allow_infeasible: bool = False
    fail_fast: bool = False

    def __post_init__(self):
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.count < 0:
            raise ValueError("count must be non-negative")
        for name in ("n_range", "density_range", "cap_range", "link_range", "cost_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} is empty: {lo} > {hi}")
        # written so that NaN, for which every comparison is False, fails
        if not (0 <= self.density_range[0] and self.density_range[1] <= 1):
            raise ValueError(f"density_range must lie in [0, 1], got {self.density_range}")
        if self.link_range[0] < 0 or self.link_range[1] > MAX_LINKS:
            raise ValueError(
                f"link_range must lie in [0, {MAX_LINKS}], got {self.link_range}"
            )
        if self.n_range[0] < 2:
            raise ValueError("instances need at least two vertices")
        # both refusals grow with n, so the largest draw decides every draw,
        # before any edge is drawn
        check_ground_set(self.n_range[1], self.enum_limit)
        for name in ("cap_range", "cost_range"):
            if getattr(self, name)[0] < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.audit_mode not in AUDIT_MODES:
            raise ValueError(f"audit_mode must be one of {AUDIT_MODES}, got {self.audit_mode!r}")
        if _parse_lambda_policy(self.lambda_policy)[0] == "quantile":
            # `_pick_threshold` needs two distinct non-trivial cut values: a
            # 2-node graph has one non-trivial cut, and with no edge drawn, or
            # only zero-capacity ones, every cut is 0
            for name, most in (("n_range", 2), ("density_range", 0), ("cap_range", 0)):
                if getattr(self, name)[1] <= most:
                    raise ValueError(
                        f"{name} {getattr(self, name)} has no graph with two distinct cut "
                        f"values, which the lambda policy {self.lambda_policy!r} needs")
            # a quantile threshold keeps the smallest cut in the family, and
            # with no link drawn nothing covers it
            if self.link_range[1] == 0 and not self.allow_infeasible:
                raise ValueError(
                    f"link_range {self.link_range} draws no link, so no instance under the "
                    f"lambda policy {self.lambda_policy!r} is feasible without allow_infeasible")


def _parse_lambda_policy(policy: str):
    kind, _, arg = policy.partition(":")
    if kind not in ("fixed", "quantile"):
        raise ValueError(f"lambda policy must be 'fixed:<q>' or 'quantile:<f>', got {policy!r}")
    value = rational(arg)
    if kind == "fixed":
        return "fixed", value
    if not 0 <= value <= 1:
        raise ValueError(f"quantile must lie in [0, 1], got {arg}")
    return "quantile", value


def _pick_threshold(table, policy_kind: str, policy_arg: Fraction):
    if policy_kind == "fixed":
        return policy_arg
    values, denom = table
    # the distinct non-trivial cut values, as integers over denom
    values = sorted(set(values[1:]))
    if len(values) < 2:
        return None
    idx = int(policy_arg * (len(values) - 1))
    return Fraction(values[max(1, min(len(values) - 1, idx))], denom)


def generate(cfg: RunConfig, index: int) -> tuple:
    """Instance number `index` of the batch and its small-cut family, as
    (Instance, SetFamily); deterministic in (seed, index).

    Feasibility (every small cut crossed by some link) is guaranteed by
    rejection sampling unless cfg.allow_infeasible, in which case the first
    sample is returned as-is. The family is the one the feasibility test
    ran on, equal to `enumerate_small_cuts(inst.graph, inst.threshold,
    cfg.enum_limit)`.
    """
    rng = random.Random(_mix64(cfg.seed, index))
    policy_kind, policy_arg = _parse_lambda_policy(cfg.lambda_policy)
    for _ in range(MAX_RETRIES):
        n = rng.randint(*cfg.n_range)
        density = rng.uniform(*cfg.density_range)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < density:
                    edges.append((u, v, Fraction(rng.randint(*cfg.cap_range))))
        graph = CapGraph(n, tuple(edges))
        table = cut_table(graph, cfg.enum_limit)
        threshold = _pick_threshold(table, policy_kind, policy_arg)
        if threshold is None:
            continue
        family = small_cut_family(n, table, threshold)
        for _ in range(20):
            num_links = rng.randint(*cfg.link_range)
            ends = []
            costs = []
            for _ in range(num_links):
                a = rng.randrange(n)
                b = rng.randrange(n - 1)
                if b >= a:
                    b += 1
                ends.append((a, b))
                costs.append(rng.randint(*cfg.cost_range))
            # links are built only for the draw that is returned
            if cfg.allow_infeasible or all_covered(family, ends):
                specs = [(a, b, c) for (a, b), c in zip(ends, costs)]
                return Instance.build(graph, threshold, specs), family
    raise GenerationExhausted(
        f"no feasible instance for (seed={cfg.seed}, index={index}) "
        f"after {MAX_RETRIES} attempts"
    )


def gen_instance(cfg: RunConfig, index: int) -> Instance:
    """Instance number `index` of the batch, without its family; kept for
    its one caller, `pipebench/workloads.py`."""
    return generate(cfg, index)[0]
