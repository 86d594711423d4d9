"""The benchmark's workloads: how each turns a seed into a stream of items,
what one item is, and how its output is checked.

Items are driven only through the package's public functions, looked up as
module attributes at call time so that the tracer's wrappers see them.
Streams are unbounded in instance index, so a timed run meets as many
distinct instances as it has time for; a traced pass covers the first
`pass_instances` indices.
"""

from __future__ import annotations

import itertools
import random

from cutcover import cli, family, gen, graph

DEFAULT_SEED = 20250809

#: generator settings of the acceptance batch (tests/test_acceptance.py BATCH)
ACCEPT_CONFIG = dict(
    count=500,
    n_range=(4, 10),
    density_range=(0.15, 0.7),
    cap_range=(1, 10),
    link_range=(3, 14),
    cost_range=(1, 20),
    lambda_policy="quantile:0.5",
    audit_mode="per-phase",
)

#: the acceptance generator at n 14-20 with the threshold at the 5% quantile
LARGE_N_CONFIG = dict(ACCEPT_CONFIG, count=10, n_range=(14, 20), lambda_policy="quantile:0.05")

#: ground-set sizes of the lemma instances, and residuals per instance
LEMMA_N = (4, 5, 6, 7, 8)
LEMMA_RESIDUALS = 50
#: instances in a traced lemma pass, 70 of each n
LEMMA_PASS = 350

CHECKERS = (
    "check_symmetry",
    "check_pliable",
    "check_structural_submodularity",
    "check_disjoint_cores",
    "check_sparse_crossing",
    "check_gamma_star",
)


def _indices(instances: int | None):
    return itertools.count() if instances is None else range(instances)


class PipelineWorkload:
    """One item is one `cli.pipeline_record`, for instance index 0, 1, 2, ...

    Every record must pass. Every block of `count` consecutive records is
    summarised and reported as `cutcover bench` does for a batch, and the
    summary must report all_passed.
    """

    def __init__(self, config: dict):
        self.config = config

    def build(self, seed: int):
        return gen.RunConfig(seed=seed, **self.config)

    def pass_instances(self, cfg) -> int:
        return cfg.count

    def batch_size(self, cfg) -> int | None:
        return cfg.count

    def payloads(self, cfg, instances: int | None = None):
        return ((cfg, index) for index in _indices(instances))

    def run(self, payload):
        cfg, index = payload
        return cli.pipeline_record(cfg, index)

    def check(self, record) -> bool:
        return record["pass"] is True

    def check_batch(self, records) -> bool:
        summary = cli._summarize(records)
        cli.report_lines(records, summary)
        return summary["all_passed"] is True

    def same(self, first, second) -> bool:
        """Byte-identical JSON-lines reports, as acceptance criterion 7 asks."""
        return cli.report_lines(first, cli._summarize(first)) == cli.report_lines(
            second, cli._summarize(second)
        )


class LemmaWorkload:
    """One item is one instance's residual families, each run through all
    six checkers: its small-cut family and 50 seeded random-link residuals
    of it, built as acceptance criterion 3 builds them. Every checker must
    hold on every family.

    Criterion 3 keeps the acceptance instances with n <= 8, so n is uniform
    on 4..8; here instance i has n = 4 + i % 5, which gives the same
    distribution without the run-to-run noise of a random n mix (an n = 8
    item costs about 20 times an n = 4 item).
    """

    def build(self, seed: int):
        return {n: gen.RunConfig(seed=seed, **dict(ACCEPT_CONFIG, n_range=(n, n)))
                for n in LEMMA_N}

    def pass_instances(self, configs) -> int:
        return LEMMA_PASS

    def batch_size(self, configs) -> None:
        """No batch summary: the checkers' verdicts are the whole output."""
        return None

    def payloads(self, configs, instances: int | None = None):
        for index in _indices(instances):
            cfg = configs[LEMMA_N[index % len(LEMMA_N)]]
            inst = gen.gen_instance(cfg, index)
            n = inst.graph.n
            base = graph.enumerate_small_cuts(inst.graph, inst.threshold, cfg.enum_limit)
            families = [base]
            rng = random.Random(cfg.seed ^ (index * 0x9E37))
            for _ in range(LEMMA_RESIDUALS):
                pairs = []
                for _ in range(rng.randint(0, n)):
                    a = rng.randrange(n)
                    b = rng.randrange(n - 1)
                    if b >= a:
                        b += 1
                    pairs.append((a, b))
                links = [graph.Link(a, b, 1, k) for k, (a, b) in enumerate(pairs)]
                families.append(family.residual(base, links))
            yield families

    def run(self, families):
        return [[getattr(family, name)(f) for name in CHECKERS] for f in families]

    def check(self, reports) -> bool:
        return all(r.holds is True for per_family in reports for r in per_family)

    def same(self, first, second) -> bool:
        return first == second


WORKLOADS = {
    "accept": PipelineWorkload(ACCEPT_CONFIG),
    "large_n": PipelineWorkload(LARGE_N_CONFIG),
    "lemma": LemmaWorkload(),
}
