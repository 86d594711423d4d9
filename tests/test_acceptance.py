"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. All tolerances are exact (rational arithmetic, zero
tolerance); the batch is fully determined by the seed below.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import random
import time
from fractions import Fraction

import pytest

from cutcover import (
    Link,
    NodeSet,
    check_disjoint_cores,
    check_gamma_star,
    check_pliable,
    check_sparse_crossing,
    check_structural_submodularity,
    check_symmetry,
    enumerate_small_cuts,
    exact_optimum,
    gen_instance,
    residual,
    solve,
)
from cutcover.cli import main, report_lines, run_pipeline
from cutcover.gen import RunConfig
from cutcover.graph import cut_table
from conftest import random_graph, random_instance
from test_exact import naive_optimum
from reference import cut_capacity

BATCH = RunConfig(
    seed=20250809,
    count=500,
    n_range=(4, 10),
    density_range=(0.15, 0.7),
    cap_range=(1, 10),
    link_range=(3, 14),
    cost_range=(1, 20),
    lambda_policy="quantile:0.5",
    audit_mode="per-phase",
)


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def batch():
    t0 = time.time()
    records, summary = run_pipeline(BATCH)
    return {"records": records, "summary": summary, "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def replays():
    """Instances, families and solve traces regenerated from the batch seed."""
    out = []
    for index in range(BATCH.count):
        inst = gen_instance(BATCH, index)
        family = enumerate_small_cuts(inst.graph, inst.threshold, BATCH.enum_limit)
        result = solve(inst.links, family)
        out.append((index, inst, family, result))
    return out


def test_criterion_1_factor_five_guarantee(batch):
    records = batch["records"]
    ok = len(records) >= 500 and all(r["feasible"] for r in records)
    worst = Fraction(0)
    for r in records:
        cost = Fraction(r["cost"])
        dual = Fraction(r["dual_total"])
        opt = Fraction(r["opt_cost"])
        q = Fraction(r["ratio"])
        worst = max(worst, q)
        ok = ok and q <= 5 and cost <= 5 * dual and dual <= opt
    _verdict(
        "criterion 1 (ratio <= 5, cost <= 5*dual, dual <= opt)",
        ok,
        f"{len(records)} feasible instances, max ratio {worst}, "
        f"batch wall time {batch['elapsed']:.1f}s",
    )


def test_criterion_2_crossing_density_bound(batch):
    records = batch["records"]
    ok = True
    max_quotient = Fraction(0)
    phases = 0
    for r in records:
        for audit in r["audits"]:
            phases += 1
            ok = ok and audit["density_bound"] and audit["lstar"] <= 2 * audit["num_cores"]
            ok = ok and audit["crossing_pairs"] == audit["lstar"]
            if audit["num_cores"]:
                max_quotient = max(max_quotient, Fraction(audit["lstar"], audit["num_cores"]))
    recorded = batch["summary"]["max_density_quotient"]
    ok = ok and recorded is not None and Fraction(recorded) == max_quotient and max_quotient <= 2
    _verdict(
        "criterion 2 (|L*| <= 2|cores| per phase)",
        ok,
        f"{phases} phases audited, max |L*|/|cores| = {max_quotient}",
    )


def test_criterion_3_lemma_suite(replays):
    checked = 0
    ok = True
    for index, inst, family, _ in replays:
        n = inst.graph.n
        if n > 8:
            continue
        rng = random.Random(BATCH.seed ^ (index * 0x9E37))
        trials = [family]
        for _ in range(50):
            pairs = []
            for _ in range(rng.randint(0, n)):
                a = rng.randrange(n)
                b = rng.randrange(n - 1)
                if b >= a:
                    b += 1
                pairs.append((a, b))
            links = [Link(a, b, 1, k) for k, (a, b) in enumerate(pairs)]
            trials.append(residual(family, links))
        for f in trials:
            checked += 1
            ok = ok and check_symmetry(f).holds
            ok = ok and check_pliable(f).holds
            ok = ok and check_structural_submodularity(f).holds
            ok = ok and check_disjoint_cores(f).holds
            ok = ok and check_sparse_crossing(f).holds
            if not ok:
                break
        if not ok:
            break
    _verdict(
        "criterion 3 (symmetry/pliable/submodularity/cores/sparse on residuals)",
        ok,
        f"{checked} families checked exhaustively (instances with n <= 8)",
    )


def test_criterion_4_remainder_property(replays):
    checked = 0
    ok = True
    for _, inst, family, result in replays:
        picked = []
        for pt in result.trace:
            f_res = residual(family, [inst.links[i] for i in picked])
            picked.extend(pt.tight_link_ids)
            rep = check_gamma_star(f_res, budget=10**5)
            ok = ok and rep.holds and rep.exhaustive
            checked += 1
            if not ok:
                break
        if not ok:
            break
    _verdict(
        "criterion 4 (remainder property on trace residual families)",
        ok,
        f"{checked} exhaustive (n <= 10)",
    )


def test_criterion_5_tree_lemmas(batch):
    ok = True
    phases = 0
    for r in batch["records"]:
        for audit in r["audits"]:
            phases += 1
            ok = ok and audit["red_cover"] and audit["empty_remainder"] and audit["disjoint_child"]
            ok = ok and audit["witness_valid"] and audit["sparse_crossing"]
    _verdict(
        "criterion 5 (red-cover, empty-remainder, disjoint-child verdicts)",
        ok,
        f"{phases} phase audits all green",
    )


def test_criterion_6a_incremental_cut_oracle():
    rng = random.Random(607)
    graphs = 0
    ok = True
    for n in range(2, 13):
        for _ in range(2):
            g = random_graph(rng, n, density=rng.uniform(0.2, 0.8), rational=(n <= 8))
            vals, denom = cut_table(g)
            ok = ok and len(vals) == 1 << (n - 1)
            for m, v in enumerate(vals):
                if Fraction(v, denom) != cut_capacity(g, NodeSet(m, n)):
                    ok = False
                    break
            graphs += 1
            if not ok:
                break
        if not ok:
            break
    _verdict(
        "criterion 6a (doubling cut table == from-scratch cut capacities, n <= 12)",
        ok,
        f"{graphs} graphs, every visited subset recomputed",
    )


def test_criterion_6b_exact_vs_naive():
    rng = random.Random(608)
    ok = True
    instances = 0
    while instances < 100:
        inst = random_instance(rng, rng.randint(3, 7), rng.randint(0, 7))
        if len(inst.links) > 14:
            continue
        family = enumerate_small_cuts(inst.graph, inst.threshold)
        expected = naive_optimum(inst, family)
        got = exact_optimum(inst.links, family)
        ok = ok and expected is not None and got.opt_cost == expected
        instances += 1
        if not ok:
            break
    _verdict(
        "criterion 6b (branch-and-bound == naive enumeration, |L| <= 14)",
        ok,
        f"{instances} random instances compared",
    )


def test_criterion_6c_reverse_delete_minimality(batch):
    ok = all(r["verdicts"]["minimal"] for r in batch["records"])
    _verdict(
        "criterion 6c (single-link-drop minimality audit)",
        ok,
        f"{len(batch['records'])} runs audited",
    )


def test_criterion_7_determinism(batch):
    text_first = report_lines(batch["records"], batch["summary"])
    text_second = report_lines(*run_pipeline(BATCH))
    ok = text_first.encode() == text_second.encode()
    _verdict(
        "criterion 7 (byte-identical batch reports)",
        ok,
        f"{len(text_first.encode())} report bytes compared",
    )


#: sha256 of the seeded batch's JSON-lines report in each audit mode
REPORT_SHA256 = {
    "per-phase": "4524e37edd5814fc368734572aeab126808faf9ad2a5a8f4d9c1636bb65cc182",
    "final": "1445e0a7af0d6dc3157bd8f93012d3c2be45865ab7d2903fcd3ec94158fc895f",
}


def test_seeded_reports_pinned(batch):
    """The batch reports are pinned byte for byte, so a change to the
    solver, the audits or the oracle that moves any reported value fails
    here even when every verdict still passes."""
    final = run_pipeline(dataclasses.replace(BATCH, audit_mode="final"))
    digests = {
        "per-phase": report_lines(batch["records"], batch["summary"]),
        "final": report_lines(*final),
    }
    digests = {mode: hashlib.sha256(text.encode()).hexdigest() for mode, text in digests.items()}
    assert digests == REPORT_SHA256


#: sha256 of the standard output of three generator-path commands: infeasible
#: draws with few links, a fixed threshold instead of a quantile, and costs
#: from 0, which give 7 of the 50 records a zero optimum
COMMAND_SHA256 = {
    "gen --seed 5 --count 30 --link-range 0:4 --allow-infeasible":
        "37862e1eba8c0bf7c5570c8135a10b82ac2944eb1a8bff7f4fc59c4fdbde13cf",
    "bench --seed 3 --count 100 --allow-infeasible --link-range 2:6 --lambda-policy fixed:5/2":
        "5c9500c127116f5b82dd0f28689b747724b9f863f1e52ceedfafdbf0041abb29",
    "bench --seed 1 --count 50 --cost-range 0:3":
        "bb774c4011df7d43c2ee780166c85bfe864c9040b05dd8af6bf3fd2b0ce1e524",
}


@pytest.mark.parametrize("command", sorted(COMMAND_SHA256))
def test_seeded_commands_pinned(command):
    """The generator's output, and a bench over it, pinned byte for byte,
    so that a change to the cut table, the threshold pick or the link draws
    that moves any instance fails here."""
    out, err = io.StringIO(), io.StringIO()
    assert main(command.split(), stdout=out, stderr=err) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == COMMAND_SHA256[command]


#: sha256 of the single-instance subcommands over the instances of
#: `gen --seed 11 --count 20 --n-range 4:9`, each written to its own file:
#: per instance, the standard output of `solve`, `exact`, `audit` and
#: `audit --audit final`, in that order (40,139 bytes, 136 audited phases)
SUBCOMMANDS_SHA256 = "ea56024b01ac762ff9148b3379d524f056322ca02df327ad019d5073c9a98d0c"


def test_seeded_subcommands_pinned(tmp_path):
    """The subcommands that read one instance file, pinned byte for byte,
    so that a change to how they hand the instance to the solver, the
    audits or the oracle that moves any value fails here."""
    out = io.StringIO()
    assert main("gen --seed 11 --count 20 --n-range 4:9".split(), stdout=out) == 0
    lines = out.getvalue().splitlines()
    assert len(lines) == 20
    text = []
    for i, line in enumerate(lines):
        path = tmp_path / f"{i}.json"
        path.write_text(line + "\n", encoding="utf-8")
        for argv in (["solve"], ["exact"], ["audit"], ["audit", "--audit", "final"]):
            got = io.StringIO()
            assert main([argv[0], str(path), *argv[1:]], stdout=got) == 0, (argv, i)
            text.append(got.getvalue())
    assert hashlib.sha256("".join(text).encode()).hexdigest() == SUBCOMMANDS_SHA256
