"""Serialization round-trips, generation determinism, pipeline and CLI."""

from __future__ import annotations

import argparse
import collections
import dataclasses
import functools
import inspect
import io
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from cutcover import (
    CapGraph,
    GenerationExhausted,
    GroundSetTooLarge,
    Instance,
    Link,
    RunConfig,
    SetFamily,
    cli,
    gen,
    gen_instance,
    kernels,
    solve,
)
from cutcover.certify import AUDIT_MODES, audit_run
from cutcover.cli import (
    _single_drop_minimal,
    instance_from_obj,
    load_instance,
    main,
    pipeline_record,
    report_csv,
    report_lines,
    run_pipeline,
)
from cutcover.family import crossing_table, residual
from cutcover.gen import generate
from cutcover.graph import enumerate_small_cuts
from conftest import child_env, many_link_path, random_instance
from test_acceptance import BATCH
from reference import covered, dump_instance


def _cfg(**kw):
    base = dict(seed=11, count=5, n_range=(4, 7), link_range=(3, 8))
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------- serialization

def test_round_trip_field_exact():
    g = CapGraph(4, ((0, 1, Fraction(3, 7)), (1, 2, 5), (2, 3, Fraction(1, 3))))
    inst = Instance.build(g, Fraction(22, 7), [(0, 2, Fraction(9, 4)), (1, 3, 6)])
    again = load_instance(dump_instance(inst))
    assert again == inst
    assert again.threshold == Fraction(22, 7)
    assert again.links[0].cost == Fraction(9, 4)


def test_integer_shorthand_accepted():
    obj = {"n": 2, "edges": [[0, 1, 1]], "lambda": 2, "links": [[0, 1, 7]]}
    inst = instance_from_obj(obj)
    assert inst.threshold == 2 and inst.links[0].cost == 7


def test_generated_instances_round_trip():
    cfg = _cfg()
    for i in range(cfg.count):
        inst = gen_instance(cfg, i)
        assert instance_from_obj(json.loads(dump_instance(inst))) == inst


# ---------------------------------------------------------------- generation

def test_gen_deterministic():
    cfg = _cfg()
    assert dump_instance(gen_instance(cfg, 3)) == dump_instance(gen_instance(cfg, 3))


def test_gen_lambda_zero_policy_gives_empty_family():
    cfg = _cfg(lambda_policy="fixed:0")
    inst = gen_instance(cfg, 0)
    assert inst.threshold == 0
    assert len(enumerate_small_cuts(inst.graph, inst.threshold)) == 0


def test_gen_feasibility_scan():
    cfg = _cfg(count=20)
    for i in range(cfg.count):
        inst = gen_instance(cfg, i)
        family = enumerate_small_cuts(inst.graph, inst.threshold)
        assert len(residual(family, inst.links)) == 0
        assert len(family) > 0  # quantile policy keeps the family non-empty


@pytest.mark.parametrize("kw", [
    dict(lambda_policy="quantile:0.5"),
    dict(lambda_policy="fixed:15/2"),
    dict(lambda_policy="quantile:0.3", link_range=(0, 3), allow_infeasible=True),
], ids=["quantile", "fixed", "allow-infeasible"])
def test_generate_returns_the_small_cut_family(kw):
    cfg = _cfg(count=12, **kw)
    feasible = set()
    nonempty = 0
    for i in range(cfg.count):
        inst, family = generate(cfg, i)
        assert inst == gen_instance(cfg, i)
        assert family == enumerate_small_cuts(inst.graph, inst.threshold, cfg.enum_limit)
        feasible.add(len(residual(family, inst.links)) == 0)
        nonempty += len(family) > 0
    assert feasible == ({True, False} if cfg.allow_infeasible else {True})
    assert nonempty > cfg.count // 2


def test_gen_exhausted_when_infeasible_forced():
    # under lambda 1000 every non-trivial cut of 6 nodes is small, and one
    # link crosses only those that separate its endpoints
    cfg = _cfg(n_range=(6, 6), link_range=(1, 1), lambda_policy="fixed:1000")
    with pytest.raises(GenerationExhausted, match="after 200 attempts"):
        gen_instance(cfg, 0)


def test_gen_allow_infeasible_returns_first_sample():
    cfg = _cfg(link_range=(0, 0), allow_infeasible=True)
    inst = gen_instance(cfg, 0)
    assert inst.links == ()


def test_gen_refuses_oversized_ground_set_before_drawing_edges(monkeypatch):
    """A ground set that no edges could make fit the enumeration limit or
    the cut-table byte budget is refused when the config is built: no
    edge is drawn and no graph is built."""
    def no_graph(*args):
        raise AssertionError("built a graph over an oversized ground set")

    monkeypatch.setattr(gen, "CapGraph", no_graph)
    with pytest.raises(GroundSetTooLarge, match="enumeration limit"):
        generate(RunConfig(n_range=(21, 21)), 0)
    with pytest.raises(GroundSetTooLarge, match="budget"):
        generate(RunConfig(n_range=(26, 26), enum_limit=30), 0)
    err = io.StringIO()
    assert main(["gen", "--count", "1", "--n-range", "2000:2000"], stdout=io.StringIO(),
                stderr=err) == 2
    assert "exceeds enumeration limit 20" in err.getvalue()


def test_enum_limit_checked_against_top_of_n_range():
    """A config whose largest n exceeds the enumeration limit is refused
    before any draw, with one message whatever the seed, not only when a
    seed happens to draw that n; a negative limit is refused even when
    nothing is drawn."""
    errors = set()
    for seed in range(8):
        argv = ["bench", "--seed", str(seed), "--count", "3", "--n-range", "4:10",
                "--enum-limit", "8"]
        _refused(argv, "ground set of size 10 exceeds enumeration limit 8")
        errors.add(_run_main(argv)[2])
    assert len(errors) == 1
    _refused(["bench", "--count", "0", "--enum-limit", "-5"], "enumeration limit -5")


def test_run_config_frozen():
    """A checked config stays checked: its fields cannot be assigned, and
    `dataclasses.replace` validates the copy."""
    cfg = _cfg()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.enum_limit = 5
    with pytest.raises(GroundSetTooLarge, match="enumeration limit 5"):
        dataclasses.replace(cfg, enum_limit=5)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_range=(5, 3))
    with pytest.raises(ValueError):
        RunConfig(lambda_policy="median")
    for policy in ("fixed:1e400", "quantile:5E-1"):
        with pytest.raises(ValueError, match="exponent"):
            RunConfig(lambda_policy=policy)
    with pytest.raises(ValueError):
        RunConfig(audit_mode="never")


# ---------------------------------------------------------------- flags and RunConfig

#: the option strings of each subcommand, pinned so that building the flags
#: from RunConfig's fields neither adds nor drops one
_OPTIONS = {
    "gen": {"-h", "--help", "--seed", "--count", "--n-range", "--density", "--cap-range",
            "--link-range", "--cost-range", "--lambda-policy", "--allow-infeasible",
            "--enum-limit", "--out"},
    "bench": {"-h", "--help", "--seed", "--count", "--n-range", "--density", "--cap-range",
              "--link-range", "--cost-range", "--lambda-policy", "--allow-infeasible",
              "--enum-limit", "--out", "--audit", "--fail-fast", "--csv"},
    "solve": {"-h", "--help", "--enum-limit"},
    "audit": {"-h", "--help", "--enum-limit", "--audit"},
    "exact": {"-h", "--help", "--enum-limit"},
}

#: each batch flag, a value for it, and the RunConfig field it sets to what
_FLAG_FIELDS = (
    ("--seed", "5", "seed", 5),
    ("--count", "3", "count", 3),
    ("--n-range", "5:7", "n_range", (5, 7)),
    ("--density", "0.2:0.4", "density_range", (0.2, 0.4)),
    ("--cap-range", "2", "cap_range", (2, 2)),
    ("--link-range", "4:5", "link_range", (4, 5)),
    ("--cost-range", "2:9", "cost_range", (2, 9)),
    ("--lambda-policy", "fixed:3", "lambda_policy", "fixed:3"),
    ("--allow-infeasible", None, "allow_infeasible", True),
    ("--enum-limit", "12", "enum_limit", 12),
    ("--audit", "final", "audit_mode", "final"),
    ("--fail-fast", None, "fail_fast", True),
)


def test_subcommand_options_unchanged():
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()} == _OPTIONS


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_batch_flags_set_their_own_field(command):
    """With no batch flag a batch is RunConfig's defaults but 10 instances;
    each flag changes its own field and no other. bench has a flag for
    every field."""
    parser = cli._parser()
    base = cli._config_from_args(parser.parse_args([command]))
    assert base == RunConfig(count=10)
    fields = set()
    for flag, value, field, expect in _FLAG_FIELDS:
        if flag in _OPTIONS[command]:
            args = parser.parse_args([command, flag] + ([value] if value else []))
            assert cli._config_from_args(args) == dataclasses.replace(base, **{field: expect})
            fields.add(field)
    if command == "bench":
        assert fields == {f.name for f in dataclasses.fields(RunConfig)}


def test_audit_modes_shared(tmp_path, capsys):
    """RunConfig, audit_run and the --audit flags of audit and bench all
    take the modes of AUDIT_MODES and refuse any other."""
    path = tmp_path / "inst.json"
    path.write_text(_run_main(["gen", "--seed", "6", "--count", "1", "--n-range", "4:6"])[1])
    inst = load_instance(path.read_text())
    result = solve(inst.links, enumerate_small_cuts(inst.graph, inst.threshold))
    for mode in AUDIT_MODES:
        assert RunConfig(audit_mode=mode).audit_mode == mode
        assert audit_run(inst.links, result, mode)
        assert _run_main(["audit", str(path), "--audit", mode])[0] == 0
        assert _run_main(["bench", "--count", "1", "--n-range", "4:6", "--audit", mode])[0] == 0
    with pytest.raises(ValueError, match="'never'"):
        RunConfig(audit_mode="never")
    with pytest.raises(ValueError, match="'never'"):
        audit_run(inst.links, result, "never")
    for argv in (["audit", str(path)], ["bench", "--count", "1"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--audit", "never"], stdout=io.StringIO(), stderr=io.StringIO())
        assert exc.value.code == 2
        assert "invalid choice: 'never'" in capsys.readouterr().err


# ---------------------------------------------------------------- pipeline

def test_pipeline_empty_batch():
    records, summary = run_pipeline(_cfg(count=0))
    assert records == []
    assert summary["all_passed"] and summary["instances"] == 0


def test_pipeline_records_and_verdicts():
    records, summary = run_pipeline(_cfg())
    assert len(records) == 5
    assert summary["all_passed"]
    assert Fraction(summary["max_ratio"]) <= 5
    for r in records:
        assert r["pass"]
        assert r["verdicts"]["cover"] and r["verdicts"]["minimal"]
        assert r["verdicts"]["dual_feasible"] and r["verdicts"]["ratio_le_5"]
        assert Fraction(r["dual_total"]) <= Fraction(r["opt_cost"])


def test_pipeline_reports_byte_identical():
    cfg = _cfg(count=8)
    a = report_lines(*run_pipeline(cfg))
    b = report_lines(*run_pipeline(cfg))
    assert a.encode() == b.encode()


def test_pipeline_exact_oracle_on_many_links():
    """The exact search runs on every record, however many links it has:
    each of the first 20 records of 25 to 60 links carries a ratio."""
    cfg = RunConfig(seed=1, link_range=(25, 60))
    for index in range(20):
        record = pipeline_record(cfg, index)
        assert record["pass"] and Fraction(record["ratio"]) <= 5


def test_pipeline_refused_exact_search(monkeypatch):
    """A search over its node budget leaves no optimum and no verdict on
    it in the record, which still passes; the summary counts the refusals,
    and a batch without one has no count."""
    monkeypatch.setattr(cli, "exact_optimum",
                        functools.partial(cli.exact_optimum, node_budget=1))
    records = [pipeline_record(_cfg(), index) for index in range(5)]
    refused = [r for r in records if r["opt_cost"] is None]
    assert 0 < len(refused) < len(records)
    for r in refused:
        assert r["ratio"] is None and "opt_links" not in r and r["pass"]
        assert not {"ratio_le_5", "dual_le_opt"} & set(r["verdicts"])
    summary = cli._summarize(records)
    assert summary["exact_refused"] == len(refused)
    assert list(summary)[-2:] == ["all_passed", "exact_refused"]
    assert "exact_refused" not in cli._summarize([r for r in records if r not in refused])


def _stub_record(failing):
    def record(cfg, index):
        return {"index": index, "feasible": False, "verdicts": {}, "pass": index != failing}
    return record


@pytest.mark.parametrize("failing", [2, 3])
def test_serial_pipeline_lazy_and_fail_fast(monkeypatch, failing):
    """The serial batch runs a count far past memory lazily, yields records
    in index order, and fail_fast stops at the first failed record."""
    monkeypatch.setattr(cli, "pipeline_record", _stub_record(failing))
    records, summary = run_pipeline(_cfg(count=10**20, fail_fast=True))
    assert [r["index"] for r in records] == list(range(failing + 1))
    assert summary["failed_instances"] == [failing]

    records, summary = run_pipeline(_cfg(count=10))
    assert [r["index"] for r in records] == list(range(10))
    assert summary["failed_instances"] == [failing]

    code, out, err = _run_main(["bench", "--count", str(10**20), "--fail-fast"])
    assert code == 1 and "Traceback" not in err
    assert len(out.splitlines()) == failing + 2 and f"FAILURES: [{failing}]" in err


def test_removed_batch_knobs_gone(monkeypatch):
    """The batch is serial and --seed is its only seed: there is no
    --workers flag, no RunConfig.workers field, and CUTCOVER_SEED is
    ignored."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--count", "1", "--workers", "2"], stdout=io.StringIO(),
             stderr=io.StringIO())
    assert exc.value.code == 2
    with pytest.raises(TypeError):
        RunConfig(workers=2)
    monkeypatch.delenv("CUTCOVER_SEED", raising=False)
    _, base_out, _ = _run_main(["gen", "--seed", "999", "--count", "1"])
    monkeypatch.setenv("CUTCOVER_SEED", "1")
    _, env_out, _ = _run_main(["gen", "--seed", "999", "--count", "1"])
    assert env_out == base_out


def test_report_csv_columns():
    records, _ = run_pipeline(_cfg(count=3))
    text = report_csv(records)
    lines = text.strip().split("\n")
    assert lines[0].startswith("index,n,num_links,family_size,phases,alg_cost")
    assert len(lines) == 4


# ---------------------------------------------------------------- CLI surface

def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _refused(argv, *shown):
    """main refuses argv: exit 2, no output, and one error line, with no
    traceback, that shows each of shown."""
    code, out, err = _run_main(argv)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("cutcover: error:") and all(s in err for s in shown)


def test_cli_gen_and_solve(tmp_path):
    code, out, _ = _run_main(["gen", "--seed", "5", "--count", "2", "--n-range", "4:6"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    path = tmp_path / "inst.json"
    path.write_text(lines[0])
    code, out, _ = _run_main(["solve", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert "solution" in payload and "dual_total" in payload


def test_cli_exact_and_audit(tmp_path):
    _, out, _ = _run_main(["gen", "--seed", "6", "--count", "1", "--n-range", "4:6"])
    path = tmp_path / "inst.json"
    path.write_text(out.strip())
    code, out, _ = _run_main(["exact", str(path)])
    assert code == 0
    assert "opt_cost" in json.loads(out)
    code, out, _ = _run_main(["audit", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and all(a["pass"] for a in payload["audits"])


def test_one_crossing_table_per_solve(tmp_path, monkeypatch):
    """The solve builds the one crossing table of a record, its node and
    link columns by one `kernels.node_bits` call; the audits, the
    minimality check and the exact search read it from the result, the
    search its link rows too. No other kernel builds an index: besides
    the cut table (`cut_values`), only the scans `check_ends` and
    `minimal_indices` run, in a record and in every subcommand, and in a
    record `components`, the link-graph scan of the generator's cover
    test `all_covered`."""
    calls = collections.Counter()
    for name, kernel in vars(kernels).copy().items():
        if inspect.isfunction(kernel) and not name.startswith("_"):
            monkeypatch.setattr(kernels, name,
                                lambda *a, name=name, kernel=kernel: calls.update([name]) or kernel(*a))
    scans = {"cut_values", "node_bits", "check_ends", "minimal_indices", "components"}
    union_tests = 0
    for cfg in (_cfg(count=6), dataclasses.replace(BATCH, count=20)):
        for index in range(cfg.count):
            calls.clear()
            assert pipeline_record(cfg, index)["feasible"]
            assert calls["node_bits"] == calls["cut_values"] == 1 and set(calls) <= scans, calls
            union_tests += calls["components"] > 0
    assert union_tests
    path = tmp_path / "inst.json"
    path.write_text(_run_main(["gen", "--seed", "6", "--count", "1"])[1])
    for command in ("solve", "audit", "exact"):
        calls.clear()
        assert _run_main([command, str(path)])[0] == 0, command
        assert calls["node_bits"] == calls["cut_values"] == 1 and set(calls) <= scans, command


def test_cli_bench_json_and_csv(tmp_path, monkeypatch):
    """stdout always gets the JSON lines, --csv PATH the CSV, which is built
    only then; --format is gone."""
    args = ["bench", "--seed", "9", "--count", "3", "--n-range", "4:6"]
    csv_path = tmp_path / "agg.csv"
    code, csv_out, _ = _run_main(args + ["--csv", str(csv_path)])
    assert code == 0
    csv_lines = csv_path.read_text().splitlines()
    assert csv_lines[0].startswith("index,") and len(csv_lines) == 4
    monkeypatch.setattr(cli, "report_csv", None)
    code, out, err = _run_main(args)
    assert code == 0 and out == csv_out
    lines = out.strip().split("\n")
    assert len(lines) == 4  # 3 records + summary
    assert "summary" in json.loads(lines[-1])
    assert "all passed" in err
    with pytest.raises(SystemExit) as exc:
        main(args + ["--format", "csv"], stdout=io.StringIO(), stderr=io.StringIO())
    assert exc.value.code == 2


def test_cli_gen_infeasible_flagged():
    code, out, _ = _run_main([
        "gen", "--seed", "6", "--count", "2", "--link-range", "0:0", "--allow-infeasible",
    ])
    assert code == 0
    for line in out.strip().split("\n"):
        obj = json.loads(line)
        assert obj["feasible"] is False
        instance_from_obj(obj)  # extra key ignored by the parser


def test_cli_fixed_lambda_policy():
    code, out, _ = _run_main([
        "gen", "--seed", "3", "--count", "1", "--lambda-policy", "fixed:7/2",
    ])
    assert code == 0
    assert json.loads(out)["lambda"] == "7/2"


def test_fail_fast_keeps_passing_batch_complete():
    records, summary = run_pipeline(_cfg(count=4, fail_fast=True))
    assert len(records) == 4 and summary["all_passed"]


def test_cli_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": [[0, 0, 1]], "lambda": 1, "links": []}')
    code, _, err = _run_main(["solve", str(path)])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["solve", "audit"])
@pytest.mark.parametrize("shape", ["bare", "extra key"])
def test_cli_deeply_nested_instance_rejected(tmp_path, command, shape):
    """An array nested past the recursion limit ends in a clean error, both
    as the whole file and under a key the loader ignores."""
    deep = "[" * 100_000 + "]" * 100_000
    if shape == "extra key":
        deep = '{"n": 2, "edges": [], "lambda": 1, "links": [], "extra": ' + deep + "}"
    path = tmp_path / "deep.json"
    path.write_text(deep)
    _refused([command, str(path)], "nested too deeply")


def test_cli_infeasible_same_error(tmp_path):
    """solve, audit and exact refuse an infeasible file, here one with 30
    links, with the same message."""
    g = CapGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1)))
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(Instance.build(g, 2, [(1, 2, 1)] * 30)))
    errors = set()
    for command in ("solve", "audit", "exact"):
        code, out, err = _run_main([command, str(path)])
        assert code == 2 and out == ""
        errors.add(err)
    assert errors == {"cutcover: error: no link covers NodeSet({0}, n=4)\n"}


def test_cli_exact_more_links_than_a_machine_word(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(dump_instance(many_link_path()))
    code, out, _ = _run_main(["exact", str(path)])
    assert code == 0
    assert json.loads(out)["opt_cost"] == "1"


@pytest.mark.parametrize("policy", ["fixed:1/0", "quantile:1/0"])
def test_cli_lambda_policy_zero_denominator(policy):
    with pytest.raises(ValueError, match="zero denominator"):
        RunConfig(lambda_policy=policy)
    _refused(["bench", "--count", "2", "--lambda-policy", policy], "zero denominator")


def test_link_range_bounded():
    """A link count outside [0, MAX_LINKS] is refused before any draw: the
    links are drawn one by one, so a huge upper end would never finish."""
    assert _cfg(link_range=(0, 0), allow_infeasible=True).link_range == (0, 0)
    assert _cfg(link_range=(0, gen.MAX_LINKS)).link_range == (0, gen.MAX_LINKS)
    for bad in ((-1, 3), (0, gen.MAX_LINKS + 1)):
        with pytest.raises(ValueError, match="link_range"):
            _cfg(link_range=bad)
    _refused(["bench", "--count", "1", "--link-range", "1000000000:1000000000"], "link_range")
    # no link can cover the smallest cut a quantile threshold keeps
    with pytest.raises(ValueError, match="link_range"):
        _cfg(link_range=(0, 0))
    _refused(["bench", "--count", "1", "--link-range", "0:0"], "link_range")


@pytest.mark.parametrize("value", ["5:", ":5", "0.5:"])
@pytest.mark.parametrize("flag", ["--n-range", "--density", "--cap-range", "--link-range",
                                  "--cost-range"])
def test_range_with_empty_side_refused(flag, value):
    """A range flag with one side left empty is refused with exit 2, not
    read as the single value of its other side; a single value still is
    one."""
    for command in ("gen", "bench"):
        _refused([command, "--count", "1", f"{flag}={value}"], "empty side", repr(value))
    single = "0.5" if flag == "--density" else "5"
    assert _run_main(["gen", "--count", "1", f"{flag}={single}"])[0] == 0


@pytest.mark.parametrize("density", ["0.2:inf", "-0.5:0.4", "0.5:3", "nan:nan"])
def test_density_range_bounded(density):
    """An edge probability outside [0, 1], NaN included, is refused before
    any draw rather than clamped by the generator's comparisons."""
    lo, _, hi = density.partition(":")
    with pytest.raises(ValueError, match="density_range"):
        _cfg(density_range=(float(lo), float(hi)))
    _refused(["bench", "--count", "2", f"--density={density}"], "density_range")


@pytest.mark.parametrize("n_range", ["2:2"])
def test_quantile_needs_three_nodes(n_range):
    """A 2-node graph has one non-trivial cut, so a quantile policy has no
    two distinct cut values to pick from; it is refused before any draw
    rather than after MAX_RETRIES futile ones. A fixed threshold, or a
    range that reaches 3 nodes, still runs."""
    lo, _, hi = n_range.partition(":")
    for policy in ("quantile:0", "quantile:1/2", "quantile:1"):
        with pytest.raises(ValueError, match="n_range.*lambda policy"):
            _cfg(n_range=(int(lo), int(hi)), lambda_policy=policy)
    _refused(["bench", "--count", "1", "--n-range", n_range], "n_range", "quantile")
    for argv in (["--n-range", n_range, "--lambda-policy", "fixed:1"], ["--n-range", "2:3"]):
        code, out, err = _run_main(["bench", "--count", "3"] + argv)
        assert code == 0 and "all passed" in err and len(out.splitlines()) == 4


@pytest.mark.parametrize("field, bounds, why", [
    ("cost_range", (-1, 20), "must be non-negative"),
    ("cap_range", (-1, 10), "must be non-negative"),
    ("density_range", (0, 0), "has no graph with two distinct cut values"),
    ("cap_range", (0, 0), "has no graph with two distinct cut values"),
], ids=["cost-range=-1:20", "cap-range=-1:10", "density=0:0", "cap-range=0:0"])
def test_range_without_valid_instance_refused(field, bounds, why):
    """A range that may draw a negative link cost or edge capacity, or one
    under which every cut is 0, so that a quantile policy has no two
    distinct cut values, is refused before any draw, whatever the seed. A
    fixed threshold over zero cuts still runs."""
    with pytest.raises(ValueError, match=f"{field} .*{why}"):
        _cfg(**{field: bounds})
    flag = "--density" if field == "density_range" else "--" + field.replace("_", "-")
    for seed in range(4):
        _refused(["bench", "--count", "1", "--seed", str(seed),
                  f"{flag}={bounds[0]}:{bounds[1]}"], field, why)
    if bounds == (0, 0):
        code, out, err = _run_main(["bench", "--count", "3", f"{flag}=0:0",
                                    "--lambda-policy", "fixed:1"])
        assert code == 0 and "all passed" in err and len(out.splitlines()) == 4


def test_cli_missing_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": [[0, 1, 1]], "lambda": 2}')
    _refused(["solve", str(path)], "links")


@pytest.mark.parametrize("text, shown", [
    ('{"n": 2, "edges": [[0, 1, 1.5]], "lambda": 2, "links": [[0, 1, 1]]}', "1.5"),
    ('{"n": 2, "edges": [[0, 1, 1]], "lambda": "1/0", "links": [[0, 1, 1]]}', "1/0"),
    ('{"n": 2, "edges": [[0, 1, 1]], "lambda": "1e400", "links": [[0, 1, 1]]}', "1e400"),
], ids=["float", "zero-denominator", "exponent"])
def test_cli_inexact_rational_rejected(tmp_path, text, shown):
    path = tmp_path / "bad.json"
    path.write_text(text)
    _refused(["solve", str(path)], shown)


@pytest.mark.parametrize("text, shown", [
    ('{"n": 3, "edges": [[0, 1, 1]], "lambda": 2, "links": [[0, 1.5, 1]]}', "1.5"),
    ('{"n": 2.0, "edges": [[0, 1, 1]], "lambda": 2, "links": [[0, 1, 1]]}', "2.0"),
], ids=["float-endpoint", "float-n"])
def test_cli_non_integer_node_id_rejected(tmp_path, text, shown):
    path = tmp_path / "bad.json"
    path.write_text(text)
    _refused(["solve", str(path)], shown)


@pytest.mark.parametrize("text, shown", [
    ('{"n": 2, "edges": [5], "lambda": 2, "links": [[0, 1, 1]]}', "5"),
    ('{"n": 2, "edges": [[0, 1, 1]], "lambda": 2, "links": [[0, 1]]}', "[0, 1]"),
], ids=["edge-scalar", "link-short"])
def test_cli_malformed_entry_rejected(tmp_path, text, shown):
    path = tmp_path / "bad.json"
    path.write_text(text)
    _refused(["solve", str(path)], "[u, v, c]", shown)


def test_cli_negative_n_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": -1, "edges": [], "lambda": 1, "links": []}')
    _refused(["solve", str(path)], "non-negative", "-1")


#: a feasible instance file, and the place of each of its values
_ONE_RULE_OBJ = {"n": 3, "edges": [[0, 1, "2"], [1, 2, "2"]], "lambda": "3",
                 "links": [[0, 2, "1"]]}
_SLOTS = {"n": ("n",), "edge-end": ("edges", 0, 1), "capacity": ("edges", 0, 2),
          "lambda": ("lambda",), "link-end": ("links", 0, 0), "cost": ("links", 0, 2)}
_BAD_VALUES = (True, 1.5, float("nan"), "1e400", "1E5", "1/0", "abc", "", None, [])
#: a value of each slot that builds: the same instance, spelt another way
_GOOD_VALUES = {"n": 3, "edge-end": 1, "capacity": 2, "lambda": "6/2", "link-end": 0,
                "cost": "2/2"}


@pytest.mark.parametrize("slot, value", [
    (slot, value)
    for slot in _SLOTS
    for value in _BAD_VALUES + (("3",) if slot in ("n", "edge-end", "link-end") else ())
    + (_GOOD_VALUES[slot],)
], ids=lambda v: v if isinstance(v, str) and v in _SLOTS else repr(v))
def test_file_reader_and_constructors_apply_one_rule(tmp_path, slot, value):
    """One value in one slot of a file: `CapGraph` and `Instance.build`
    either build it or raise TypeError or ValueError, never another error,
    and `cutcover solve` on the file exits 2, naming the value, exactly
    when they refuse it."""
    obj = json.loads(json.dumps(_ONE_RULE_OBJ))
    *where, last = _SLOTS[slot]
    target = obj
    for key in where:
        target = target[key]
    target[last] = value
    try:
        Instance.build(CapGraph(obj["n"], obj["edges"]), obj["lambda"], obj["links"])
    except (TypeError, ValueError):
        refused = True
    else:
        refused = False
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    if refused:
        _refused(["solve", str(path)], repr(value))
    else:
        assert _run_main(["solve", str(path)])[0] == 0
    assert refused == (value is not _GOOD_VALUES[slot])


def test_file_reader_converts_only_construction_errors(tmp_path, monkeypatch):
    """The file reader turns the constructors' TypeError into a refusal
    (exit 2); a TypeError raised past it, here by the solver, is a bug and
    propagates."""
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(_ONE_RULE_OBJ))

    def broken_solve(*args):
        raise TypeError("solver bug")

    monkeypatch.setattr(cli, "solve", broken_solve)
    with pytest.raises(TypeError, match="solver bug"):
        main(["solve", str(path)], stdout=io.StringIO(), stderr=io.StringIO())


def test_single_drop_minimal_matches_residual_definition():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(40):
        inst = random_instance(rng, rng.randint(3, 6), rng.randint(0, 4))
        family = enumerate_small_cuts(inst.graph, inst.threshold)
        ids = rng.sample(range(len(inst.links)), rng.randint(1, len(inst.links)))
        expect = all(
            len(residual(family, [inst.links[i] for i in ids if i != lid])) > 0
            for lid in ids
        )
        assert _single_drop_minimal(family, ids, crossing_table(family, inst.links)) == expect
        verdicts.add(expect)
    assert verdicts == {True, False}


def test_single_drop_minimal_matches_drop_one_definition():
    """_single_drop_minimal against dropping each solution link in turn
    and testing every member by `covers`, on random families and link
    subsets, some of which leave a member that no solution link crosses
    (then every drop leaves it uncrossed, and the verdict is True)."""
    rng = random.Random(53)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(2, 7)
        full = (1 << n) - 1
        f = SetFamily(n, rng.sample(range(1, full), rng.randint(0, min(full - 1, 25))))
        links = [Link(*rng.sample(range(n), 2), 1, k) for k in range(rng.randint(0, 10))]
        links += [Link(link.a, link.b, 1, len(links) + k) for k, link in enumerate(links[:2])]
        ids = rng.sample(range(len(links)), rng.randint(0, len(links)))
        expect = all(not covered(f, [links[i] for i in ids if i != lid]) for lid in ids)
        assert _single_drop_minimal(f, ids, crossing_table(f, links)) == expect
        outcomes.add((expect, covered(f, [links[i] for i in ids])))
    assert outcomes == {(True, True), (False, True), (True, False)}


def test_cli_byte_identical_across_processes():
    cmd = [
        sys.executable, "-m", "cutcover.cli", "bench",
        "--seed", "21", "--count", "4", "--n-range", "4:6",
    ]
    a = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
    b = subprocess.run(cmd, capture_output=True, check=True, env=child_env())
    assert a.stdout == b.stdout


# ---------------------------------------------------------------- input fuzz

#: values a fuzzed instance file or flag may carry in place of a valid one
_JUNK = (-1, 0, 1, 7, 2**70, 1.5, float("nan"), float("inf"), "1/0", "abc", "1e5", "-3/2",
         "2/3", "", None, True, [], {}, [1, 2])


def _fuzz_instance_text(rng) -> str:
    """A small valid instance file, then one to three corruptions: a key's
    value or one entry's field swapped for junk, a key dropped, the whole
    object swapped for junk, or the text cut short."""
    n = rng.randint(0, 6)
    pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 2 * n))] if n > 1 else []
    obj = {"n": n,
           "edges": [[u, v, str(rng.randint(0, 5))] for u, v in pairs],
           "lambda": str(rng.randint(0, 6)),
           "links": [[u, v, f"{rng.randint(0, 9)}/{rng.randint(1, 3)}"] for u, v in pairs[:4]]}
    for _ in range(rng.randint(1, 3)):
        how = rng.randrange(5)
        key = rng.choice(sorted(obj)) if isinstance(obj, dict) and obj else None
        if key is None or how == 4:
            obj = rng.choice(_JUNK)
        elif how == 0:
            obj[key] = rng.choice(_JUNK + (10**6, -(10**6)))
        elif how == 1 and isinstance(obj[key], list) and obj[key]:
            entry = rng.choice(obj[key])
            if isinstance(entry, list):
                entry[rng.randrange(len(entry))] = rng.choice(_JUNK + (n, n + 1, -n))
        elif how == 2:
            del obj[key]
        elif how == 3:
            obj[rng.choice(("extra", key))] = rng.choice(_JUNK)
    text = json.dumps(obj)
    return text[:rng.randrange(len(text))] if rng.random() < 0.1 else text


def _fuzz_bench_flags(rng, tmp_path) -> list:
    """A random set of bench flags with values the parser takes, many of
    them out of range; batches stay at most 2 instances of at most 7
    nodes."""
    choices = {
        "--seed": (0, 5, -1, 2**64),
        "--count": (0, 1, 2),
        "--n-range": ("4:6", "2:2", "3", "6:4", "0:3", "-1:5", "a:b", "7:7", "4:"),
        "--density": ("0.3:0.7", "0:0", "1:1", "0.5", "-1:2", "nan:1", "x", "0.2:inf", "4:"),
        "--cap-range": ("1:10", "0:0", "-1:3", "5:1", "1", "1:x", "4:"),
        "--link-range": ("3:6", "0:0", "0:3", "-1:2", "10:3", "1000000000:1000000000", "4:"),
        "--cost-range": ("1:20", "0:0", "-3:2", "1:1", "4:"),
        "--lambda-policy": ("quantile:0.5", "fixed:3", "fixed:1/0", "quantile:2", "bogus",
                            "fixed:-1", "quantile:0.05", "fixed:1e9", "fixed:100"),
        "--audit": ("per-phase", "final"),
        "--enum-limit": (-1, 0, 3, 20),
        "--out": (str(tmp_path / "report.jsonl"), str(tmp_path / "missing" / "r.jsonl")),
        "--csv": (str(tmp_path / "report.csv"),),
    }
    # flag=value, so that a value such as -1:2 is not read as a flag
    flags = [f"--count={rng.choice(choices.pop('--count'))}", "--n-range=4:6"]
    for flag in rng.sample(sorted(choices), rng.randint(0, 6)):
        flags.append(f"{flag}={rng.choice(choices[flag])}")
    for flag in ("--allow-infeasible", "--fail-fast"):
        if rng.random() < 0.3:
            flags.append(flag)
    return flags


def test_cli_input_fuzz(tmp_path):
    """Seeded malformed and out-of-range instance files through solve,
    exact and audit, and random bench flag sets: every call returns 0, 1
    or 2, raises nothing, and prints no traceback."""
    rng = random.Random(2025)
    path = tmp_path / "inst.json"
    codes = {}
    for trial in range(360):
        if trial < 300:
            path.write_text(_fuzz_instance_text(rng))
            argv = [rng.choice(("solve", "exact", "audit")), str(path)]
        else:
            argv = ["bench", *_fuzz_bench_flags(rng, tmp_path)]
        code, out, err = _run_main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in out + err, argv
        codes.setdefault(argv[0], set()).add(code)
    # valid and refused input both reach every command
    assert all(codes[command] >= {0, 2} for command in ("solve", "exact", "audit", "bench"))
