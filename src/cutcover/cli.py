"""File formats, the batch pipeline, and the command-line surface.

Instance files are JSON objects whose n and node ids are integers and whose
capacities, lambda and costs are integers or "p/q" strings, so values survive
serialization exactly:

    {"n": 4, "edges": [[0, 1, "1"], ...], "lambda": "3", "links": [[0, 2, "5/2"], ...]}

A value that `graph.rational` or `graph.exact_int` refuses (a float, a bool,
an exponent, an underscore, a zero denominator) makes the command exit 2
and is named in the message.

Reports are JSON lines (one object per instance, then a summary object);
`bench --csv PATH` also writes an aggregate CSV. All report values are
strings or integers, so reruns with one seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction

from .certify import AUDIT_MODES, audit_run
from .errors import CutCoverError, SearchBudgetExceeded
from .exact import exact_optimum
from .family import SetFamily, all_covered
from .gen import RunConfig, generate
from .graph import CapGraph, Instance, enumerate_small_cuts
from .pd import dual_feasible, solve

_CSV_COLUMNS = (
    "index", "n", "num_links", "family_size", "phases",
    "alg_cost", "dual_total", "opt_cost", "ratio", "max_density_quotient",
)


def instance_to_obj(inst: Instance) -> dict:
    return {
        "n": inst.graph.n,
        "edges": [[u, v, str(c)] for u, v, c in inst.graph.edges],
        "lambda": str(inst.threshold),
        "links": [[l.a, l.b, str(l.cost)] for l in inst.links],
    }


_INSTANCE_KEYS = ("n", "edges", "lambda", "links")


def instance_from_obj(obj: dict) -> Instance:
    """The instance a parsed file holds; only the JSON shape is checked here,
    and a value the constructors refuse becomes a ValueError that shows it."""
    if not isinstance(obj, dict):
        raise ValueError("an instance must be a JSON object")
    missing = [key for key in _INSTANCE_KEYS if key not in obj]
    if missing:
        raise ValueError(f"instance has no {', '.join(map(repr, missing))} key")
    for key in ("edges", "links"):
        if not isinstance(obj[key], list):
            raise ValueError(f"{key!r} must be a list, got {obj[key]!r}")
        for entry in obj[key]:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValueError(f"each {key!r} entry must be a [u, v, c] list, got {entry!r}")
    try:
        return Instance.build(CapGraph(obj["n"], obj["edges"]), obj["lambda"], obj["links"])
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def load_instance(text: str) -> Instance:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("instance JSON is nested too deeply") from None
    return instance_from_obj(obj)


def _solution_obj(result) -> dict:
    return {
        "solution": list(result.solution),
        "cost": str(result.cost),
        "dual_total": str(result.dual_total),
        "addition_order": list(result.addition_order),
        "trace": [
            {
                "phase": pt.phase,
                "epsilon": str(pt.epsilon),
                "num_cores": len(pt.cores_snapshot),
                "tight": list(pt.tight_link_ids),
                "residual_size": len(pt.residual),
            }
            for pt in result.trace
        ],
    }


def _audit_obj(report) -> dict:
    return {
        "phase": report.phase,
        "num_cores": report.num_cores,
        "lhat": report.lhat_size,
        "lstar": report.lstar_size,
        "crossing_pairs": report.crossing_pairs,
        "witness_valid": report.witness_valid,
        "sparse_crossing": report.sparse_crossing_ok,
        "density_bound": report.density_bound_ok,
        "red_cover": report.red_cover_ok,
        "empty_remainder": report.empty_remainder_ok,
        "disjoint_child": report.disjoint_child_ok,
        "pass": report.passed,
    }


def _single_drop_minimal(family: SetFamily, solution, table) -> bool:
    """Independent minimality audit: dropping any one link uncovers a set.

    That holds when some member is crossed by no solution link, or when
    each solution link is the only solution link crossing some member.
    table is the family's `crossing_table` over the links, which counts
    the solution links crossing each member up to two.
    """
    live = table.bits(family)
    once, twice = table.crossed(solution)
    if live & ~once:
        return True
    alone = live & ~twice
    return all(alone & table.cols[lid] for lid in solution)


def _ends(links) -> list:
    return [(link.a, link.b) for link in links]


def pipeline_record(cfg: RunConfig, index: int) -> dict:
    """Generate, solve, audit and exactly solve one instance; returns a
    JSON-ready record. The verdicts cost_le_5_dual, ratio_le_5 and
    dual_le_opt check cost <= 5 dual <= 5 opt by exact comparisons; ratio
    is cost / opt, or at a zero optimum "1" if the solve paid nothing, else
    None. An exact search that exceeds its node budget leaves opt_cost and
    ratio None and gives no verdict on the optimum."""
    inst, family = generate(cfg, index)
    record = {
        "index": index,
        "n": inst.graph.n,
        "num_edges": len(inst.graph.edges),
        "lambda": str(inst.threshold),
        "num_links": len(inst.links),
        "family_size": len(family),
    }
    # generate returns only feasible draws unless allow_infeasible is set
    feasible = not cfg.allow_infeasible or all_covered(family, _ends(inst.links))
    record["feasible"] = feasible
    if not feasible:
        record["verdicts"] = {}
        record["pass"] = True
        return record

    # the solve's crossing table feeds the minimality check, the audits and
    # the exact search; the cover and dual-feasibility verdicts stay from scratch
    result = solve(inst.links, family)
    record["phases"] = len(result.trace)
    record.update(_solution_obj(result))

    verdicts = {
        "cover": all_covered(family, _ends(inst.links[i] for i in result.solution)),
        "minimal": _single_drop_minimal(family, result.solution, result.table),
        "dual_feasible": dual_feasible(inst.links, family, result.y),
        "cost_le_5_dual": result.cost <= 5 * result.dual_total,
    }

    audits = audit_run(inst.links, result, cfg.audit_mode)
    record["audits"] = [_audit_obj(r) for r in audits]
    verdicts["audits"] = all(r.passed for r in audits)
    quotients = [Fraction(r.lstar_size, r.num_cores) for r in audits if r.num_cores]
    record["max_density_quotient"] = str(max(quotients)) if quotients else None

    try:
        opt = exact_optimum(inst.links, family, warm_start=result)
    except SearchBudgetExceeded:
        record["opt_cost"] = None
        record["ratio"] = None
    else:
        record["opt_cost"] = str(opt.opt_cost)
        record["opt_links"] = list(opt.opt_links)
        if opt.opt_cost:
            record["ratio"] = str(result.cost / opt.opt_cost)
        else:
            record["ratio"] = None if result.cost else "1"
        verdicts["ratio_le_5"] = result.cost <= 5 * opt.opt_cost
        verdicts["dual_le_opt"] = result.dual_total <= opt.opt_cost

    record["verdicts"] = verdicts
    record["pass"] = all(verdicts.values())
    return record


def _summarize(records) -> dict:
    ratios = [Fraction(r["ratio"]) for r in records if r.get("ratio") is not None]
    quotients = [
        Fraction(r["max_density_quotient"])
        for r in records
        if r.get("max_density_quotient") is not None
    ]
    failed = [r["index"] for r in records if not r["pass"]]
    tallies = {}
    for r in records:
        for name, ok in r.get("verdicts", {}).items():
            s = tallies.setdefault(name, {"pass": 0, "fail": 0})
            s["pass" if ok else "fail"] += 1
    summary = {
        "instances": len(records),
        "feasible": sum(1 for r in records if r.get("feasible")),
        "min_ratio": str(min(ratios)) if ratios else None,
        "mean_ratio": str(sum(ratios, Fraction(0)) / len(ratios)) if ratios else None,
        "max_ratio": str(max(ratios)) if ratios else None,
        "max_density_quotient": str(max(quotients)) if quotients else None,
        "verdict_tallies": tallies,
        "failed_instances": failed,
        "all_passed": not failed,
    }
    refused = sum(1 for r in records if r.get("feasible") and r["opt_cost"] is None)
    if refused:
        summary["exact_refused"] = refused
    return summary


def run_pipeline(cfg: RunConfig):
    """Run the whole batch, one record at a time in index order; under
    fail_fast it stops at the first failed record. Returns (records, summary)."""
    records = []
    for index in range(cfg.count):
        record = pipeline_record(cfg, index)
        records.append(record)
        if cfg.fail_fast and not record["pass"]:
            break
    return records, _summarize(records)


def report_lines(records, summary) -> str:
    lines = [json.dumps(r, separators=(",", ":")) for r in records]
    lines.append(json.dumps({"summary": summary}, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def report_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in records:
        if not r.get("feasible"):
            continue
        writer.writerow([
            r["index"], r["n"], r["num_links"], r["family_size"], r.get("phases", 0),
            r.get("cost"), r.get("dual_total"), r.get("opt_cost"), r.get("ratio"),
            r.get("max_density_quotient"),
        ])
    return buf.getvalue()


def _range(text: str, convert):
    """The (lo, hi) pair of "lo:hi", or (v, v) of a single value "v", each
    side read by convert; a side left empty is refused with ValueError."""
    lo, colon, hi = text.partition(":")
    if colon and not (lo and hi):
        raise ValueError(f"range {text!r} has an empty side")
    return (convert(lo), convert(hi if colon else lo))


#: the RunConfig fields that a LO:HI flag sets, to the type of each side
_RANGES = {"n_range": int, "density_range": float, "cap_range": int,
           "link_range": int, "cost_range": int}


def _batch_parser(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand whose flags set the RunConfig fields their dests name. A flag left
    out keeps RunConfig's default; only --count states its own, 10 instead of 1."""
    p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, help="batch seed")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n-range", dest="n_range", metavar="LO:HI")
    p.add_argument("--density", dest="density_range", metavar="LO:HI")
    p.add_argument("--cap-range", dest="cap_range", metavar="LO:HI")
    p.add_argument("--link-range", dest="link_range", metavar="LO:HI")
    p.add_argument("--cost-range", dest="cost_range", metavar="LO:HI")
    p.add_argument("--lambda-policy", help="fixed:<q> or quantile:<f>")
    p.add_argument("--allow-infeasible", action="store_true")
    p.add_argument("--enum-limit", type=int)
    p.add_argument("--out", default=None, help="write the JSON lines here")
    return p


def _config_from_args(args) -> RunConfig:
    given = vars(args)
    return RunConfig(**{
        f.name: _range(given[f.name], _RANGES[f.name]) if f.name in _RANGES else given[f.name]
        for f in dataclasses.fields(RunConfig) if f.name in given
    })


def _read_instance_arg(path: str, enum_limit: int) -> tuple:
    """The instance in the file at path (stdin for "-") and its small-cut
    family, as (Instance, SetFamily)."""
    if path == "-":
        inst = load_instance(sys.stdin.read())
    else:
        with open(path, "r", encoding="utf-8") as fh:
            inst = load_instance(fh.read())
    return inst, enumerate_small_cuts(inst.graph, inst.threshold, enum_limit)


def _emit(text: str, path: str | None, stdout) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        stdout.write(text)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutcover",
        description="Cover all small cuts of a capacitated graph with priced "
        "links, and certify the solver's structural guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    one = argparse.ArgumentParser(add_help=False)  # what solve, audit and exact share
    one.add_argument("instance", help="instance file path, or - for stdin")
    one.add_argument("--enum-limit", type=int, default=RunConfig.enum_limit)

    _batch_parser(sub, "gen", "emit generated instances as JSON lines")
    sub.add_parser("solve", parents=[one], help="solve one instance file")
    p_audit = sub.add_parser("audit", parents=[one],
                             help="solve one instance and audit every phase")
    p_audit.add_argument("--audit", dest="audit_mode", choices=AUDIT_MODES,
                         default=RunConfig.audit_mode)
    sub.add_parser("exact", parents=[one], help="exact optimum of one instance file")
    p_bench = _batch_parser(sub, "bench", "generate, solve, audit and compare "
                            "against the exact optimum over a batch")
    p_bench.add_argument("--audit", dest="audit_mode", choices=AUDIT_MODES)
    p_bench.add_argument("--fail-fast", action="store_true")
    p_bench.add_argument("--csv", dest="csv_out", default=None,
                         help="write the aggregate CSV here")
    return parser


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    args = _parser().parse_args(argv)

    try:
        if args.command == "gen":
            cfg = _config_from_args(args)
            lines = []
            for i in range(cfg.count):
                inst, family = generate(cfg, i)
                obj = instance_to_obj(inst)
                if cfg.allow_infeasible:
                    obj["feasible"] = all_covered(family, _ends(inst.links))
                lines.append(json.dumps(obj, separators=(",", ":")))
            _emit("\n".join(lines) + ("\n" if lines else ""), args.out, stdout)
            return 0

        if "instance" in args:  # solve, audit and exact
            inst, family = _read_instance_arg(args.instance, args.enum_limit)
        if args.command == "solve":
            result = solve(inst.links, family)
            stdout.write(json.dumps(_solution_obj(result), separators=(",", ":")) + "\n")
            return 0

        if args.command == "exact":
            opt = exact_optimum(inst.links, family)
            stdout.write(json.dumps({
                "opt_cost": str(opt.opt_cost),
                "opt_links": list(opt.opt_links),
                "nodes_explored": opt.nodes_explored,
            }, separators=(",", ":")) + "\n")
            return 0

        if args.command == "audit":
            result = solve(inst.links, family)
            reports = audit_run(inst.links, result, args.audit_mode)
            obj = _solution_obj(result)
            obj["audits"] = [_audit_obj(r) for r in reports]
            obj["pass"] = all(r.passed for r in reports)
            stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
            return 0 if obj["pass"] else 1

        # bench
        cfg = _config_from_args(args)
        records, summary = run_pipeline(cfg)
        _emit(report_lines(records, summary), args.out, stdout)
        if args.csv_out:
            _emit(report_csv(records), args.csv_out, stdout)
        print(
            f"cutcover bench: {summary['instances']} instances, "
            f"max ratio {summary['max_ratio']}, "
            f"max density quotient {summary['max_density_quotient']}, "
            f"{'all passed' if summary['all_passed'] else 'FAILURES: ' + str(summary['failed_instances'])}",
            file=stderr,
        )
        return 0 if summary["all_passed"] else 1
    except (CutCoverError, ValueError, OSError) as exc:
        print(f"cutcover: error: {exc}", file=stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
