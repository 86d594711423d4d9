#!/usr/bin/env python3
"""Pipeline benchmark for cutcover: one workload per fresh, single process.

    python3 pipebench/run.py --workload accept --seed 20250809 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the workload's items run in a closed
loop (one item after another, one worker) for ``--seconds`` seconds, every
output is checked, and the end-to-end metrics are printed; see
pipebench/README.md for their definitions. With
``--trace 1`` one untraced pass over the workload's items is followed by
one pass with every public function of the package wrapped in a span; the
per-layer metrics come from that pass, and the spans are written to
``.pipebench/``. The last line of standard output is always one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
OUT_DIR = Path(".pipebench")

#: fresh processes timed from start until the package is imported and the
#: workload's inputs are built; setup_s is their median
SETUP_SAMPLES = 5

#: items re-run after the timed loop to check that outputs repeat exactly
REPLAY = 10

#: spans whose self time, as a share of the traced pass, is a per-layer
#: metric; a share rather than seconds, so that a layer a workload never
#: enters reads 0 of the pass instead of a constant time, and so that a
#: slow spell of the host moves it less
SPAN_SHARE = (
    "kernels.minimal_flags",
    "kernels.pliable_violation",
    "kernels.structsub_violation",
    "kernels.sparse_crossing_violation",
    "kernels.gamma_star_exhaustive",
    "kernels.gray_cut_values",
    "kernels.small_cut_masks",
    "family.check_symmetry",
    "family.check_pliable",
    "family.check_structural_submodularity",
    "family.check_disjoint_cores",
    "family.check_sparse_crossing",
    "family.check_gamma_star",
    "family.residual",
    "family.cores",
    "graph.nontrivial_cut_values",
    "graph.incremental_cut_scan",
    "graph.enumerate_small_cuts",
    "gen.gen_instance",
    "pd.solve",
    "pd.grow_phase",
    "pd.reverse_delete",
    "pd.dual_feasible",
    "exact.exact_optimum",
    "certify.audit_run",
    "certify.find_witness_laminar",
    "certify.crossing_density_audit",
    "certify.minimal_cover",
    "cli.pipeline_record",
)
#: spans whose call count is a per-layer metric
SPAN_CALLS = (
    "kernels.minimal_flags",
    "graph.enumerate_small_cuts",
    "pd.grow_phase",
    "family.residual",
    "family.cores",
)


def _import_package():
    """Import cutcover from this checkout's src; None when it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import cutcover
    except ImportError as exc:
        print(f"pipebench: cannot import cutcover from {SRC}: {exc}", file=sys.stderr)
        return None
    if Path(cutcover.__file__).resolve().parent.parent != SRC:
        print(f"pipebench: cutcover imported from {cutcover.__file__}, not {SRC}", file=sys.stderr)
        return None
    return cutcover


def environment(cutcover, workload: str, seed: int) -> dict:
    """What a timing depends on; numbers from different backends never compare."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": cutcover.kernels.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": nproc,
        "workload": workload,
        "seed": seed,
    }


def measure_setup(args) -> list:
    """Seconds from process start until the inputs are ready, per fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
        samples.append(elapsed)
    return samples


@dataclass
class Loop:
    """What one closed loop measured. Busy time is wall time minus the time
    spent making payloads."""

    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    kept: list = field(default_factory=list)


def run_items(workload, inputs, payloads, seconds: float | None = None, keep: int | None = None) -> Loop:
    """Closed loop over the payload stream until it ends or `seconds` pass.

    Keeps the outputs of the first `keep` items, or of all. A raised
    exception or a failed check counts as a failed item; a complete batch
    whose summary fails counts once more. A stream that raises while making
    a payload counts as one failed item and ends the loop.
    """
    batch = workload.batch_size(inputs)
    clock = time.perf_counter
    loop = Loop()
    pending = []
    prep = 0.0
    start = clock()
    stream = iter(payloads)
    while seconds is None or clock() - start < seconds:
        t_prep = clock()
        try:
            payload = next(stream, None)
        except Exception:
            traceback.print_exc()
            loop.attempted += 1
            loop.failed += 1
            break
        t0 = clock()
        prep += t0 - t_prep
        if payload is None:
            break
        loop.attempted += 1
        try:
            out = workload.run(payload)
            loop.latencies.append(clock() - t0)
            ok = workload.check(out)
        except Exception:
            loop.latencies.append(clock() - t0)
            traceback.print_exc()
            out, ok = None, False
        loop.failed += not ok
        if keep is None or len(loop.kept) < keep:
            loop.kept.append(out)
        if batch:
            pending.append(out)
            if len(pending) == batch:
                loop.failed += not _guarded(workload.check_batch, pending)
                pending = []
    loop.busy_s = clock() - start - prep
    return loop


def _p98(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=50, method="inclusive")[48]


def _guarded(check, *args) -> bool:
    try:
        return check(*args)
    except Exception:
        traceback.print_exc()
        return False


def timed(args, workload, inputs, setup_samples) -> tuple:
    loop = run_items(workload, inputs, workload.payloads(inputs), args.seconds, keep=REPLAY)
    attempted = loop.attempted
    # the first items once more from a fresh stream: the report must repeat byte for byte
    again = run_items(workload, inputs, itertools.islice(workload.payloads(inputs), len(loop.kept)))
    failed = loop.failed + again.failed + (not _guarded(workload.same, loop.kept, again.kept))
    ms = [x * 1000.0 for x in loop.latencies] or [0.0]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "items_per_s": (len(loop.latencies) / loop.busy_s, "1/s"),
        "item_ms_p50": (statistics.median(ms), "ms"),
        "item_ms_p98": (_p98(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"items {attempted} in {loop.busy_s:.3f} s busy")
    print(f"fail_frac {failed / attempted} ({failed}/{attempted})")
    print(f"setup samples (s): {', '.join(f'{x:.4f}' for x in setup_samples)}")
    return metrics, attempted, failed


def traced(args, cutcover, workload, inputs, env) -> tuple:
    """One untraced and one traced pass over the same items."""
    from tracer import Tracer

    instances = args.instances or workload.pass_instances(inputs)
    payloads = list(workload.payloads(inputs, instances))
    plain = run_items(workload, inputs, payloads)
    tracer = Tracer()
    tracer.install(cutcover)
    spanned = run_items(workload, inputs, payloads)
    untraced_s, traced_s = plain.busy_s, spanned.busy_s
    summary = tracer.summary(traced_s)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"trace-{args.workload}-{args.seed}"
    tracer.dump(f"{stem}.jsonl")
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "instances": instances, "summary": summary}, fh, indent=1, sort_keys=True)
    # traced outputs must equal untraced ones; this check runs outside the spans summarised above
    attempted = plain.attempted + spanned.attempted
    failed = plain.failed + spanned.failed + (not _guarded(workload.same, plain.kept, spanned.kept))

    per = summary["per_span"]

    def span(name, field):
        return per.get(name, {}).get(field, 0)

    metrics = {}
    for name in SPAN_SHARE:
        metrics[f"{name}.share"] = (span(name, "self_s") / traced_s, "frac")
    for name in SPAN_CALLS:
        metrics[f"{name}.calls"] = (span(name, "calls"), "count")
    for name, value in summary["counters"].items():
        metrics[name] = (value, "count")
    report_s = span("cli._summarize", "total_s") + span("cli.report_lines", "total_s")
    metrics["cli.report.share"] = (report_s / traced_s, "frac")
    for group, share in summary["shares"].items():
        metrics[f"{group}.share"] = (share, "frac")
    metrics["trace.coverage"] = (summary["coverage"], "frac")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.items"] = (len(spanned.latencies), "count")

    for name, row in sorted(per.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
        print(f"  {name:42s} self {row['self_s']:8.3f} s {100 * row['self_s'] / traced_s:5.1f} % calls {row['calls']}")
    print(f"{instances} instances, {len(spanned.latencies)} items: traced {traced_s:.3f} s, untraced {untraced_s:.3f} s, "
          f"overhead {traced_s - untraced_s:.3f} s, coverage {summary['coverage']:.4f}; spans in {stem}.jsonl")
    print(f"fail_frac {failed / attempted} ({failed}/{attempted})")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 20250809)")
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, default=None,
                        help="instances in the traced pass (default: the workload's batch)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cutcover = _import_package()
    if cutcover is None:
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        workload.build(args.seed)
        print("ready", flush=True)
        return 0

    env = environment(cutcover, args.workload, args.seed)
    print(json.dumps({"env": env}, sort_keys=True), flush=True)
    if args.trace:
        inputs = workload.build(args.seed)
        metrics, attempted, failed = traced(args, cutcover, workload, inputs, env)
    else:
        setup_samples = measure_setup(args)
        inputs = workload.build(args.seed)
        metrics, attempted, failed = timed(args, workload, inputs, setup_samples)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
