#!/usr/bin/env python3
"""presforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a presforge checkout; presforge is imported from its
``src/`` directory.  One process runs one workload as a closed loop with a
single client and no threads.  Until ``--seconds`` is used (at least two
passes), it sets up (a fresh import of presforge plus seeded input
generation) and runs one pass over the workload's fixed job list.  Job times
are kept in seconds and in reference units (see speed.py).  Every verdict is
checked against an independently known answer, and every pass must repeat
the first pass's work counters and output bytes exactly.

Output: one JSON object per line.  ``row`` lines give per-job medians and
counters (the size sweeps), the ``report`` line gives the per-command
metrics, and the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones, including the
tracing overhead.  Spans of traced passes are written to
``.perfbench-trace/`` at exit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from speed import SpeedProbe
from tracing import Tracer, dump_spans
from workloads import WORKLOADS, WrongAnswer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "constructions", "freewords", "homology", "presentations",
           "quotients", "smallcancel", "uce")
MIN_PASSES = 2
SETUP_BUDGET_S = 0.5  # set up again before a pass until this much time is spent

# per-command report metrics: job kind -> name
KIND_METRICS = {
    "order": "order_s",
    "homsearch": "homsearch_s",
    "certify": "certify_sc_s",
    "bg-pipeline": "bg_pipeline_s",
    "superperfectify": "superperfectify_s",
    "uce": "uce_s",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(workload: str, seed: int, inputs: Path) -> tuple[float, list]:
    """Import presforge afresh and build the workload's inputs and jobs."""
    for name in [n for n in sys.modules if n == "presforge" or n.startswith("presforge.")]:
        del sys.modules[name]
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir()
    t0 = perf_counter()
    pkg = importlib.import_module("presforge")
    pf = SimpleNamespace(**{m: importlib.import_module(f"presforge.{m}") for m in MODULES})
    jobs = WORKLOADS[workload](pf, seed, inputs)
    elapsed = perf_counter() - t0
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        fail(f"presforge imported from {pkg.__file__}, not from {SRC}")
    return elapsed, jobs


def run_pass(jobs, pass_dir: Path, probe: SpeedProbe) -> list[dict]:
    """Run every job once, in order; time only the call into presforge, in
    seconds and in reference units."""
    pass_dir.mkdir()
    state: dict = {}
    records = []
    with probe:
        for job in jobs:
            rec = {"name": job.name, "kind": job.kind, "row": job.row,
                   "counters": None, "error": None}
            t0 = perf_counter()
            try:
                raw = job.run(pass_dir, state)
            except Exception:
                raw = None
                rec["error"] = traceback.format_exc()
            t1 = perf_counter()
            rec["seconds"] = t1 - t0 - probe.probe_seconds(t0, t1)
            rec["ref"] = rec["seconds"] / probe.unit(t0, t1)
            if rec["error"] is None:
                try:
                    rec["counters"] = job.check(raw)
                except WrongAnswer as e:
                    rec["error"] = f"wrong answer: {e}"
                except Exception:
                    rec["error"] = traceback.format_exc()
            records.append(rec)
    shutil.rmtree(pass_dir)
    return records


def count_failures(passes: list[list[dict]]) -> int:
    """Wrong answers, exceptions, and counters or output bytes that differ
    from the first pass over the same inputs."""
    failed = 0
    for records in passes:
        for rec, first in zip(records, passes[0]):
            if rec["error"] is not None:
                failed += 1
                print(f"perfbench: {rec['name']}: {rec['error']}", file=sys.stderr)
            elif rec["counters"] != first["counters"]:
                failed += 1
                print(f"perfbench: {rec['name']}: not reproducible: "
                      f"{rec['counters']} != {first['counters']}", file=sys.stderr)
    return failed


def pass_seconds(records: list[dict]) -> float:
    return sum(r["seconds"] for r in records)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def over_passes(passes, reduce, key: str = "seconds", kind: str | None = None) -> float:
    """Median over passes of `reduce` applied to the jobs' times (in seconds
    or reference units), optionally for one kind of job."""
    return statistics.median(
        reduce([r[key] for r in records if kind is None or r["kind"] == kind])
        for records in passes)


def end_to_end(passes, setup_times) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_ref": (over_passes(passes, sum, "ref"), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def command_report(passes, attempted: int, failed: int) -> dict:
    """Per-command medians over passes, in seconds and reference units."""
    def timing(reduce, kind=None) -> dict:
        return {"value": over_passes(passes, reduce, "seconds", kind), "unit": "s",
                "ref": over_passes(passes, reduce, "ref", kind)}

    report: dict = {"pass_s": timing(sum)}
    kinds = {r["kind"] for r in passes[0]}
    for kind, name in KIND_METRICS.items():
        if kind in kinds:
            report[name] = timing(sum, kind)
    if "word" in kinds:
        report["word_verdicts_per_s"] = {
            "value": over_passes(passes, lambda w: len(w) / sum(w), kind="word"), "unit": "1/s"}
        report["word_p50_s"] = timing(statistics.median, "word")
        # a pass decides 100 words, so at least ten samples lie beyond p90
        report["word_p90_s"] = {**timing(lambda w: percentile(w, 90), "word"),
                                "samples_per_pass": sum(r["kind"] == "word" for r in passes[0])}
    report["error_rate"] = {"value": failed / attempted, "unit": "1"}
    report["pass_seconds"] = [pass_seconds(p) for p in passes]
    report["jobs_per_pass"] = len(passes[0])
    return report


def job_rows(passes) -> list[dict]:
    """One row per sweep point: the median time of one of its jobs, and the
    first pass's counters summed over the row's jobs."""
    rows: dict[str, dict] = {}
    for records in passes:
        for r in records:
            row = rows.setdefault(r["row"], {"row": r["row"], "s": [], "ref": []})
            row["s"].append(r["seconds"])
            row["ref"].append(r["ref"])
    for r in passes[0]:
        c = r["counters"] or {}
        agg = rows[r["row"]].setdefault("counters", {})
        for key, value in c.items():
            if isinstance(value, int) and not isinstance(value, bool):
                agg[key] = agg.get(key, 0) + value
    out = []
    for row in rows.values():
        seconds, ref = row.pop("s"), row.pop("ref")
        row["jobs_per_pass"] = len(seconds) // len(passes)
        row["median_s"] = statistics.median(seconds)
        row["median_ref"] = statistics.median(ref)
        out.append(row)
    return out


# per-layer metrics, named as in BENCHMARK.json: self times, call counts and
# counts gathered by the tracer's result hooks
SELF_TIMES = (
    "quotients.todd_coxeter", "quotients.hom_search", "smallcancel.metric_certificate",
    "smallcancel.DehnSolver.solve", "freewords.free_reduce", "freewords.apply_map",
    "presentations.direct_product_presentation", "presentations.parse_presentation",
    "presentations.render_presentation", "homology.smith_normal_form", "homology.h1",
    "uce.find_commutator_witnesses", "uce.miller_uce", "constructions.rips_wise",
    "constructions.fibre_generators", "constructions.kill_finite_quotients",
    "constructions.super_perfectify", "cli.run_command",
)
CALLS = ("quotients.hom_search", "freewords.free_reduce", "freewords.apply_map",
         "homology.smith_normal_form", "homology.solve_row_lattice")
COUNTS = ("quotients.cosets_defined", "smallcancel.symmetrized_letters",
          "smallcancel.dehn_replacements", "smallcancel.dehn_letters", "homology.snf_cells")


def layer_sample(tracer: Tracer, records: list[dict]) -> tuple[dict, dict]:
    """(per-layer times, deterministic per-layer counts) of one traced pass."""
    totals = tracer.layer_totals()
    times = {f"{n}.self_s": totals.get(n, {}).get("self_s", 0.0) for n in SELF_TIMES}
    times["smallcancel.DehnSolver.init_s"] = (
        totals.get("smallcancel.DehnSolver.init", {}).get("total_s", 0.0))
    counts = {f"{n}.calls": totals.get(n, {}).get("calls", 0) for n in CALLS}
    counts.update({n: tracer.counts.get(n, 0) for n in COUNTS})
    cosets = tracer.counts.get("quotients.cosets_defined", 0)
    counts["quotients.coset_yield"] = (
        tracer.counts.get("quotients.index_sum", 0) / cosets if cosets else 0.0)
    counts["cli.artifact_bytes"] = sum((r["counters"] or {}).get("artifact_bytes", 0)
                                       for r in records)
    return times, counts


def per_layer(samples, untraced, traced) -> tuple[dict, int]:
    """Median per-layer times over traced passes, their counts (which must
    repeat exactly), and traced minus untraced pass time."""
    metrics = {}
    for name in samples[0][0]:
        metrics[name] = (statistics.median(s[0][name] for s in samples), "s")
    mismatches = 0
    for _times, counts in samples[1:]:
        if counts != samples[0][1]:
            mismatches += 1
            print(f"perfbench: layer counts not reproducible: {counts} != {samples[0][1]}",
                  file=sys.stderr)
    units = {"quotients.coset_yield": "ratio", "cli.artifact_bytes": "bytes"}
    for name, value in samples[0][1].items():
        metrics[name] = (value, units.get(name, "count"))
    plain = over_passes(untraced, sum, "ref")
    metrics["trace.overhead_pct"] = (100 * (over_passes(traced, sum, "ref") - plain) / plain, "%")
    return metrics, mismatches


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (SRC / "presforge" / "__init__.py").is_file():
        fail(f"no presforge sources under {SRC}")
    for key in [k for k in os.environ if k.startswith("PRESFORGE_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    probe = SpeedProbe()
    tracer = Tracer() if args.trace else None
    setup_times: list[float] = []
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    samples = []
    spans = []
    try:
        start = perf_counter()
        while True:
            t0 = perf_counter()
            # a fresh import and fresh inputs for every pass: the passes are
            # independent runs with the same seed, and set-up is sampled
            # across the whole run
            spent = 0.0
            while spent < SETUP_BUDGET_S:
                elapsed, jobs = setup(args.workload, args.seed, work / "inputs")
                setup_times.append(elapsed)
                spent += elapsed
            untraced.append(run_pass(jobs, work / "pass", probe))
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    records = run_pass(jobs, work / "pass", probe)
                finally:
                    tracer.uninstall()
                traced.append(records)
                samples.append(layer_sample(tracer, records))
                spans.append(tracer.spans)
            step = perf_counter() - t0
            if len(untraced) >= MIN_PASSES and perf_counter() - start + step > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p) for p in passes)
    failed = count_failures(passes)
    if tracer is None:
        metrics = end_to_end(untraced, setup_times)
    else:
        metrics, mismatches = per_layer(samples, untraced, traced)
        failed += mismatches
        trace_dir = ROOT / ".perfbench-trace"
        trace_dir.mkdir(exist_ok=True)
        for k, pass_spans in enumerate(spans):
            dump_spans(pass_spans, trace_dir / f"{args.workload}-seed{args.seed}-pass{k}.tsv")
    for row in job_rows(untraced):
        print(json.dumps(row, sort_keys=True))
    print(json.dumps({"report": command_report(untraced, attempted, failed)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
