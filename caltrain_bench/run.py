"""CalTrain benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 caltrain_bench/run.py --workload ingest_growth --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` repeats the
workload with spans around the public calls into each module and prints
the per-layer metrics. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it show each metric with its unit, sample count and percentile,
and the run record (host, thread settings, backend, seed, workload
configuration, and median/quartiles/count of every sample). The exit
code is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Metric names, units and bounds, and why each workload exists.
DECLARED = ROOT / "BENCHMARK.json"
#: Thread pools pinned at or below the host's cores (2 on the reference
#: host): one BLAS thread and one NN worker keep timings steady beside the
#: serving and ingest threads the workloads start.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "REPRO_NN_THREADS": "1",
           "REPRO_NN_BACKEND": "optimized"}


#: Spans whose children are a finer breakdown of the same work (the
#: nn.L<i> spans inside the FrontNet/BackNet passes and the fingerprint
#: stage, the decrypt ECALL's AEAD opens): these report their whole
#: duration; every other *_ms metric is self time.
INCLUSIVE = {"core.frontnet_fwd", "core.frontnet_bwd", "core.backnet_fwd",
             "core.backnet_bwd", "core.decrypt", "core.fingerprint"}


def pin_environment(scratch: Path) -> None:
    """Must run before numpy is imported. Temporary files stay inside
    the checkout."""
    os.environ.update(THREADS)
    os.environ["TMPDIR"] = str(scratch)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(tally, problems) -> dict:
    """Every gated end-to-end metric, then the informational ones. A
    metric without samples reads 0 and fails the run."""
    from caltrain_bench import spec, stats

    out = {}
    sources = dict(spec.SOURCES)
    sources.update({name: entry[1:] for name, entry in spec.INFO.items()})
    for name, (sample, pct, scale) in sources.items():
        values = tally.values(sample)
        if not values:
            problems.append(f"{name}: the workload produced no {sample} "
                            "samples")
            values = [0.0]
        picked = stats.tail(values, pct)
        out[name] = dict(picked, value=picked["value"] * scale)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = {"value": rss_kb / 1024.0, "percentile": None,
                          "n": 1}
    attempted = tally.counts.get("attempted", 0)
    out["failed_frac"] = {"value": tally.counts.get("failed", 0)
                          / max(1, attempted), "percentile": None,
                          "n": attempted}
    return out


def per_layer(tally, recorder) -> dict:
    from caltrain_bench import stats

    spans = recorder.by_name()
    self_time = recorder.self_times()

    def mean_self_ms(name):
        found = spans.get(name, ())
        if not found:
            return 0.0
        if name in INCLUSIVE:
            return 1e3 * sum(s.duration for s in found) / len(found)
        return 1e3 * sum(self_time[s.sid] for s in found) / len(found)

    def mean_attr(name, attr):
        found = spans.get(name, ())
        return (sum(s.attrs.get(attr, 0.0) for s in found) / len(found)
                if found else 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    c = tally.counts.get
    out = {}
    for name in spans:
        if name.startswith("nn.L"):
            out[name + "_ms"] = mean_self_ms(name)
    for i in range(10):
        for d in ("fwd", "bwd"):
            out.setdefault(f"nn.L{i}.{d}_ms", 0.0)
    for name in ("ingest.send_chunk", "ingest.complete", "ingest.validate",
                 "ingest.ledger_commit", "ingest.resume", "crypto.open",
                 "enclave.ecall", "nn.optimizer", "core.frontnet_fwd",
                 "core.frontnet_bwd", "core.backnet_fwd", "core.backnet_bwd",
                 "core.decrypt", "core.fingerprint",
                 "resilience.checkpoint_save", "governance.promote",
                 "governance.gate_verify", "governance.log_verify",
                 "governance.locate", "serving.audit_verify",
                 "serving.search", "serving.route", "serving.append",
                 "serving.refresh", "serving.index_build"):
        out[name + "_ms"] = mean_self_ms(name)
    answers = spans.get("serving.answer", ())
    answer_ms = (1e3 * sum(s.duration for s in answers) / len(answers)
                 if answers else 0.0)
    lateness = tally.samples.get("lateness_s") or [0.0]
    ages = tally.samples.get("answer_age_s") or [0.0]
    traced = tally.samples.get("traced_pipeline_s")
    untraced = tally.samples.get("untraced_pipeline_s")
    out.update({
        "ingest.committed": c("committed", 0),
        "ingest.quarantined": c("quarantined", 0),
        "ingest.rejected_chunks": c("rejected_chunks", 0),
        "crypto.open_calls": len(spans.get("crypto.open", ())),
        "crypto.open_bytes": sum(s.attrs.get("bytes", 0.0)
                                 for s in spans.get("crypto.open", ())),
        "enclave.ecalls": len(spans.get("enclave.ecall", ())),
        "enclave.sim_s": stats.percentile(tally.values("sim_s"), 50.0),
        "enclave.paged_bytes": c("tele.paged_bytes", 0),
        "core.ir_bytes": mean_attr("core.frontnet_fwd", "bytes"),
        "core.delta_bytes": mean_attr("core.backnet_bwd", "bytes"),
        "resilience.checkpoint_bytes": mean_attr(
            "resilience.checkpoint_save", "bytes"),
        "governance.locate_calls": len(spans.get("governance.locate", ())),
        "serving.audit_len": mean_attr("serving.audit_verify", "length"),
        "serving.batch_size": ratio(c("tele.batched_queries", 0),
                                    c("tele.batches", 0)),
        "serving.scan_fraction": ratio(c("tele.candidates_scanned", 0),
                                       c("tele.brute_equivalent_rows", 0)),
        "serving.answer_ms": answer_ms,
        "serving.queue_wait_ms": max(
            0.0, answer_ms - out["serving.search_ms"]),
        "serving.cache_hit_ratio": ratio(
            c("tele.cache_hits", 0),
            c("tele.cache_hits", 0) + c("tele.cache_misses", 0)),
        "serving.hedge_win_ratio": ratio(c("tele.hedges_won", 0),
                                         c("tele.hedges_launched", 0)),
        "serving.retries": c("tele.retries", 0),
        "serving.degraded_frac": ratio(c("tele.degraded_answers", 0),
                                       c("tele.queries_ok", 0)),
        "serving.evictions": c("tele.evictions", 0),
        "serving.stale_answer_frac": ratio(c("stale_answers", 0),
                                           c("queries", 0)),
        "serving.answer_age_max_ms": 1e3 * max(ages),
        "serving.refreshes": len(spans.get("serving.refresh", ())),
        "serving.compactions": c("tele.compactions", 0),
        "bench.lateness_p99_ms": 1e3 * stats.tail(lateness, 99.0)["value"],
        "bench.trace_overhead_frac": (
            stats.percentile(traced, 50.0) / stats.percentile(untraced, 50.0)
            - 1.0 if traced and untraced else 0.0),
        "bench.attribution_explained_frac": recorder.explained_fraction(
            "governance.attribute", {
                "governance.locate", "governance.gate_verify",
                "governance.log_verify", "serving.audit_verify"}),
        "bench.train_nn_frac": recorder.explained_fraction(
            "core.train", lambda n: n.startswith("nn.L")),
    })
    return {name: {"value": float(value)} for name, value in out.items()}


def run_record(args, declared, tally, metrics) -> dict:
    import numpy

    from caltrain_bench import stats, workloads

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__, "blas": blas},
        "threads": {k: os.environ[k] for k in THREADS},
        "git_sha": git_sha(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "why": {w["name"]: w["why"]
                for w in declared["workloads"]}[args.workload],
        "config": workloads.config(args.workload),
        "final_loss": tally.losses, "store_digest": tally.digests,
        "samples": {name: stats.summary(values)
                    for name, values in sorted(tally.samples.items())
                    if values},
        "counts": tally.counts,
        "failures": tally.failures[:20],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = ROOT / ".caltrain_bench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    pin_environment(scratch)
    declared = json.loads(DECLARED.read_text())
    try:
        from caltrain_bench import trace, workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}")
        recorder = trace.SpanRecorder() if args.trace else None
        started = time.perf_counter()
        tally = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, scratch, recorder)
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    from caltrain_bench import checks

    problems = list(tally.problems)
    if not checks.all_equal(tally.losses):
        problems.append(f"final training loss differs between same-seed "
                        f"chains: {tally.losses}")
    if not checks.all_equal(tally.digests):
        problems.append("store manifest digest differs between same-seed "
                        "chains")
    from caltrain_bench import spec

    if args.trace:
        detail = per_layer(tally, recorder)
        section = "per_layer"
    else:
        detail = end_to_end(tally, problems)
        section = "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in declared[section]}
    shown = dict(units, failed_frac="ratio",
                 **{n: entry[0] for n, entry in spec.INFO.items()})
    for name in sorted(detail):
        entry = detail[name]
        extra = "" if name in units else "  (not gated)"
        if entry.get("n") is not None:
            extra += f"  n={entry['n']}"
            if entry.get("percentile") not in (None, 50.0):
                extra += f" (p{entry['percentile']:.1f})"
        print(f"{name:<36} {entry['value']:>14.4f} {shown[name]}{extra}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    record = run_record(args, declared, tally, detail)
    record["wall_s"] = wall
    print("run record: " + json.dumps(record, sort_keys=True, default=str))
    attempted = int(tally.counts.get("attempted", 0))
    result = {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": int(tally.counts.get("failed", 0)),
        "metrics": {name: {"value": detail[name]["value"],
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
