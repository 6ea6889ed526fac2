"""What every metric the benchmark prints means and where it comes from.

Names, units, bounds and directions live in ``BENCHMARK.json`` only; this
module keeps what that file does not say. ``END_TO_END`` defines each gated
metric a user of the system sees (every workload reports every one of them:
the chain runs in each workload, as set-up or as the timed phase) and
``SOURCES`` names the samples it is taken from. ``PER_LAYER`` maps each
metric of the traced run's spans to the end-to-end metric it should move,
on the workload that shows it.
"""

from __future__ import annotations

from typing import Dict

END_TO_END: Dict[str, str] = {
    "setup_s": "median time to build a world before its timed phase; on "
               "ingest_growth set-up includes the chain",
    "pipeline_s": "first chunk sent to first verified answer from the "
                  "promoted cluster, median over the run's chains",
    "train_samples_per_s": "samples trained per wall second of "
                           "CalTrain.train, median over chains",
    "ingest_records_per_s": "records in a session's receipt (committed + "
                            "quarantined) per wall second from open_session "
                            "to its receipt, median over sessions: the timed "
                            "uploads on ingest_growth, the chains' uploads "
                            "elsewhere",
    "query_p50_ms": "median ServingCluster.query latency from due time",
    "attribution_p50_ms": "median Attributor.attribute latency from due "
                          "time; ingest_growth takes its chains' samples",
    "peak_rss_mb": "peak resident memory of the run",
}

#: end-to-end metric -> (sample name, percentile, scale to its unit).
SOURCES = {
    "setup_s": ("setup_s", 50.0, 1.0),
    "pipeline_s": ("pipeline_s", 50.0, 1.0),
    "train_samples_per_s": ("train_samples_per_s", 50.0, 1.0),
    "ingest_records_per_s": ("ingest_records_per_s", 50.0, 1.0),
    "query_p50_ms": ("query_s", 50.0, 1e3),
    "attribution_p50_ms": ("attribution_s", 50.0, 1e3),
}

#: Printed with unit and sample count and kept in the run record, but not
#: gated: on a shared 2-core host their run-to-run spread exceeds any
#: bound the benchmark may set (tails of GIL-contended latency), or they
#: read the same on every run (the modelled clock).
# name: (unit, sample name, percentile, scale)
INFO = {
    "query_p99_ms": ("ms", "query_s", 99.0, 1e3),
    "attribution_p90_ms": ("ms", "attribution_s", 90.0, 1e3),
    "ingest_chunk_p99_ms": ("ms", "chunk_s", 99.0, 1e3),
    "ingest_commit_p90_ms": ("ms", "commit_s", 90.0, 1e3),
    "train_sim_s": ("modelled_s", "sim_s", 50.0, 1.0),
}

_TRAIN = "train_samples_per_s (train_pipeline)"
_PIPELINE = "pipeline_s (train_pipeline)"
_INGEST = "ingest_records_per_s (ingest_growth)"
_ATTRIBUTION = "attribution_p50_ms (train_pipeline)"
_QUERY = "query_p50_ms (train_pipeline)"
_WRITE_PATH = "query_p50_ms (ingest_growth)"

#: Per-layer metric -> the end-to-end metric it should move (on which
#: workload).
PER_LAYER: Dict[str, str] = {
    "ingest.send_chunk_ms": _INGEST,
    "ingest.complete_ms": _INGEST,
    "ingest.validate_ms": _INGEST,
    "ingest.ledger_commit_ms": _INGEST,
    "ingest.resume_ms": _INGEST,
    "ingest.committed": _INGEST,
    "ingest.quarantined": _INGEST,
    "ingest.rejected_chunks": _INGEST,
    "crypto.open_ms": _INGEST + "; " + _PIPELINE,
    "crypto.open_calls": _INGEST,
    "crypto.open_bytes": _INGEST,
    "enclave.ecalls": _PIPELINE,
    "enclave.ecall_ms": _PIPELINE,
    "enclave.sim_s": "none: the simulated SGX clock over training, never "
                     "mixed with wall time",
    "enclave.paged_bytes": _PIPELINE,
    **{f"nn.L{i}.{d}_ms": _TRAIN for i in range(10) for d in ("fwd", "bwd")},
    "nn.optimizer_ms": _TRAIN,
    "core.frontnet_fwd_ms": _TRAIN,
    "core.frontnet_bwd_ms": _TRAIN,
    "core.backnet_fwd_ms": _TRAIN,
    "core.backnet_bwd_ms": _TRAIN,
    "core.ir_bytes": _TRAIN,
    "core.delta_bytes": _TRAIN,
    "core.decrypt_ms": _PIPELINE,
    "core.fingerprint_ms": _PIPELINE,
    "resilience.checkpoint_save_ms": _PIPELINE,
    "resilience.checkpoint_bytes": _PIPELINE,
    "governance.promote_ms": _PIPELINE,
    "governance.gate_verify_ms": _ATTRIBUTION,
    "governance.log_verify_ms": _ATTRIBUTION,
    "governance.locate_ms": _ATTRIBUTION,
    "governance.locate_calls": _ATTRIBUTION,
    "serving.audit_verify_ms": _ATTRIBUTION,
    "serving.audit_len": _ATTRIBUTION,
    "serving.search_ms": _QUERY,
    "serving.batch_size": _QUERY,
    "serving.scan_fraction": _QUERY,
    "serving.answer_ms": _QUERY,
    "serving.queue_wait_ms": _QUERY,
    "serving.cache_hit_ratio": _QUERY,
    "serving.route_ms": _QUERY,
    "serving.hedge_win_ratio": _QUERY,
    "serving.retries": _QUERY,
    "serving.degraded_frac": _QUERY,
    "serving.evictions": _QUERY,
    "serving.stale_answer_frac": _WRITE_PATH,
    "serving.answer_age_max_ms": _WRITE_PATH,
    "serving.append_ms": _WRITE_PATH,
    "serving.refresh_ms": _WRITE_PATH,
    "serving.refreshes": _WRITE_PATH,
    "serving.compactions": _WRITE_PATH,
    "serving.index_build_ms": "setup_s (ingest_growth)",
    "bench.lateness_p99_ms": "none: how late the open-loop generator ran",
    "bench.trace_overhead_frac": "none: traced vs untraced chain time in "
                                 "the same run",
    "bench.attribution_explained_frac": "none: share of attribution time "
                                        "inside locate, gate verify, log "
                                        "verify and audit verify spans",
    "bench.train_nn_frac": "none: share of CalTrain.train time inside "
                           "nn.L<i> spans",
}
