"""The benchmark's own tests, at toy size.

Run from the repository root::

    python3 -m pytest caltrain_bench/tests -q
"""

import dataclasses
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from caltrain_bench import checks, loadgen, run, spec, stats  # noqa: E402
from caltrain_bench import workloads  # noqa: E402
from caltrain_bench import world as chain  # noqa: E402

SMOKE = {
    "train_pipeline": dataclasses.replace(
        workloads.SIZES["train_pipeline"], width=0.05, records_per=40,
        sessions_per=2, chunk=16, epochs=1, store_segment=32, heldout=40,
        verify_queries=20, attributions=3, query_rate=200.0),
    "ingest_growth": dataclasses.replace(
        workloads.SIZES["ingest_growth"], records_per=40, chunk=16,
        store_segment=64, heldout=200, verify_queries=10, attributions=2,
        query_rate=200.0, growth_per=260),
}


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", SMOKE)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "MIN_TIMED_CHAINS", 2)
    monkeypatch.setattr(workloads, "WARMUP_S", 0.2)
    monkeypatch.setattr(workloads, "SESSION_RECORDS", 32)


# -- percentiles -----------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (1000, 99.0),   # exactly ten samples beyond p99
    (999, 100.0 * (1 - 10 / 999)),
    (200, 95.0),
    (100, 90.0),
    (15, 50.0),     # no tail has ten beyond: the median stands in
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.effective_percentile(99.0, n) == pytest.approx(expected)


def test_tail_value_and_count():
    values = list(range(1, 201))   # 200 samples
    tail = stats.tail(values, 99.0)
    assert tail["n"] == 200 and tail["percentile"] == pytest.approx(95.0)
    beyond = [v for v in values if v > tail["value"]]
    assert len(beyond) == 10
    assert stats.tail(values, 50.0)["value"] == pytest.approx(100.5)


# -- seeded inputs ---------------------------------------------------------------


def test_seeded_generator_reproduces_inputs():
    size = SMOKE["ingest_growth"]
    a, b = chain.make_inputs(size, 7), chain.make_inputs(size, 7)
    assert a.hostile == b.hostile
    assert all(ra == rb for pid in a.records
               for ra, rb in zip(a.records[pid], b.records[pid]))
    assert np.array_equal(a.heldout_x, b.heldout_x)
    c = chain.make_inputs(size, 8)
    assert not np.array_equal(a.heldout_x, c.heldout_x)
    plan = loadgen.schedule(100.0, 20, every=5)
    assert [r.kind for r in plan].count("attribute") == 4
    assert plan == loadgen.schedule(100.0, 20, every=5)


# -- workloads at smoke size -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_checks(name, smoke, tmp_path):
    tally = workloads.WORKLOADS[name](3, 1.0, tmp_path)
    assert tally.problems == []
    assert tally.counts.get("failed", 0) == 0
    assert tally.counts.get("quarantined", 0) > 0
    assert len(set(tally.losses)) == 1 and len(set(tally.digests)) == 1
    for sample, _, _ in spec.SOURCES.values():
        assert tally.values(sample), sample


def test_tracing_restores_the_program(smoke, tmp_path):
    from repro.nn.network import Network
    from repro.serving import ServingCluster

    before = (Network.forward, ServingCluster.query)
    tally = workloads.ingest_growth(3, 1.0, tmp_path,
                                    recorder=run_recorder())
    assert tally.problems == []
    assert (Network.forward, ServingCluster.query) == before


def run_recorder():
    from caltrain_bench import trace
    return trace.SpanRecorder()


def test_answer_age_names_the_oldest_missing_commit():
    # Label 0 owns store rows 0, 1, 5 and 9; growth committed prefixes
    # 4 (set-up), 6 at t=10 and 10 at t=20.
    brute = SimpleNamespace(rows={0: (None, np.array([0, 1, 5, 9]))})
    commits = checks.Commits([(float("-inf"), 4), (10.0, 6), (20.0, 10)])

    def age(label_rows, sent):
        hits = SimpleNamespace(label_rows=label_rows)
        return commits.age(brute, 0, hits, sent)

    assert age(4, 25.0) == 0.0            # holds every committed row
    assert age(3, 15.0) == 0.0            # row 9 not committed yet
    assert age(3, 21.5) == pytest.approx(1.5)
    assert age(2, 25.0) == pytest.approx(15.0)
    assert age(1, 25.0) == float("inf")   # lacks a set-up row


def test_tampered_governance_log_fails_the_run(smoke, capsys, monkeypatch):
    loop = chain.serve.verification_loop

    def tamper_then_serve(world, recorder=None):
        (world.root / "governance" / "head.json").write_text(
            json.dumps({"seq": 0, "chain": "00"}))
        loop(world, recorder)

    monkeypatch.setattr(chain.serve, "verification_loop", tamper_then_serve)
    code, result, out = run_main(["--workload", "train_pipeline", "--seed",
                                  "5", "--seconds", "1", "--trace", "0"],
                                 capsys, monkeypatch)
    assert code == 1 and not result["correct"]
    assert "CHECK FAILED: attribution" in out
    assert "CHECK FAILED: promotion no longer verifies" in out


# -- the printed result ------------------------------------------------------------


def run_main(argv, capsys, monkeypatch):
    # main() pins thread settings, TMPDIR and sys.path for the process;
    # restore them after the test.
    for name in [*run.THREADS, "TMPDIR"]:
        monkeypatch.setenv(name, os.environ.get(name, ""))
    monkeypatch.setattr(sys, "path", list(sys.path))
    code = run.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def test_every_declared_metric_is_defined():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(spec.END_TO_END) == sorted(
        entry["name"] for entry in declared["end_to_end"])
    assert set(spec.SOURCES) | {"peak_rss_mb"} == set(spec.END_TO_END)
    assert sorted(spec.PER_LAYER) == sorted(
        entry["name"] for entry in declared["per_layer"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section, smoke,
                                                   capsys, monkeypatch):
    code, result, _ = run_main(["--workload", "ingest_growth", "--seed",
                                "5", "--seconds", "1", "--trace", str(trace)],
                               capsys, monkeypatch)
    assert code == 0 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert sorted(result["metrics"]) == sorted(e["name"] for e in declared)
    units = {entry["name"]: entry["unit"] for entry in declared}
    assert all(m["unit"] == units[n] for n, m in result["metrics"].items())
