"""The workloads. Names are stable: later changes cite them; the one-line
reason for each is in ``BENCHMARK.json``.

Every workload runs the same chain (:mod:`caltrain_bench.world`)
several times, so each end-to-end metric has samples on every workload;
what differs is which plane the timed phase loads.

* ``train_pipeline`` — the timed phase *is* the chain, repeated: a few
  contributors stream sealed 28x28x3 records through the gateway, the
  Table I network trains with checkpointing on, the promoted 2-replica
  cluster answers a short verification loop with attributions. The nn,
  core, enclave and resilience modules do most of the work; serving and
  attribution see short history and small ledger segments, so this is
  the bypass case for any serving or attribution change.
* ``ingest_growth`` — writes beside reads: one sender uploads sessions
  back to back (a stated share of records tampered or relabelled, every
  Nth session evicted and resumed, each contributor under its token
  bucket), appending the model's fingerprints of each committed session
  to the store while a second thread queries at a low fixed rate and the
  cluster's auto-refresh and compaction adopt the growth. The contributor
  seals each growth session just before opening it (its own work, outside
  the session's timing), cycling through its plaintext rows with fresh
  record indices, so no run ever runs out of records to upload. Ingest and
  crypto (AEAD open in validation) do most of the work; serving runs its
  write path, so a read-side gain that costs writers shows up here.
"""

from __future__ import annotations

import contextlib
import gc
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.linkage import instance_digest

from caltrain_bench import loadgen, serve, trace, world as chain
from caltrain_bench.world import ChainSize

#: Chains a run makes: set-up and chain metrics are medians over them.
SETUP_REPEATS = 7
MIN_TIMED_CHAINS = 5
#: Open-loop traffic sent before the measured window so caches fill and
#: the first attribution's cold reads are not timed.
WARMUP_S = 2.0

SIZES: Dict[str, ChainSize] = {
    "train_pipeline": ChainSize(
        shape=(28, 28, 3), width=0.12, contributors=3, records_per=400,
        sessions_per=2, chunk=32, hostile_per=2, epochs=1,
        store_segment=256, heldout=200, verify_queries=100,
        attributions=8, query_rate=50.0),
    "ingest_growth": ChainSize(
        shape=(16, 16, 3), width=0.03, contributors=4, records_per=300,
        sessions_per=1, chunk=32, hostile_per=2, epochs=3,
        store_segment=512, heldout=1200, verify_queries=24,
        attributions=8, query_rate=25.0, growth_per=6000),
}

#: ingest_growth's timed uploads: records per session, of which tampered
#: or relabelled, and every Nth session evicted and resumed. Its queries
#: run at the chain's ``query_rate``.
SESSION_RECORDS = 64
SESSION_HOSTILE = 2
EVICT_EVERY = 8


def config(name: str) -> dict:
    """A workload's configuration, for the run record."""
    out = {"chain": asdict(SIZES[name])}
    if name == "ingest_growth":
        out.update(session_records=SESSION_RECORDS,
                   session_hostile=SESSION_HOSTILE, evict_every=EVICT_EVERY,
                   freshness_s=serve.FRESHNESS_S)
    return out


@dataclass
class Tally:
    """Samples, counts and problems of one run, across its worlds."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def values(self, name: str) -> List[float]:
        """Samples of the timed phase, or else of the set-up chains (for a
        stage the workload's timed phase does not exercise)."""
        return self.samples.get(name) or self.samples.get("chain_" + name,
                                                          [])

    def take_samples(self, world, prefix: str = "") -> None:
        """Move a world's samples here, names prefixed with ``prefix``."""
        for name, values in world.samples.items():
            self.samples.setdefault(prefix + name, []).extend(values)
        world.samples.clear()

    def absorb(self, world, prefix: str = "") -> None:
        """Take a finished world's samples, counts and problems."""
        self.take_samples(world, prefix)
        for name, value in world.counts.items():
            self.counts[name] = self.counts.get(name, 0) + value
        self.problems.extend(world.problems)
        self.failures.extend(world.failures)


def chain_metrics(tally: Tally, world) -> None:
    """Per-chain samples: pipeline time, training rate, modelled time."""
    t = world.times
    tally.sample("pipeline_s", t["pipeline_s"])
    tally.sample("train_samples_per_s", t["train_samples"] / t["train_s"])
    tally.losses.append(world.final_loss)
    tally.digests.append(world.store.manifest_digest().hex())
    tally.sample("sim_s", world.sim_s)


def build(inputs, scratch: Path, rep: int, tally: Tally, recorder,
          traced: bool, in_setup: bool):
    """One world; with ``in_setup`` the chain counts as set-up."""
    with _traced(recorder if traced else None):
        started = time.perf_counter()
        world = chain.setup(inputs, scratch / f"world-{rep}", rep)
        if in_setup:
            chain.run_chain(world, recorder if traced else None)
        tally.sample("setup_s", time.perf_counter() - started)
        if not in_setup:
            chain.run_chain(world, recorder if traced else None)
    chain_metrics(tally, world)
    tally.sample("traced_pipeline_s" if traced else "untraced_pipeline_s",
                 world.times["pipeline_s"])
    return world


def repeat_chains(name: str, seed: int, scratch: Path, recorder,
                  tally: Tally, timed_seconds: Optional[float] = None):
    """Run the chain on fresh worlds built from one seed's inputs.

    With ``timed_seconds`` the chains are the timed phase: they repeat
    until that time has passed (at least :data:`MIN_TIMED_CHAINS` times)
    and are all torn down. Without it the chain is set-up: it runs
    :data:`SETUP_REPEATS` times and the last world is returned for the
    timed phase. In a traced run every other repetition stays untraced,
    which measures the tracing overhead."""
    inputs = chain.make_inputs(SIZES[name], seed)
    # The generated inputs are the harness's, not the system's: keep the
    # collector from rescanning them for the rest of the run.
    gc.collect()
    gc.freeze()
    in_setup = timed_seconds is None
    prefix = "chain_" if in_setup else ""
    deadline = time.perf_counter() + (timed_seconds or 0.0)
    rep, last = 0, None
    while (rep < SETUP_REPEATS if in_setup else
           rep < MIN_TIMED_CHAINS or time.perf_counter() < deadline):
        traced = recorder is not None and rep % 2 == 1
        if last is not None:
            last.teardown()
            tally.absorb(last, prefix)
        last = build(inputs, scratch, rep, tally, recorder, traced, in_setup)
        rep += 1
    if in_setup:
        tally.take_samples(last, prefix)
        return inputs, last
    last.teardown()
    tally.absorb(last, prefix)
    return inputs, None


# -- workloads -------------------------------------------------------------------


def train_pipeline(seed: int, seconds: float, scratch: Path,
                   recorder=None) -> Tally:
    tally = Tally()
    repeat_chains("train_pipeline", seed, scratch, recorder, tally,
                  timed_seconds=seconds)
    return tally


def ingest_growth(seed: int, seconds: float, scratch: Path,
                  recorder=None) -> Tally:
    tally = Tally()
    inputs, world = repeat_chains("ingest_growth", seed, scratch,
                                  recorder, tally)
    rate = inputs.size.query_rate
    count = int(round(rate * (WARMUP_S + seconds)))
    requests = loadgen.schedule(rate, count)
    query_items = np.arange(1, count + 1) % inputs.size.heldout
    # Queries run exactly as long as the uploads, so every timed query
    # is served beside growth.
    uploads_done = threading.Event()
    world.commits.append((float("-inf"), len(world.store)))
    with _traced(recorder):
        uploader = threading.Thread(
            target=_grow, name="bench-uploader",
            args=(world, WARMUP_S + seconds, uploads_done))
        uploader.start()
        outcomes = serve.run(world, requests, query_items, [], recorder,
                             stop=uploads_done)
        uploader.join()
    serve.record(world, outcomes, query_items, [], WARMUP_S)
    _check_growth(world)
    world.teardown()
    tally.absorb(world)
    return tally


def _grow(world, seconds: float, done: threading.Event) -> None:
    """Upload growth sessions back to back until ``seconds`` pass; append
    each committed session's fingerprints to the store, pointing at its
    new ledger rows."""
    size = world.inputs.size
    participants = world.inputs.participants
    rng = np.random.default_rng([world.inputs.seed, 2])
    cursor = {p.participant_id: 0 for p in participants}
    deadline = time.perf_counter() + seconds
    sessions = 0
    try:
        while time.perf_counter() < deadline:
            participant = participants[sessions % len(participants)]
            pid = participant.participant_id
            lo = cursor[pid]
            cursor[pid] = lo + SESSION_RECORDS
            # Rows cycle through the contributor's growth pool; each pass
            # shifts them slightly, so no two records are the same.
            n = np.arange(lo, lo + SESSION_RECORDS)
            rows = size.records_per + n % size.growth_per
            x = (participant.dataset.x[rows]
                 + np.float32(1e-3) * (n // size.growth_per)[:, None, None,
                                                               None])
            y = participant.dataset.y[rows]
            indices = [size.records_per + int(i) for i in n]
            batch = chain.seal(participant, x, y, indices)
            bad = set(int(j) for j in rng.choice(
                SESSION_RECORDS, SESSION_HOSTILE, replace=False))
            for k, j in enumerate(sorted(bad)):
                batch[j] = chain.corrupt(batch[j], relabel=k % 2 == 1)
            evict = 1 if sessions % EVICT_EVERY == EVICT_EVERY - 1 else None
            committed, quarantined = chain.upload(
                world, pid, batch, f"grow-{sessions}", evict_after=evict)
            world.count("attempted")
            world.count("growth_sessions")
            if quarantined != len(bad) or committed != len(batch) - len(bad):
                world.problems.append(
                    f"growth session {sessions}: committed {committed}, "
                    f"quarantined {quarantined}; expected "
                    f"{len(batch) - len(bad)} and {len(bad)}")
            good = [j for j in range(len(batch)) if j not in bad]
            world.store.append(
                world.system.fingerprinter.fingerprint(x[good]),
                [int(y[j]) for j in good], [pid] * len(good),
                [instance_digest(x[j]) for j in good],
                source_indices=[indices[j] for j in good])
            world.commits.append((time.perf_counter(), len(world.store)))
            sessions += 1
    except Exception as exc:  # noqa: BLE001 — reported as a failed check
        world.problems.append(f"upload failed: {exc!r}")
        world.count("failed")
    finally:
        done.set()


def _traced(recorder):
    return (trace.instrument(recorder) if recorder is not None
            else contextlib.nullcontext())


def _check_growth(world) -> None:
    """After growth: the quarantine lane holds every refused record, the
    cluster catches up with the whole store, and the ledger, store and
    governance log each still verify (growth changes the digests the
    promotion attested, so it is not re-walked here)."""
    if world.ledger.quarantined_records != world.counts.get("quarantined", 0):
        world.problems.append("ledger quarantine lane holds a different "
                              "count than the receipts reported")
    cluster = world.cluster
    cluster.refresh(max_replicas=len(cluster.replicas))
    behind = [r.name for r in cluster.replicas
              if r.index.covered_store_segments != world.store.segment_count]
    if behind:
        world.problems.append(f"replicas {behind} do not cover the whole "
                              "store after a refresh")
    try:
        world.ledger.verify()
        world.store.verify()
        world.log.verify()
    except Exception as exc:  # noqa: BLE001 — reported as a failed check
        world.problems.append(f"lineage no longer verifies: {exc}")


WORKLOADS: Dict[str, Callable[..., Tally]] = {
    "train_pipeline": train_pipeline,
    "ingest_growth": ingest_growth,
}
