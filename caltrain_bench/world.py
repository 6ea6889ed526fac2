"""The chain every workload runs: sealed records → promoted model →
verified answers and attributions, built only from the public API.

:func:`make_inputs` derives everything the program is given from the
seed: contributor datasets, their sealed records (with the hostile ones
marked), and held-out inputs that model users later flag. :func:`setup`
builds a deployment around them and :func:`run_chain` drives it through
ingest, training, fingerprinting, promotion and serving.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.crypto.aead import new_aead
from repro.data.datasets import Dataset, synthetic_cifar
from repro.data.encryption import (EncryptedRecord, iter_encrypted_records,
                                   record_aad)
from repro.federation.participant import TrainingParticipant
from repro.governance import Attributor, GovernanceLog, PromotionGate
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          ValidationConfig, ValidationPool)
from repro.nn.initializers import gaussian_init
from repro.nn.layers.conv import ConvLayer
from repro.nn.layers.pooling import AvgPoolLayer, MaxPoolLayer
from repro.nn.layers.softmax import CostLayer, SoftmaxLayer
from repro.nn.network import Network
from repro.nn.zoo import CIFAR_INPUT_SHAPE
from repro.serving import EngineConfig, LinkageStore, ServingCluster
from repro.utils.rng import RngStream
from repro.utils.serialization import array_to_bytes

from caltrain_bench import checks, serve

CLASSES = 10
BACKEND = "optimized"


@dataclass(frozen=True)
class ChainSize:
    """How big one pass through the chain is."""

    shape: Tuple[int, int, int]   # record tensor shape
    width: float                  # width scale of the 10-layer topology
    contributors: int
    records_per: int              # records per contributor in the chain
    sessions_per: int             # upload sessions = ledger segments each
    chunk: int                    # records per send_chunk
    hostile_per: int              # tampered/relabelled records each
    epochs: int
    store_segment: int            # records per linkage-store segment
    heldout: int                  # held-out inputs model users query
    verify_queries: int           # open-loop queries after promotion
    attributions: int             # attributions interleaved with them
    query_rate: float             # requests/s of that open loop
    growth_per: int = 0           # plaintext rows per contributor kept
                                  # back for ingest growth


@dataclass
class Inputs:
    """Everything generated from the seed before any timing starts."""

    size: ChainSize
    seed: int
    participants: List[TrainingParticipant]
    records: Dict[str, List[EncryptedRecord]]   # sealed chain records,
                                                 # hostile applied
    hostile: Dict[str, set]                      # record indices refused
    heldout_x: np.ndarray


def ten_layer(shape, width):
    """Table I's 10-layer topology for a record shape other than 28x28x3
    (the zoo's factory fixes the CIFAR shape)."""
    w = lambda f: max(4, int(round(f * width)))

    def factory(generator: np.random.Generator) -> Network:
        return Network(shape, [
            ConvLayer(w(128), 3, 1), ConvLayer(w(128), 3, 1),
            MaxPoolLayer(2, 2), ConvLayer(w(64), 3, 1), MaxPoolLayer(2, 2),
            ConvLayer(w(128), 3, 1),
            ConvLayer(CLASSES, 1, 1, activation="linear"), AvgPoolLayer(),
            SoftmaxLayer(), CostLayer(),
        ], initializer=gaussian_init(generator))
    return factory


def make_inputs(size: ChainSize, seed: int) -> Inputs:
    """One population, dealt out to the contributors and the model users.

    Only the chain's records are sealed here; the growth rows stay
    plaintext until :func:`seal` turns them into upload sessions.

    Contributors hold shards of a single shuffled dataset and held-out
    inputs come from the same distribution, so a flagged prediction's
    neighbours spread over every contributor's ledger segments at any
    seed: attribution and training cost do not hinge on which contributor
    a seed happens to make most similar to the queries."""
    rng = RngStream(seed, name="caltrain-bench")
    per = size.records_per + size.growth_per
    population, heldout = synthetic_cifar(
        rng.child("population"), num_train=size.contributors * per,
        num_test=size.heldout, num_classes=CLASSES, shape=size.shape)
    if len(population.y) != size.contributors * per:
        raise ValueError("record counts must be multiples of the "
                         f"{CLASSES} classes")
    participants, records, hostile = [], {}, {}
    for i in range(size.contributors):
        data = Dataset(x=population.x[i * per:(i + 1) * per],
                       y=population.y[i * per:(i + 1) * per],
                       name=f"contributor-{i}")
        participant = TrainingParticipant(f"c{i}", data, rng.child(f"c{i}"))
        chain = Dataset(x=data.x[:size.records_per],
                        y=data.y[:size.records_per], name=data.name)
        sealed = list(iter_encrypted_records(
            chain, participant.key, participant.participant_id,
            bulk_chunk=256))
        pick = rng.child(f"hostile-{i}").generator
        bad = set(int(j) for j in pick.choice(size.records_per,
                                              size.hostile_per,
                                              replace=False))
        for n, j in enumerate(sorted(bad)):
            sealed[j] = corrupt(sealed[j], relabel=n % 2 == 1)
        participants.append(participant)
        records[participant.participant_id] = sealed
        hostile[participant.participant_id] = bad
    return Inputs(size, seed, participants, records, hostile, heldout.x)


def seal(participant: TrainingParticipant, x: np.ndarray, y: np.ndarray,
         indices: List[int]) -> List[EncryptedRecord]:
    """The contributor seals rows ``x`` (labels ``y``) as its records
    ``indices``, each under a fresh nonce of its key."""
    pid = participant.participant_id
    key = participant.key
    nonces = [key.next_nonce() for _ in indices]
    sealed = new_aead(key.material).seal_many([
        (nonce, array_to_bytes(row), record_aad(pid, index, int(label)))
        for nonce, row, label, index in zip(nonces, x, y, indices)])
    return [EncryptedRecord(source_id=pid, index=index, label=int(label),
                            nonce=nonce, sealed=blob)
            for nonce, label, index, blob in zip(nonces, y, indices, sealed)]


def corrupt(record: EncryptedRecord, relabel: bool) -> EncryptedRecord:
    """A man-in-the-middle flips a ciphertext byte, or a contributor
    relabels a record; either way the AEAD tag no longer verifies."""
    if relabel:
        return dataclasses.replace(record, label=(record.label + 1) % CLASSES)
    return dataclasses.replace(
        record, sealed=bytes([record.sealed[0] ^ 0xFF]) + record.sealed[1:])


# -- one deployment ------------------------------------------------------------


@dataclass
class World:
    inputs: Inputs
    root: Path
    rep: int                      # which repetition of the chain this is
    system: CalTrain
    ledger: ContributionLedger
    gateway: IngestGateway
    log: GovernanceLog
    store: Optional[LinkageStore] = None
    gate: Optional[PromotionGate] = None
    record: object = None
    cluster: Optional[ServingCluster] = None
    attributor: Optional[Attributor] = None
    heldout_fp: Optional[np.ndarray] = None
    heldout_labels: Optional[np.ndarray] = None
    final_loss: Optional[float] = None
    sim_s: float = 0.0
    # (time, store rows) after each growth append, for the freshness check.
    commits: List[Tuple[float, int]] = field(default_factory=list)
    # Measurements and check failures gathered along the way.
    times: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def teardown(self) -> None:
        """Stop the cluster, keep its telemetry counters, drop the files."""
        ingest = self.gateway.telemetry
        self.count("rejected_chunks", sum(
            ingest.counter(f"rejected_{why}")
            for why in ("rate", "quota", "oversized_chunk", "backpressure",
                        "unprovisioned", "stale_spool")))
        self.count("tele.paged_bytes",
                   self.system.training_enclave.epc.paged_bytes_total)
        if self.cluster is not None:
            cluster = self.cluster.telemetry
            # Replica engines share the cluster's registry: one replica's
            # telemetry reads the totals.
            engine = self.cluster.replicas[0].engine.telemetry
            for name in ("evictions", "hedges_launched", "hedges_won",
                         "retries", "degraded_answers", "queries_ok"):
                self.count(f"tele.{name}", cluster.counter(name))
            for name in ("cache_hits", "cache_misses", "batches",
                         "batched_queries", "candidates_scanned",
                         "brute_equivalent_rows"):
                self.count(f"tele.{name}", engine.counter(name))
            self.count("tele.compactions", sum(
                r.index.compactions for r in self.cluster.replicas))
            evictions = cluster.counter("evictions")
            if evictions:
                self.problems.append(f"{evictions} replica evictions on a "
                                     "benign workload")
            failures = cluster.counter("refresh_failures")
            if failures:
                self.problems.append(f"{failures} replica refreshes failed "
                                     "on a benign workload")
            self.cluster.stop()
        shutil.rmtree(self.root, ignore_errors=True)


def setup(inputs: Inputs, root: Path, rep: int = 0) -> World:
    """A deployment with every contributor provisioned; nothing ingested."""
    size = inputs.size
    if size.shape == CIFAR_INPUT_SHAPE:
        arch = dict(architecture="cifar10-10layer", width_scale=size.width)
    else:
        arch = dict(network_factory=ten_layer(size.shape, size.width))
    system = CalTrain(CalTrainConfig(
        seed=inputs.seed, epochs=size.epochs, partition=2, augment=False,
        backend=BACKEND, **arch))
    for participant in inputs.participants:
        system.register_participant(participant)
    root.mkdir(parents=True)
    ledger = ContributionLedger.create(root / "ledger")
    validator = ValidationPool(
        system.training_enclave,
        ValidationConfig(num_classes=CLASSES, input_shape=size.shape),
        ledger=ledger)
    gateway = IngestGateway(ledger, validator, spool_dir=root / "spool",
                            config=GatewayConfig(chunk_records=size.chunk))
    log = GovernanceLog.create(root / "governance")
    system.bind_governance(log)
    return World(inputs, root, rep, system, ledger, gateway, log)


def upload(world: World, contributor: str, records: List[EncryptedRecord],
           session_id: str, evict_after: Optional[int] = None) -> Tuple[int, int]:
    """One upload session, optionally evicted after ``evict_after`` chunks
    and resumed; returns the receipt's (committed, quarantined)."""
    chunk = world.inputs.size.chunk
    chunks = [records[i:i + chunk] for i in range(0, len(records), chunk)]
    opened = time.perf_counter()
    session = world.gateway.open_session(contributor, session_id)
    for n, part in enumerate(chunks):
        if n == evict_after:
            world.gateway.evict_session(contributor, session_id)
            session = world.gateway.resume_session(contributor, session_id)
            if session.acked_records != n * chunk:
                world.problems.append(
                    f"resumed {session_id} at {session.acked_records} "
                    f"records, expected {n * chunk}")
        started = time.perf_counter()
        session.send_chunk(part)
        world.sample("chunk_s", time.perf_counter() - started)
    started = time.perf_counter()
    receipt = session.complete()
    finished = time.perf_counter()
    world.sample("commit_s", finished - started)
    world.sample("ingest_records_per_s",
                 (receipt.committed + receipt.quarantined) / (finished - opened))
    world.count("committed", receipt.committed)
    world.count("quarantined", receipt.quarantined)
    return receipt.committed, receipt.quarantined


def ingest_chain(world: World) -> None:
    """Every contributor uploads its chain records in ``sessions_per``
    sessions; quarantine must catch exactly the hostile records."""
    size = world.inputs.size
    per_session = -(-size.records_per // size.sessions_per)
    for s in range(size.sessions_per):
        for participant in world.inputs.participants:
            pid = participant.participant_id
            lo = s * per_session
            hi = min(size.records_per, lo + per_session)
            records = world.inputs.records[pid][lo:hi]
            hostile = sum(1 for j in world.inputs.hostile[pid] if lo <= j < hi)
            committed, quarantined = upload(world, pid, records, f"chain-{s}")
            world.count("attempted")
            if quarantined != hostile or committed != len(records) - hostile:
                world.problems.append(
                    f"{pid} session {s}: committed {committed}, quarantined "
                    f"{quarantined}; expected {len(records) - hostile} and "
                    f"{hostile}")


def run_chain(world: World, recorder=None) -> None:
    """Ingest → train → fingerprint → store → promote → serve, then a
    short open loop of verified queries and attributions."""
    size = world.inputs.size
    system = world.system
    started = time.perf_counter()
    ingest_chain(world)
    staged = system.intake_ledger(world.ledger)
    train_started = time.perf_counter()
    reports = system.train(checkpoint_dir=world.root / "checkpoints")
    world.times["train_s"] = time.perf_counter() - train_started
    world.times["train_samples"] = float(
        system.decryption_summary.accepted * len(reports))
    if system.decryption_summary.accepted != staged:
        world.problems.append("training accepted a different record count "
                              "than the ledger staged")
    world.final_loss = float(reports[-1].mean_loss)
    world.sim_s = float(sum(r.simulated_seconds for r in reports))
    world.store = LinkageStore.from_database(
        world.root / "store", system.fingerprint_stage(),
        segment_records=size.store_segment)
    world.gate = PromotionGate(
        system.training_enclave, world.log, ledger=world.ledger,
        checkpoints=system.checkpoint_manager, store=world.store,
        telemetry=system.governance_telemetry)
    world.record = world.gate.promote(system.run_key,
                                      config_digest=system.config_digest)
    world.cluster = ServingCluster(
        world.store, replicas=2, engine_config=EngineConfig(workers=1),
        promotion=world.record,
        promotion_verifier=world.gate.serving_verifier()).start()
    world.attributor = Attributor(
        world.cluster.replicas[0].engine, world.store, world.ledger,
        world.log, gate=world.gate, promotion=world.record,
        telemetry=system.governance_telemetry)
    labels, _, fingerprints = system.fingerprinter.predict_with_fingerprint(
        world.inputs.heldout_x)
    world.heldout_fp, world.heldout_labels = fingerprints, labels
    first = world.cluster.query(fingerprints[0], int(labels[0]))
    world.times["pipeline_s"] = time.perf_counter() - started
    rows = len(world.store)
    verdict = checks.check_answer(checks.BruteForce(world.store),
                                  fingerprints[0], int(labels[0]),
                                  first.hits, rows, rows)
    if not verdict["ok"]:
        world.problems.append("first answer of the promoted cluster is wrong")
    serve.verification_loop(world, recorder)
    try:
        world.gate.verify_record(world.record)
        world.log.verify()
    except Exception as exc:  # noqa: BLE001 — reported as a failed check
        world.problems.append(f"promotion no longer verifies: {exc}")
