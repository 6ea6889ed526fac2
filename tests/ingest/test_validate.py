"""Validation-pipeline tests: gates, quarantine lanes, audit chain."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.data.datasets import Dataset
from repro.data.encryption import iter_encrypted_records
from repro.ingest import ValidationConfig, ValidationPool
from repro.utils.serialization import array_to_bytes

from tests.ingest.conftest import CLASSES, SHAPE, sealed_record


def _records(contributor):
    return list(iter_encrypted_records(contributor.dataset, contributor.key,
                                       contributor.participant_id))


class TestGates:
    def test_clean_records_accepted_in_order(self, validator, contributors):
        records = _records(contributors[0])
        report = validator.validate("c0", records)
        assert report.accepted == records
        assert report.quarantined == []

    def test_tampered_payload_quarantined(self, validator, contributors):
        records = _records(contributors[0])
        bad = records[2]
        records[2] = dataclasses.replace(
            bad, sealed=bytes([bad.sealed[0] ^ 0xFF]) + bad.sealed[1:]
        )
        report = validator.validate("c0", records)
        assert len(report.accepted) == len(records) - 1
        assert report.quarantined_by_reason == {"tampered": 1}

    def test_relabelled_record_quarantined_not_crashed(self, validator,
                                                       contributors):
        """A flipped cleartext label breaks the AAD tag — quarantine lane,
        not an exception."""
        records = _records(contributors[0])
        records[0] = dataclasses.replace(
            records[0], label=(records[0].label + 1) % CLASSES
        )
        report = validator.validate("c0", records)
        assert report.quarantined_by_reason == {"tampered": 1}

    def test_label_domain_gate(self, server, ledger, contributors, rng):
        """A label outside the agreed domain (but correctly sealed, so the
        tag verifies) is quarantined by the domain gate."""
        gen = rng.child("wide").generator
        wide = Dataset(x=gen.random((4,) + SHAPE).astype(np.float32),
                       y=np.array([0, 1, CLASSES + 3, 1]))
        contributor = contributors[0]
        records = list(iter_encrypted_records(wide, contributor.key, "c0"))
        validator = ValidationPool(
            server.enclave,
            ValidationConfig(num_classes=CLASSES, input_shape=SHAPE),
            ledger=ledger,
        )
        report = validator.validate("c0", records)
        assert report.quarantined_by_reason == {"label-domain": 1}

    def test_shape_gate(self, server, ledger, contributors, rng):
        gen = rng.child("misshapen").generator
        misshapen = Dataset(x=gen.random((3, 2, 2, 3)).astype(np.float32),
                            y=gen.integers(0, CLASSES, size=3))
        records = list(iter_encrypted_records(misshapen,
                                              contributors[0].key, "c0"))
        validator = ValidationPool(
            server.enclave,
            ValidationConfig(num_classes=CLASSES, input_shape=SHAPE),
            ledger=ledger,
        )
        report = validator.validate("c0", records)
        assert report.quarantined_by_reason == {"shape": 3}

    @pytest.mark.parametrize("payload", [
        b"not an array at all", b"", b"RPR1",
        # An agreed-shape header with its tensor cut off.
        array_to_bytes(np.zeros(SHAPE, dtype=np.float32))[:39],
    ])
    def test_authentic_malformed_payload_quarantined(self, validator,
                                                     contributors, payload):
        """A provisioned contributor sealing a non-array is quarantined as
        malformed, audited and counted — never raised."""
        records = _records(contributors[0])
        bad = sealed_record(contributors[0], len(records), payload)
        report = validator.validate("c0", records + [bad])
        assert report.accepted == records
        assert [(q.record, q.reason) for q in report.quarantined] == \
            [(bad, "malformed")]
        verdicts = [e.details["verdict"]
                    for e in validator.audit.events("ingest-validate")]
        assert verdicts == ["ok"] * len(records) + ["malformed"]
        assert validator.telemetry.counter("quarantined_malformed") == 1
        assert validator.verify_audit_chain()

    def test_long_header_reported_like_any_shape(self, server, ledger,
                                                 contributors, rng):
        """A header longer than a float32 HWC one (more dims, a longer
        dtype string) still reaches the gates with its exact shape."""
        gen = rng.child("long-header").generator
        records = [
            sealed_record(contributors[0], 0, array_to_bytes(
                gen.random((1,) + SHAPE).astype(np.float32)), label=1),
            sealed_record(contributors[0], 1, array_to_bytes(
                gen.random(SHAPE).astype(np.complex128)), label=2),
        ]
        verdicts = server.enclave.ecall("ingest_verify_records", "c0",
                                        records, "hmac-ctr")
        assert verdicts == [("ok", (1,) + SHAPE, 1), ("ok", SHAPE, 2)]
        report = ValidationPool(
            server.enclave,
            ValidationConfig(num_classes=CLASSES, input_shape=SHAPE),
            ledger=ledger,
        ).validate("c0", records)
        assert report.accepted == [records[1]]
        assert report.quarantined_by_reason == {"shape": 1}

    def test_empty_input(self, validator):
        report = validator.validate("c0", [])
        assert report.accepted == [] and report.quarantined == []


class TestDeduplication:
    def test_duplicate_within_session(self, validator, contributors):
        records = _records(contributors[0])
        report = validator.validate("c0", records + [records[0]])
        assert report.quarantined_by_reason == {"duplicate": 1}
        assert len(report.accepted) == len(records)

    def test_duplicate_across_contributors_via_ledger(self, validator, ledger,
                                                      contributors):
        """c1 relaying c0's committed ciphertexts is caught by the ledger
        digest set even though the records authenticate under no tampering."""
        records = _records(contributors[0])
        ledger.append(records, "c0")
        report = validator.validate("c0", records)
        assert report.accepted == []
        assert report.quarantined_by_reason == {"duplicate": len(records)}


class TestAudit:
    def test_every_decision_audited_and_chained(self, validator, contributors):
        records = _records(contributors[0])
        bad = records[1]
        records[1] = dataclasses.replace(
            bad, sealed=bytes([bad.sealed[0] ^ 0xFF]) + bad.sealed[1:]
        )
        validator.validate("c0", records)
        events = validator.audit.events("ingest-validate")
        assert len(events) == len(records)
        verdicts = [e.details["verdict"] for e in events]
        assert verdicts.count("tampered") == 1
        assert verdicts.count("ok") == len(records) - 1
        assert validator.verify_audit_chain()

    def test_telemetry_counters(self, validator, contributors):
        records = _records(contributors[0])
        records[0] = dataclasses.replace(
            records[0], label=(records[0].label + 1) % CLASSES
        )
        validator.validate("c0", records)
        assert validator.telemetry.counter("records_accepted") == len(records) - 1
        assert validator.telemetry.counter("records_quarantined") == 1
        assert validator.telemetry.counter("quarantined_tampered") == 1
        assert 0 < validator.telemetry.quarantine_rate < 1


class TestTelemetry:
    def test_authenticate_excludes_ecall_lock_wait(self, validator,
                                                   contributors):
        """While another worker holds the ECALL lock, the waiting batch's
        authenticate observation counts its own ECALL, not the wait."""
        records = _records(contributors[0])[:4]
        hold_s = 0.3
        held, release = threading.Event(), threading.Event()

        def holder():
            with validator._ecall_lock:
                held.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert held.wait(timeout=10)
        timer = threading.Timer(hold_s, release.set)
        timer.start()
        started = time.perf_counter()
        verdicts = validator._verify_batch("c0", records)
        waited = time.perf_counter() - started
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [v[0] for v in verdicts] == ["ok"] * len(records)
        assert waited >= hold_s
        stage = validator.telemetry.stage("authenticate")
        assert stage.count == 1
        assert stage.total < hold_s / 2


class TestConcurrency:
    def test_many_batches_deterministic_order(self, server, ledger,
                                              contributors, rng):
        """4-record ECALL batches across 2 workers must still commit in
        submission order (ledger determinism depends on it)."""
        gen = rng.child("big").generator
        big = Dataset(x=gen.random((40,) + SHAPE).astype(np.float32),
                      y=gen.integers(0, CLASSES, size=40))
        records = list(iter_encrypted_records(big, contributors[0].key, "c0"))
        validator = ValidationPool(
            server.enclave,
            ValidationConfig(num_classes=CLASSES, input_shape=SHAPE,
                             workers=4, batch_records=4),
            ledger=ledger,
        )
        report = validator.validate("c0", records)
        assert report.accepted == records
