"""Shared fixtures for the ingest-plane tests.

One attested world per test: a training server with its enclave, two
provisioned contributors (and one who never provisioned), a fresh
contribution ledger, validation pool, and gateway over a tmp spool.
"""

import numpy as np
import pytest

from repro.crypto.aead import new_aead
from repro.data.datasets import Dataset
from repro.data.encryption import EncryptedRecord, record_aad
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import provision_key
from repro.federation.server import TrainingServer
from repro.ingest import (ContributionLedger, GatewayConfig, IngestGateway,
                          ValidationConfig, ValidationPool)

SHAPE = (4, 4, 3)
CLASSES = 3


def make_participant(rng, name, n=12):
    gen = rng.child(f"data-{name}").generator
    dataset = Dataset(
        x=gen.random((n,) + SHAPE).astype(np.float32),
        y=gen.integers(0, CLASSES, size=n),
    )
    return TrainingParticipant(name, dataset, rng.child(name))


def sealed_record(contributor, index, plaintext, label=0):
    """An authentic record sealing arbitrary plaintext bytes."""
    nonce = contributor.key.next_nonce()
    source = contributor.participant_id
    sealed = new_aead(contributor.key.material).seal(
        nonce, plaintext, record_aad(source, index, label)
    )
    return EncryptedRecord(source_id=source, index=index, label=label,
                           nonce=nonce, sealed=sealed)


@pytest.fixture
def server(platform, attestation_service, rng):
    server = TrainingServer(platform, attestation_service, rng.child("server"))
    server.build_training_enclave("[net]\ninput = 4,4,3\n[softmax]\n[cost]\n")
    return server


@pytest.fixture
def contributors(server, attestation_service, rng):
    out = []
    for name in ("c0", "c1"):
        participant = make_participant(rng, name)
        provision_key(participant, server.enclave, attestation_service,
                      expected_mrenclave=server.enclave.mrenclave)
        out.append(participant)
    return out


@pytest.fixture
def stranger(rng):
    """A contributor who never ran the provisioning handshake."""
    return make_participant(rng, "stranger")


@pytest.fixture
def ledger(tmp_path):
    return ContributionLedger.create(tmp_path / "ledger")


@pytest.fixture
def validator(server, ledger):
    return ValidationPool(
        server.enclave,
        ValidationConfig(num_classes=CLASSES, input_shape=SHAPE, workers=2,
                         batch_records=4),
        ledger=ledger,
    )


@pytest.fixture
def gateway(ledger, validator, tmp_path):
    return IngestGateway(
        ledger, validator, spool_dir=tmp_path / "spool",
        config=GatewayConfig(chunk_records=4, max_open_sessions=4,
                             max_records_per_contributor=64,
                             max_bytes_per_contributor=1 << 20,
                             rate_capacity=1000.0, rate_refill_per_s=1000.0),
    )
