"""Contribution-ledger tests: lanes, content addressing, sealing."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data.encryption import EncryptedRecord, iter_encrypted_records
from repro.errors import LedgerError
from repro.ingest import (ContributionLedger, pack_records, record_digest,
                          unpack_records)


def _records(contributor, n=None):
    records = list(iter_encrypted_records(contributor.dataset,
                                          contributor.key,
                                          contributor.participant_id))
    return records if n is None else records[:n]


class TestPacking:
    def test_roundtrip(self, contributors):
        records = _records(contributors[0], 5)
        assert unpack_records(pack_records(records)) == records

    def test_canonical(self, contributors):
        records = _records(contributors[0], 5)
        assert pack_records(records) == pack_records(list(records))

    def test_trailing_bytes_rejected(self, contributors):
        blob = pack_records(_records(contributors[0], 2))
        with pytest.raises(LedgerError):
            unpack_records(blob + b"x")


class TestLanes:
    def test_append_and_iterate(self, ledger, contributors):
        records = _records(contributors[0])
        info = ledger.append(records, "c0")
        assert info.records == len(records)
        assert list(ledger.iter_records()) == records
        assert len(ledger) == len(records)
        assert ledger.contributors() == ["c0"]

    def test_quarantine_never_reaches_committed_lane(self, ledger,
                                                     contributors):
        good = _records(contributors[0], 6)
        bad = _records(contributors[1], 3)
        ledger.append(good, "c0")
        ledger.quarantine(bad, "c1", reason="tampered")
        assert list(ledger.iter_records()) == good
        assert list(ledger.iter_records(lane="quarantine")) == bad
        assert ledger.quarantined_records == 3
        assert ledger.quarantined[0].reason == "tampered"

    def test_has_ciphertext_commits_only(self, ledger, contributors):
        good = _records(contributors[0], 3)
        bad = _records(contributors[1], 2)
        ledger.append(good, "c0")
        ledger.quarantine(bad, "c1", reason="duplicate")
        assert ledger.has_ciphertext(record_digest(good[0]))
        assert not ledger.has_ciphertext(record_digest(bad[0]))

    def test_empty_segment_rejected(self, ledger):
        with pytest.raises(LedgerError):
            ledger.append([], "c0")


class TestCommitDeduplicated:
    def test_partitions_fresh_from_committed(self, ledger, contributors):
        records = _records(contributors[0], 6)
        ledger.append(records[:3], "c0")
        segment, duplicates = ledger.commit_deduplicated(records, "c0")
        assert segment is not None and segment.records == 3
        assert duplicates == records[:3]
        assert list(ledger.iter_records()) == records

    def test_catches_duplicates_within_the_batch(self, ledger, contributors):
        records = _records(contributors[0], 3)
        segment, duplicates = ledger.commit_deduplicated(
            records + [records[0]], "c0"
        )
        assert segment.records == 3
        assert duplicates == [records[0]]

    def test_all_duplicates_commits_nothing(self, ledger, contributors):
        records = _records(contributors[0], 3)
        ledger.append(records, "c0")
        segment, duplicates = ledger.commit_deduplicated(records, "c0")
        assert segment is None and duplicates == records
        assert len(ledger) == 3

    def test_racing_commits_admit_exactly_one_copy(self, ledger,
                                                   contributors):
        """Two sessions committing the same ciphertexts concurrently must
        not both pass a check-then-commit window: one wins, the loser
        gets every record back as a duplicate."""
        records = _records(contributors[0])
        with ThreadPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(
                lambda name: ledger.commit_deduplicated(records, name),
                ["c0", "c1"],
            ))
        committed = [seg for seg, _ in outcomes if seg is not None]
        assert len(committed) == 1 and committed[0].records == len(records)
        refused = [dups for _, dups in outcomes if dups]
        assert refused == [records]
        assert len(ledger) == len(records)
        assert ledger.verify()


class TestConcurrency:
    def test_concurrent_appends_keep_ledger_consistent(self, ledger,
                                                       contributors):
        """Parallel session commits must never reuse a segment name or
        leave manifest digests out of sync with disk (the gateway allows
        up to max_open_sessions completions in flight)."""
        batches = [
            [r] for r in _records(contributors[0]) + _records(contributors[1])
        ]
        with ThreadPoolExecutor(max_workers=8) as pool:
            infos = list(pool.map(
                lambda batch: ledger.append(batch, batch[0].source_id),
                batches,
            ))
        assert len({info.name for info in infos}) == len(batches)
        assert len(ledger) == len(batches)
        assert ledger.verify()
        reopened = ContributionLedger.open(ledger.path)
        assert reopened.manifest_digest() == ledger.manifest_digest()


class TestDurability:
    def test_reopen_preserves_state(self, ledger, contributors, tmp_path):
        records = _records(contributors[0])
        ledger.append(records, "c0")
        digest = ledger.manifest_digest()
        reopened = ContributionLedger.open(tmp_path / "ledger")
        assert list(reopened.iter_records()) == records
        assert reopened.manifest_digest() == digest
        assert reopened.has_ciphertext(record_digest(records[0]))

    def test_create_over_existing_rejected(self, ledger, tmp_path):
        with pytest.raises(LedgerError):
            ContributionLedger.create(tmp_path / "ledger")

    def test_tampered_segment_fails_closed(self, ledger, contributors,
                                           tmp_path):
        ledger.append(_records(contributors[0]), "c0")
        target = next((tmp_path / "ledger").glob("segment-*.bin"))
        blob = bytearray(target.read_bytes())
        blob[10] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(LedgerError):
            ContributionLedger.open(tmp_path / "ledger")

    def test_missing_segment_fails_closed(self, ledger, contributors,
                                          tmp_path):
        ledger.append(_records(contributors[0]), "c0")
        next((tmp_path / "ledger").glob("segment-*.bin")).unlink()
        with pytest.raises(LedgerError):
            ContributionLedger.open(tmp_path / "ledger")


class TestManifestDigest:
    def test_commits_to_both_lanes(self, ledger, contributors):
        before = ledger.manifest_digest()
        ledger.append(_records(contributors[0], 4), "c0")
        mid = ledger.manifest_digest()
        assert mid != before
        ledger.quarantine(_records(contributors[1], 2), "c1", "tampered")
        assert ledger.manifest_digest() != mid

    def test_seal_and_verify(self, ledger, contributors, server):
        ledger.append(_records(contributors[0]), "c0")
        sealed = ledger.seal_manifest(server.enclave)
        assert ledger.verify_sealed_manifest(server.enclave, sealed)
        ledger.append(_records(contributors[1]), "c1")
        assert not ledger.verify_sealed_manifest(server.enclave, sealed)

    def test_status(self, ledger, contributors):
        ledger.append(_records(contributors[0], 4), "c0")
        status = ledger.status()
        assert status["committed_records"] == 4
        assert status["quarantine_records"] == 0
        assert status["contributors"] == ["c0"]


def _reference_locate(ledger, source, index):
    """A front-to-back scan of both lanes: the locator's specification."""
    lanes = (("committed", ledger.segments), ("quarantine", ledger.quarantined))
    for lane, infos in lanes:
        for info in infos:
            blob = (ledger.path / f"{info.name}.bin").read_bytes()
            for record in unpack_records(blob):
                if (record.source_id, record.index) == (source, index):
                    return {
                        "lane": lane, "segment": info.name,
                        "segment_digest": info.digest,
                        "contributor": info.contributor,
                        "reason": info.reason,
                        "record_digest": record_digest(record).hex(),
                        "label": record.label,
                    }
    return None


def _record_span(ledger, segment, source, index):
    """Byte span of one packed record inside a segment's ``.bin``."""
    records = unpack_records((ledger.path / f"{segment}.bin").read_bytes())
    position = next(i for i, r in enumerate(records)
                    if (r.source_id, r.index) == (source, index))
    offset = len(pack_records(records[:position]))
    return offset, len(pack_records(records[position:position + 1])) - 4


class TestRecordLocator:
    @pytest.fixture
    def lanes(self, ledger, contributors):
        """Three committed segments and a quarantine lane holding a
        replayed duplicate of a committed record."""
        a, b = _records(contributors[0]), _records(contributors[1])
        ledger.append(a[:4], "c0")
        ledger.append(a[4:8], "c0")
        ledger.append(b[:6], "c1")
        ledger.quarantine(b[6:9], "c1", reason="tampered")
        segment, replayed = ledger.commit_deduplicated(a[:2] + a[8:10], "c0")
        assert segment is not None and replayed == a[:2]
        ledger.quarantine(replayed, "c0", reason="duplicate")
        return a, b

    @staticmethod
    def _keys(ledger):
        return sorted({(r.source_id, r.index)
                       for lane in ("committed", "quarantine")
                       for r in ledger.iter_records(lane=lane)})

    def _assert_matches_scan(self, ledger):
        keys = self._keys(ledger)
        assert keys
        for source, index in keys:
            assert ledger.locate_record(source, index) == \
                _reference_locate(ledger, source, index)

    def test_fresh_reopened_and_after_appends(self, ledger, lanes, tmp_path):
        a, b = lanes
        self._assert_matches_scan(ledger)
        # The replayed record sits in both lanes; the committed one wins.
        assert ledger.locate_record("c0", a[0].index)["lane"] == "committed"
        assert ledger.locate_record("c1", b[6].index)["lane"] == "quarantine"

        self._assert_matches_scan(
            ContributionLedger.open(tmp_path / "ledger"))

        # Appends after the locator exists: a later copy of a committed
        # key never shadows the first, and new keys resolve at once.
        ledger.append([a[4]] + a[10:], "c0")
        ledger.quarantine(b[9:] + [b[0]], "c1", reason="relabelled")
        ledger.append(b[9:], "c1")
        self._assert_matches_scan(ledger)
        assert ledger.locate_record("c0", a[4].index)["segment"] == \
            "segment-000001"
        assert ledger.locate_record("c1", b[9].index)["lane"] == "committed"

    def test_missing_key_raises(self, ledger, lanes):
        with pytest.raises(LedgerError, match="no ledger record"):
            ledger.locate_record("c0", 10_000)
        with pytest.raises(LedgerError, match="no ledger record"):
            ledger.locate_record("nobody", 0)

    def test_every_flipped_byte_of_a_record_raises(self, ledger, lanes):
        a, _ = lanes
        found = ledger.locate_record("c0", a[5].index)
        path = ledger.path / f"{found['segment']}.bin"
        offset, length = _record_span(ledger, found["segment"], "c0",
                                      a[5].index)
        pristine = path.read_bytes()
        for position in range(offset, offset + length):
            for mask in (0x01, 0x20):
                blob = bytearray(pristine)
                blob[position] ^= mask
                path.write_bytes(bytes(blob))
                with pytest.raises(LedgerError):
                    ledger.locate_record("c0", a[5].index)
        path.write_bytes(pristine)
        assert ledger.locate_record("c0", a[5].index) == found

    def test_truncated_segment_raises(self, ledger, lanes):
        a, _ = lanes
        found = ledger.locate_record("c0", a[7].index)
        path = ledger.path / f"{found['segment']}.bin"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(LedgerError):
            ledger.locate_record("c0", a[7].index)

    def test_lookups_racing_appends(self, ledger):
        # Two writers commit segments while four readers resolve every key
        # committed so far: a key whose append has returned must resolve.
        def segment(writer, n):
            return [EncryptedRecord(source_id=f"w{writer}", index=n * 4 + i,
                                    label=i, nonce=bytes([writer, n, i]) * 4,
                                    sealed=bytes([writer, n, i]) * 16)
                    for i in range(4)]

        committed, errors = [], []
        done = threading.Event()

        def write(writer):
            try:
                for n in range(30):
                    records = segment(writer, n)
                    ledger.append(records, f"w{writer}")
                    committed.extend((r.source_id, r.index) for r in records)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        def read():
            try:
                while not done.is_set():
                    for source, index in list(committed):
                        found = ledger.locate_record(source, index)
                        assert found["lane"] == "committed"
                        assert found["contributor"] == source
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        writers = [threading.Thread(target=write, args=(w,)) for w in (0, 1)]
        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + readers)
        assert errors == []
        assert len(committed) == 2 * 30 * 4
        for source, index in committed:
            assert ledger.locate_record(source, index) == \
                _reference_locate(ledger, source, index)
