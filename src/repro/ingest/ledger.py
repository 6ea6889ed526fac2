"""The append-only, content-addressed contribution ledger.

Validated encrypted records are the system of record for training: a
segment is written once — at upload-session commit — and never modified.
The format mirrors :class:`repro.serving.store.LinkageStore`:

* **append-only segments** — a ``.bin`` file of packed records (each
  record's source, index, label and nonce ahead of its sealed payload;
  see :func:`pack_records`) plus a canonical-JSON metadata sidecar
  carrying the contributor, the record count, per-record content digests
  and the quarantine reason;
* **content addressing** — each segment is identified by a SHA-256 digest
  over its payload bytes and metadata; the manifest lists committed
  segments and quarantined segments in separate lanes, and the whole
  ledger state is committed by :meth:`manifest_digest`;
* **sealing boundary** — the training enclave can seal the manifest
  digest to its identity (:meth:`seal_manifest`), so a verifier can later
  prove training consumed exactly the records the validation pipeline
  admitted (:meth:`verify_sealed_manifest`).

Quarantined records (tampered, relabelled, malformed, duplicated) live in
their own lane: they are preserved as forensic evidence with the reason
they were refused, but :meth:`iter_records` — the path training reads —
never yields them.

Attribution resolves linkage hits through :meth:`locate_record`, backed
by a record locator: per lane, ``(source, index)`` → (segment, byte
offset, byte length, sidecar digest). It is built by one pass over the
segments on the first lookup and extended by every later append from
the records in hand. A lookup reads only that record's bytes and checks
them against the key and the sidecar digest before answering.

Integrity checks are fail-closed: :meth:`verify` raises
:class:`~repro.errors.LedgerError` on the first digest mismatch, and so
does a located record that fails its checks.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Set, Tuple)

from repro.data.encryption import EncryptedRecord
from repro.errors import LedgerError, SealingError
from repro.utils.fileio import atomic_write_text
from repro.utils.serialization import canonical_digest, canonical_json

__all__ = [
    "LEDGER_FORMAT",
    "LedgerSegmentInfo",
    "ContributionLedger",
    "pack_records",
    "unpack_records",
    "record_digest",
]

_MANIFEST = "manifest.json"
LEDGER_FORMAT = 1


def record_digest(record: EncryptedRecord) -> bytes:
    """Content address of one encrypted record (dedup + audit identity).

    Hashed once per record object (:attr:`EncryptedRecord.digest`); a
    record decoded from disk is a new object and hashes its own bytes.
    """
    return record.digest


def _record_parts(record: EncryptedRecord) -> Tuple[bytes, ...]:
    """One record's packed bytes: ``meta-len | meta-json | sealed-len | sealed``."""
    meta = canonical_json({
        "source": record.source_id, "index": record.index,
        "label": record.label, "nonce": record.nonce.hex(),
    })
    return (struct.pack("<I", len(meta)), meta,
            struct.pack("<Q", len(record.sealed)), record.sealed)


def _pack(records: Sequence[EncryptedRecord],
          ) -> Tuple[bytes, List[Tuple[int, int]]]:
    """:func:`pack_records` plus each record's ``(offset, length)``."""
    out = [struct.pack("<I", len(records))]
    spans: List[Tuple[int, int]] = []
    offset = 4
    for record in records:
        parts = _record_parts(record)
        length = sum(map(len, parts))
        spans.append((offset, length))
        offset += length
        out.extend(parts)
    return b"".join(out), spans


def pack_records(records: Sequence[EncryptedRecord]) -> bytes:
    """Serialize records to one canonical blob (chunk and segment payloads).

    Layout: ``count | (meta-len | meta-json | sealed-len | sealed)...`` —
    everything length-prefixed, so equal record sequences always produce
    equal bytes.
    """
    return _pack(records)[0]


def _unpack_at(blob: bytes, offset: int) -> Tuple[EncryptedRecord, int]:
    """Decode the packed record at ``offset``; returns it and its end."""
    (meta_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    meta = json.loads(blob[offset : offset + meta_len].decode("utf-8"))
    offset += meta_len
    (sealed_len,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    sealed = blob[offset : offset + sealed_len]
    offset += sealed_len
    return EncryptedRecord(
        source_id=meta["source"], index=meta["index"],
        label=meta["label"], nonce=bytes.fromhex(meta["nonce"]),
        sealed=sealed,
    ), offset


def _unpack_spans(blob: bytes,
                  ) -> Tuple[List[EncryptedRecord], List[Tuple[int, int]]]:
    """Inverse of :func:`_pack`."""
    (count,) = struct.unpack_from("<I", blob, 0)
    offset = 4
    records: List[EncryptedRecord] = []
    spans: List[Tuple[int, int]] = []
    for _ in range(count):
        record, end = _unpack_at(blob, offset)
        records.append(record)
        spans.append((offset, end - offset))
        offset = end
    if offset != len(blob):
        raise LedgerError("trailing bytes after the last packed record")
    return records, spans


def unpack_records(blob: bytes) -> List[EncryptedRecord]:
    """Inverse of :func:`pack_records`."""
    return _unpack_spans(blob)[0]


@dataclass(frozen=True)
class LedgerSegmentInfo:
    """One manifest entry: an immutable, content-addressed segment."""

    name: str
    records: int
    contributor: str
    digest: str  # hex SHA-256 over (payload bytes, metadata JSON)
    lane: str = "committed"  # "committed" | "quarantine"
    reason: str = ""         # quarantine lane only


class _Slot(NamedTuple):
    """Where the record locator finds one record."""

    segment: int  # the segment's position in its lane
    offset: int   # byte span of the packed record in the segment's .bin
    length: int
    digest: str   # the record digest the segment's sidecar lists for it


#: Lanes in lookup precedence, each with its manifest list.
_LANES = (("committed", "segments"), ("quarantine", "quarantine"))


class ContributionLedger:
    """Append-only segment store for validated encrypted contributions."""

    def __init__(self, path: Path, manifest: dict) -> None:
        self.path = path
        self._manifest = manifest
        # Writers mutate the manifest lists, the version counter, the
        # digest set, and manifest.json with I/O in between; sessions may
        # commit concurrently, so every write (and every read of that
        # state) holds this lock. Reentrant because append/quarantine
        # nest inside commit_deduplicated.
        self._lock = threading.RLock()
        # (manifest version, digest) memo so the promotion gate and the
        # governance log can read the ledger identity as a cheap accessor
        # instead of re-hashing the manifest on every event.
        self._digest_memo: Optional[Tuple[int, bytes]] = None
        self._digests: Set[str] = set()
        # lane -> (source, index) -> _Slot; built by the first
        # locate_record, then extended by every append.
        self._locator: Optional[Dict[str, Dict[Tuple[str, int], _Slot]]] = None
        for entry in manifest["segments"]:
            for digest in self._segment_record_digests(entry["name"]):
                self._digests.add(digest)

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(cls, path: os.PathLike) -> "ContributionLedger":
        """Initialise an empty ledger at ``path`` (created if missing)."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        if (root / _MANIFEST).exists():
            raise LedgerError(f"a contribution ledger already exists at {root}")
        manifest = {"format": LEDGER_FORMAT, "version": 0,
                    "segments": [], "quarantine": []}
        ledger = cls(root, manifest)
        ledger._write_manifest()
        return ledger

    @classmethod
    def open(cls, path: os.PathLike, verify: bool = True) -> "ContributionLedger":
        """Load a ledger; ``verify=True`` recomputes every digest first."""
        root = Path(path)
        manifest_path = root / _MANIFEST
        if not manifest_path.exists():
            raise LedgerError(f"no contribution ledger at {root}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != LEDGER_FORMAT:
            raise LedgerError(
                f"unsupported ledger format {manifest.get('format')!r}"
            )
        ledger = cls(root, manifest)
        if verify:
            ledger.verify()
        return ledger

    def _write_manifest(self) -> None:
        payload = json.dumps(self._manifest, indent=2, sort_keys=True)
        atomic_write_text(self.path / _MANIFEST, payload)

    # -- writes ------------------------------------------------------------------

    def _append_segment(self, lane: str, records: Sequence[EncryptedRecord],
                        contributor: str, reason: str = "") -> LedgerSegmentInfo:
        if not records:
            raise LedgerError("a segment needs at least one record")
        with self._lock:
            entries = self._manifest["segments" if lane == "committed"
                                     else "quarantine"]
            prefix = "segment" if lane == "committed" else "quarantine"
            name = f"{prefix}-{len(entries):06d}"
            payload, spans = _pack(records)
            meta = {
                "contributor": contributor,
                "records": len(records),
                "digests": [record_digest(r).hex() for r in records],
                "reason": reason,
            }
            meta_bytes = canonical_json(meta)
            (self.path / f"{name}.bin").write_bytes(payload)
            (self.path / f"{name}.meta.json").write_bytes(meta_bytes)
            info = LedgerSegmentInfo(
                name=name, records=len(records), contributor=contributor,
                digest=canonical_digest(payload, meta_bytes).hex(),
                lane=lane, reason=reason,
            )
            entries.append({
                "name": info.name, "records": info.records,
                "contributor": info.contributor, "digest": info.digest,
                "reason": reason,
            })
            self._manifest["version"] += 1
            self._write_manifest()
            if lane == "committed":
                for digest in meta["digests"]:
                    self._digests.add(digest)
            if self._locator is not None:
                self._index_segment(self._locator[lane], len(entries) - 1,
                                    records, spans, meta["digests"])
            return info

    def append(self, records: Sequence[EncryptedRecord],
               contributor: str) -> LedgerSegmentInfo:
        """Commit one validated segment; returns its manifest entry."""
        return self._append_segment("committed", records, contributor)

    def quarantine(self, records: Sequence[EncryptedRecord], contributor: str,
                   reason: str) -> LedgerSegmentInfo:
        """Preserve refused records in the quarantine lane with the reason."""
        return self._append_segment("quarantine", records, contributor,
                                    reason=reason)

    def commit_deduplicated(
        self, records: Sequence[EncryptedRecord], contributor: str,
    ) -> Tuple[Optional[LedgerSegmentInfo], List[EncryptedRecord]]:
        """Atomically dedup-check and commit one session's records.

        The duplicate gate and the append happen under one lock, so two
        sessions racing to commit the same sealed ciphertext cannot both
        pass a check-then-commit window: exactly one wins and the loser's
        copies come back in the duplicates list for the caller to
        quarantine. Returns ``(segment_or_None, duplicates)``.
        """
        with self._lock:
            fresh: List[EncryptedRecord] = []
            duplicates: List[EncryptedRecord] = []
            batch: Set[str] = set()
            for record in records:
                digest = record_digest(record).hex()
                if digest in self._digests or digest in batch:
                    duplicates.append(record)
                else:
                    batch.add(digest)
                    fresh.append(record)
            segment = (self._append_segment("committed", fresh, contributor)
                       if fresh else None)
            return segment, duplicates

    # -- reads -------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return sum(entry["records"]
                       for entry in self._manifest["segments"])

    @property
    def version(self) -> int:
        with self._lock:
            return self._manifest["version"]

    @property
    def segments(self) -> List[LedgerSegmentInfo]:
        with self._lock:
            return [
                LedgerSegmentInfo(name=e["name"], records=e["records"],
                                  contributor=e["contributor"],
                                  digest=e["digest"])
                for e in self._manifest["segments"]
            ]

    @property
    def quarantined(self) -> List[LedgerSegmentInfo]:
        with self._lock:
            return [
                LedgerSegmentInfo(name=e["name"], records=e["records"],
                                  contributor=e["contributor"],
                                  digest=e["digest"],
                                  lane="quarantine", reason=e["reason"])
                for e in self._manifest["quarantine"]
            ]

    @property
    def quarantined_records(self) -> int:
        with self._lock:
            return sum(e["records"] for e in self._manifest["quarantine"])

    def contributors(self) -> List[str]:
        with self._lock:
            return sorted({e["contributor"]
                           for e in self._manifest["segments"]})

    def _segment_record_digests(self, name: str) -> List[str]:
        meta_path = self.path / f"{name}.meta.json"
        if not meta_path.exists():
            raise LedgerError(f"segment {name} metadata is missing on disk")
        return json.loads(meta_path.read_text())["digests"]

    def has_ciphertext(self, digest: bytes) -> bool:
        """Has a record with this content digest already been committed?

        The validation pipeline uses this as an early, advisory check;
        the authoritative, race-free gate is
        :meth:`commit_deduplicated`, which re-checks under the ledger
        lock at commit time.
        """
        with self._lock:
            return digest.hex() in self._digests

    def iter_records(self, lane: str = "committed") -> Iterator[EncryptedRecord]:
        """Yield records in commit order (training's read path).

        ``lane="quarantine"`` iterates the forensic lane instead; the
        default never yields a quarantined record.
        """
        with self._lock:
            entries = list(self._manifest["segments"] if lane == "committed"
                           else self._manifest["quarantine"])
        for entry in entries:
            blob = (self.path / f"{entry['name']}.bin").read_bytes()
            for record in unpack_records(blob):
                yield record

    # -- the record locator ------------------------------------------------------

    @staticmethod
    def _index_segment(table: Dict[Tuple[str, int], _Slot], segment: int,
                       records: Sequence[EncryptedRecord],
                       spans: Sequence[Tuple[int, int]],
                       digests: Sequence[str]) -> None:
        if len(digests) != len(records):
            raise LedgerError(
                f"segment sidecar lists {len(digests)} digests for "
                f"{len(records)} records"
            )
        for record, (offset, length), digest in zip(records, spans, digests):
            # The first occurrence in a lane wins, as in a front-to-back
            # scan of the lane.
            table.setdefault((record.source_id, record.index),
                             _Slot(segment, offset, length, digest))

    def _build_locator(self) -> Dict[str, Dict[Tuple[str, int], _Slot]]:
        """Index every segment on disk; the caller holds the lock."""
        locator: Dict[str, Dict[Tuple[str, int], _Slot]] = {}
        for lane, key in _LANES:
            table = locator[lane] = {}
            for position, entry in enumerate(self._manifest[key]):
                name = entry["name"]
                try:
                    blob = (self.path / f"{name}.bin").read_bytes()
                    records, spans = _unpack_spans(blob)
                    digests = self._segment_record_digests(name)
                except (OSError, ValueError, KeyError, TypeError,
                        struct.error) as exc:
                    raise LedgerError(
                        f"segment {name} is unreadable: {exc}"
                    ) from exc
                self._index_segment(table, position, records, spans, digests)
        return locator

    def _read_slot(self, name: str, slot: _Slot) -> EncryptedRecord:
        """Read and decode one located record; fail-closed."""
        try:
            fd = os.open(self.path / f"{name}.bin", os.O_RDONLY)
            try:
                data = os.pread(fd, slot.length, slot.offset)
            finally:
                os.close(fd)
            record, _ = _unpack_at(data, 0)
        except (OSError, ValueError, KeyError, TypeError,
                struct.error) as exc:
            raise LedgerError(
                f"segment {name}: the record at byte {slot.offset} is "
                f"unreadable ({exc})"
            ) from exc
        # Canonical bytes rule out a short read, trailing bytes, and
        # edits that decode to the same fields.
        if b"".join(_record_parts(record)) != data:
            raise LedgerError(
                f"segment {name}: the record at byte {slot.offset} is not "
                "its canonical encoding (tampered or corrupted)"
            )
        return record

    def locate_record(self, source_id: str, index: int) -> Dict[str, object]:
        """Resolve one ``(contributor, record index)`` to ledger evidence.

        Attribution walks linkage hits back to the ledger through this:
        the result names the lane, segment, segment digest, quarantine
        reason, and the record's own content digest. The committed lane
        answers before the quarantine lane, an earlier segment before a
        later one. Only the located record's bytes are read, and they
        must decode to this key with the digest the segment's sidecar
        lists for them. Raises :class:`~repro.errors.LedgerError` when no
        lane holds the record — a linkage hit with no ledger backing
        means the linkage store and ledger have diverged — or when the
        located bytes fail those checks.
        """
        with self._lock:
            if self._locator is None:
                self._locator = self._build_locator()
            for lane, key in _LANES:
                slot = self._locator[lane].get((source_id, index))
                if slot is not None:
                    entry = self._manifest[key][slot.segment]
                    break
            else:
                raise LedgerError(
                    f"no ledger record for source {source_id!r} "
                    f"index {index}"
                )
        record = self._read_slot(entry["name"], slot)
        if (record.source_id, record.index) != (source_id, index):
            raise LedgerError(
                f"segment {entry['name']}: the record at byte {slot.offset} "
                f"is ({record.source_id!r}, {record.index}), not "
                f"({source_id!r}, {index})"
            )
        digest = record_digest(record).hex()
        if digest != slot.digest:
            raise LedgerError(
                f"segment {entry['name']}: record ({source_id!r}, {index}) "
                "failed its digest check (tampered or corrupted)"
            )
        return {
            "lane": lane,
            "segment": entry["name"],
            "segment_digest": entry["digest"],
            "contributor": entry["contributor"],
            "reason": entry.get("reason", ""),
            "record_digest": digest,
            "label": record.label,
        }

    # -- integrity and the sealing boundary --------------------------------------

    def verify(self) -> bool:
        """Recompute every segment digest from disk bytes; fail-closed."""
        with self._lock:
            entries = (self._manifest["segments"]
                       + self._manifest["quarantine"])
        for entry in entries:
            payload_path = self.path / f"{entry['name']}.bin"
            meta_path = self.path / f"{entry['name']}.meta.json"
            if not payload_path.exists() or not meta_path.exists():
                raise LedgerError(f"segment {entry['name']} is missing on disk")
            actual = canonical_digest(payload_path.read_bytes(),
                                      meta_path.read_bytes()).hex()
            if actual != entry["digest"]:
                raise LedgerError(
                    f"segment {entry['name']} failed its digest check "
                    f"(tampered or corrupted)"
                )
        return True

    def manifest_digest(self) -> bytes:
        """A content address for the entire ledger state.

        Commits to the ordered committed-lane digests and the quarantine
        lane — two ledgers with the same manifest digest hold
        byte-identical contributions *and* refused the same records.
        Memoised per manifest version, so repeated reads (every
        governance event records it) cost a dict lookup, not a hash.
        """
        with self._lock:
            version = self._manifest["version"]
            if self._digest_memo is None or self._digest_memo[0] != version:
                digest = canonical_digest({
                    "format": self._manifest["format"],
                    "segments": [e["digest"]
                                 for e in self._manifest["segments"]],
                    "quarantine": [e["digest"]
                                   for e in self._manifest["quarantine"]],
                })
                self._digest_memo = (version, digest)
            return self._digest_memo[1]

    def seal_manifest(self, enclave):
        """Seal the manifest digest to ``enclave``'s identity."""
        from repro.enclave.sealing import seal

        return seal(enclave, self.manifest_digest())

    def verify_sealed_manifest(self, enclave, blob) -> bool:
        """Check the current ledger state against a sealed manifest digest."""
        from repro.enclave.sealing import unseal

        try:
            return unseal(enclave, blob) == self.manifest_digest()
        except SealingError:
            return False

    # -- reporting ---------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """A plain-dict summary for the CLI and telemetry surfaces."""
        with self._lock:
            return {
                "format": LEDGER_FORMAT,
                "version": self.version,
                "committed_segments": len(self._manifest["segments"]),
                "committed_records": len(self),
                "quarantine_segments": len(self._manifest["quarantine"]),
                "quarantine_records": self.quarantined_records,
                "contributors": self.contributors(),
                "manifest_digest": self.manifest_digest().hex(),
            }
