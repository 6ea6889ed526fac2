"""GovernanceLog: the append protocol, tamper detection, crash windows.

The durable timeline must refuse everything except the two benign crash
states of its own append protocol: a torn unacknowledged final line, and
a fully-written final line the crash kept from being acknowledged.
"""

import json
import sys
import threading

import pytest

from repro.errors import GovernanceLogError
from repro.governance import GovernanceLog


def _fill(log, count=5):
    for i in range(count):
        log.append("train-start", run_key=f"r{i}")
    return log


def _events_path(root):
    return root / "gov" / "events.jsonl"


def _head_path(root):
    return root / "gov" / "head.json"


@pytest.fixture
def filled(tmp_path):
    log = _fill(GovernanceLog.create(tmp_path / "gov"))
    log.close()
    return tmp_path


class TestRoundTrip:
    def test_append_verify_reopen(self, filled):
        log = GovernanceLog.open(filled / "gov")
        assert len(log) == 5
        assert log.verify()
        assert [e["details"]["run_key"] for e in log.events()] == [
            f"r{i}" for i in range(5)
        ]

    def test_head_advances_per_append(self, tmp_path):
        log = GovernanceLog.create(tmp_path / "gov")
        heads = {log.head}
        for i in range(4):
            log.append("checkpoint", seq_no=i)
            heads.add(log.head)
        assert len(heads) == 5  # genesis + one per append

    def test_events_filter_and_find_run(self, tmp_path):
        log = GovernanceLog.create(tmp_path / "gov")
        log.append("train-start", run_key="a")
        log.append("train-complete", run_key="a")
        log.append("train-complete", run_key="b")
        assert len(log.events("train-complete")) == 2
        assert log.find_run("a")["details"]["run_key"] == "a"
        assert log.find_run("b")["seq"] == 2
        assert log.find_run("missing") is None
        assert log.find_run("a", kind="promotion") is None

    def test_create_refuses_existing(self, filled):
        with pytest.raises(GovernanceLogError, match="already exists"):
            GovernanceLog.create(filled / "gov")

    def test_open_refuses_missing(self, tmp_path):
        with pytest.raises(GovernanceLogError, match="no governance log"):
            GovernanceLog.open(tmp_path / "nope")


class TestConcurrentAppends:
    def test_threads_keep_one_contiguous_chain(self, tmp_path):
        log = GovernanceLog.create(tmp_path / "gov")
        threads_n, per_thread = 8, 25
        start = threading.Barrier(threads_n)
        errors = []

        def writer(worker):
            start.wait()
            try:
                for i in range(per_thread):
                    log.append("attribution", worker=worker, i=i)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        total = threads_n * per_thread
        assert [e["seq"] for e in log.events()] == list(range(total))
        assert log.verify()
        log.close()
        reopened = GovernanceLog.open(tmp_path / "gov")
        assert [e["seq"] for e in reopened.events()] == list(range(total))
        assert reopened.verify()
        assert sorted((e["details"]["worker"], e["details"]["i"])
                      for e in reopened.events()) == [
            (w, i) for w in range(threads_n) for i in range(per_thread)]
        reopened.close()


class TestTamperDetection:
    def test_truncation_detected_despite_valid_chain(self, filled):
        # Drop the last line: the remaining prefix is a perfectly valid
        # chain — only the head sidecar's length commitment catches it.
        lines = _events_path(filled).read_bytes().splitlines(keepends=True)
        _events_path(filled).write_bytes(b"".join(lines[:-1]))
        with pytest.raises(GovernanceLogError, match="truncated"):
            GovernanceLog.open(filled / "gov")

    def test_bit_flip_mid_file_detected(self, filled):
        blob = bytearray(_events_path(filled).read_bytes())
        blob[len(blob) // 2] ^= 0x01
        _events_path(filled).write_bytes(bytes(blob))
        with pytest.raises(GovernanceLogError):
            GovernanceLog.open(filled / "gov")

    def test_rewritten_entry_breaks_the_chain(self, filled):
        # Valid JSON, tampered content: seq 1's details are rewritten but
        # its chain hash (and every later one) no longer matches.
        lines = _events_path(filled).read_text().splitlines()
        entry = json.loads(lines[1])
        entry["details"]["run_key"] = "forged"
        lines[1] = json.dumps(entry, sort_keys=True,
                              separators=(",", ":"))
        _events_path(filled).write_text("".join(l + "\n" for l in lines))
        with pytest.raises(GovernanceLogError, match="chain verification"):
            GovernanceLog.open(filled / "gov")

    def test_spliced_entries_detected(self, filled):
        lines = _events_path(filled).read_bytes().splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        _events_path(filled).write_bytes(b"".join(lines))
        with pytest.raises(GovernanceLogError, match="chain verification"):
            GovernanceLog.open(filled / "gov")

    def test_head_rollback_detected(self, filled):
        # An attacker truncates AND rolls the head back consistently; the
        # head still names a chain hash the shortened log agrees with,
        # but the seq mismatch against the entries is outside the
        # single-append crash window.
        head = json.loads(_head_path(filled).read_text())
        head["seq"] -= 2
        _head_path(filled).write_text(json.dumps(head))
        with pytest.raises(GovernanceLogError, match="crash window"):
            GovernanceLog.open(filled / "gov")

    def test_head_hash_mismatch_detected(self, filled):
        head = json.loads(_head_path(filled).read_text())
        head["chain"] = "00" * 32
        _head_path(filled).write_text(json.dumps(head))
        with pytest.raises(GovernanceLogError, match="disagrees"):
            GovernanceLog.open(filled / "gov")

    def test_missing_head_refused(self, filled):
        _head_path(filled).unlink()
        with pytest.raises(GovernanceLogError, match="head sidecar"):
            GovernanceLog.open(filled / "gov")

    def test_live_verify_sees_head_tamper(self, tmp_path):
        log = _fill(GovernanceLog.create(tmp_path / "gov"))
        _head_path(tmp_path).write_text(json.dumps({"seq": 0,
                                                    "chain": "00" * 32}))
        with pytest.raises(GovernanceLogError):
            log.verify()


class TestCrashWindows:
    def test_torn_unacknowledged_tail_dropped(self, filled):
        # Crash mid-append: a torn final line the head never acknowledged.
        with open(_events_path(filled), "ab") as handle:
            handle.write(b'{"seq": 5, "kind": "trai')
        log = GovernanceLog.open(filled / "gov")
        assert len(log) == 5
        assert log.verify()
        # The torn bytes are gone; the next open is clean.
        log.close()
        assert len(GovernanceLog.open(filled / "gov")) == 5

    def test_unacknowledged_full_entry_adopted(self, tmp_path):
        # Crash between the fsynced line and the head replace: the entry
        # verifies as chain member, so it is adopted and acknowledged.
        log = _fill(GovernanceLog.create(tmp_path / "gov"), count=4)
        stale_head = _head_path(tmp_path).read_text()
        log.append("train-complete", run_key="r-final")
        log.close()
        _head_path(tmp_path).write_text(stale_head)  # the crash

        reopened = GovernanceLog.open(tmp_path / "gov")
        assert len(reopened) == 5
        assert reopened.events("train-complete")[0]["details"][
            "run_key"] == "r-final"
        assert reopened.verify()  # head was re-acknowledged

    def test_gap_beyond_one_append_refused(self, tmp_path):
        log = _fill(GovernanceLog.create(tmp_path / "gov"), count=2)
        stale_head = _head_path(tmp_path).read_text()
        log.append("checkpoint", seq_no=1)
        log.append("checkpoint", seq_no=2)
        log.close()
        _head_path(tmp_path).write_text(stale_head)
        with pytest.raises(GovernanceLogError, match="crash window"):
            GovernanceLog.open(tmp_path / "gov")
