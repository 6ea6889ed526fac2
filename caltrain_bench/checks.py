"""Correctness checks: every answer and attribution is recomputed here.

Answers are compared with a brute-force top-k over the committed store
prefix the answer cites (its index snapshot's row count for the label),
attributions with the share rule recomputed from the store, and the
lineage each attribution cites with the ledger manifest.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial.distance import cdist

K = 9
SHARE = 0.25          # Attributor's default source_share_threshold
DISTANCE_RTOL = 1e-5  # ties: equal distances may order either way


class BruteForce:
    """Exact top-k over any committed prefix of a linkage store."""

    def __init__(self, store) -> None:
        self.store = store
        self.boundaries = np.cumsum([s.records for s in store.segments])
        self.rows: Dict[int, tuple] = {}
        # Rows of each label in every committed prefix (segment boundary).
        self.prefix_rows: Dict[int, np.ndarray] = {}
        for label in store.labels():
            matrix, indices = store.by_label(label)
            indices = np.asarray(indices, dtype=np.int64)
            self.rows[label] = (np.asarray(matrix, dtype=np.float32), indices)
            self.prefix_rows[label] = np.searchsorted(indices,
                                                      self.boundaries)

    def topk(self, fingerprint, label: int, prefix: int, k: int = K):
        matrix, indices = self.rows[label]
        keep = indices < prefix
        distances = cdist(np.asarray(fingerprint, dtype=np.float32)[None, :],
                          matrix[keep])[0]
        order = np.argsort(distances, kind="stable")[:k]
        return indices[keep][order], distances[order]

    def distance(self, fingerprint, index: int) -> float:
        return float(np.linalg.norm(
            self.store.fingerprint_at(int(index)).astype(np.float64)
            - np.asarray(fingerprint, dtype=np.float64)))

    def label_rows(self, label: int, prefix: int) -> int:
        return int(np.searchsorted(self.rows[label][1], prefix))

    def cited_prefix(self, label: int, rows: Optional[int],
                     fallback: int) -> Optional[int]:
        """Smallest committed prefix holding ``rows`` rows of ``label``."""
        if rows is None:
            return fallback
        counts = self.prefix_rows[label]
        pos = int(np.searchsorted(counts, rows))
        if pos < len(counts) and counts[pos] == rows:
            return int(self.boundaries[pos])
        return None


def hits_match(hits, expected_indices, expected_distances,
               true_distance) -> bool:
    """Same length and the same distances as brute force position by
    position, and every hit's reported distance is its true distance —
    so a differing index can only be an equal-distance tie."""
    got = [(int(h.index), float(h.distance)) for h in hits]
    if len(got) != len(expected_indices):
        return False
    for (index, distance), want_index, want in zip(got, expected_indices,
                                                   expected_distances):
        if not np.isclose(distance, want, rtol=DISTANCE_RTOL, atol=1e-7):
            return False
        if index != int(want_index) and not np.isclose(
                true_distance(index), want, rtol=DISTANCE_RTOL, atol=1e-7):
            return False
    return True


def check_answer(brute: BruteForce, fingerprint, label: int, hits,
                 sent_rows: int, answered_rows: int) -> Dict[str, bool]:
    """``{"ok", "stale"}`` for one served answer.

    ``ok``: the hits equal the brute-force top-k over the committed prefix
    the answer cites, and that prefix existed when the answer came back.
    ``stale``: the cited prefix lacks rows of this label that were
    committed before the query was sent.
    """
    prefix = brute.cited_prefix(label, getattr(hits, "label_rows", None),
                                answered_rows)
    if prefix is None or prefix > answered_rows:
        return {"ok": False, "stale": False}
    want_i, want_d = brute.topk(fingerprint, label, prefix)
    stale = brute.label_rows(label, prefix) < brute.label_rows(label,
                                                                sent_rows)
    ok = hits_match(hits, want_i, want_d,
                    lambda i: brute.distance(fingerprint, i))
    return {"ok": ok, "stale": stale}


class Commits:
    """When each growth prefix of the store was committed."""

    def __init__(self, commits: Sequence[Tuple[float, int]]) -> None:
        self.times = np.array([t for t, _ in commits], dtype=np.float64)
        self.prefixes = np.array([p for _, p in commits], dtype=np.int64)

    def age(self, brute: BruteForce, label: int, hits, sent: float) -> float:
        """How long before ``sent`` the first row of ``label`` the answer
        lacks was committed; 0 when it holds every row committed by then."""
        cited = getattr(hits, "label_rows", None)
        if cited is None or not len(self.times):
            return 0.0
        rows = np.searchsorted(brute.rows[label][1], self.prefixes)
        first = int(np.searchsorted(rows, cited, side="right"))
        if first == len(rows) or self.times[first] >= sent:
            return 0.0
        return float(sent - self.times[first])


def check_attribution(report, store, ledger, brute: BruteForce,
                      fingerprint, label: int) -> List[str]:
    """Problems with one attribution report (empty list = correct)."""
    problems = []
    hits = report.hits
    want_i, want_d = brute.topk(fingerprint, label, len(store))
    got = [SimpleNamespace(index=h["store_index"], distance=h["distance"])
           for h in hits]
    if not hits_match(got, want_i, want_d,
                      lambda i: brute.distance(fingerprint, i)):
        problems.append("attribution hits differ from brute force")
    counts: Dict[str, int] = {}
    for hit in hits:
        source = store.record(hit["store_index"]).source
        counts[source] = counts.get(source, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    implicated = [s for s, c in ranked if c / len(hits) >= SHARE]
    if implicated != list(report.implicated):
        problems.append(f"implicated {report.implicated} != {implicated}")
    digests = {s.name: s.digest for s in ledger.segments}
    for hit in hits:
        evidence = hit["ledger"]
        if (evidence["lane"] != "committed"
                or evidence["contributor"] != hit["source"]
                or digests.get(evidence["segment"])
                != evidence["segment_digest"]):
            problems.append(f"lineage of store #{hit['store_index']} does "
                            "not match the ledger manifest")
    return problems


def all_equal(values: Sequence) -> bool:
    return all(v == values[0] for v in values)
