"""Verified serving traffic: open-loop queries and attributions against a
promoted cluster, every outcome checked against brute force."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from caltrain_bench import checks, loadgen

#: A request answered later than this after its due time has failed
#: (the cluster's own default per-query deadline).
DEADLINE_S = 2.0
#: An answer may lack rows committed at most this long before its query
#: was sent: replicas adopt growth on the cluster's health sweep (every
#: 0.25 s, one replica per sweep), then build one index segment.
FRESHNESS_S = 2.0


def handlers(world, query_items: Sequence[int], flag_items: Sequence[int]):
    fps, labels = world.heldout_fp, world.heldout_labels

    def query(request):
        i = int(query_items[request.item])
        sent = len(world.store)
        result = world.cluster.query(fps[i], int(labels[i]))
        return result, sent, len(world.store)

    def attribute(request):
        i = int(flag_items[request.item])
        return world.attributor.attribute(fps[i], int(labels[i]))

    return {"query": query, "attribute": attribute}


def run(world, requests, query_items, flag_items, recorder=None,
        stop=None) -> List[loadgen.Outcome]:
    return loadgen.run_open_loop(
        requests, handlers(world, query_items, flag_items),
        recorder=recorder, stop=stop)


def record(world, outcomes, query_items, flag_items,
           warmup_s: float = 0.0) -> None:
    """Latency samples, failure counts and correctness for each outcome;
    requests due in the first ``warmup_s`` are checked but not timed.

    Call once the store has stopped changing: answers are checked against
    the committed prefix they cite, which may be older than the store but
    must hold every row committed :data:`FRESHNESS_S` before the query
    was sent (``world.commits`` times the growth appends)."""
    brute = checks.BruteForce(world.store)
    commits = checks.Commits(world.commits)
    fps, labels = world.heldout_fp, world.heldout_labels
    for outcome in outcomes:
        request = outcome.request
        world.count("attempted")
        timed = request.due >= warmup_s
        if timed:
            world.sample("lateness_s", outcome.lateness)
        if outcome.error is not None and request.kind == "attribute":
            # Attribution refuses when the promoted lineage, the governance
            # log or a replica's audit chain no longer verifies.
            world.problems.append(f"attribution {request.rid} raised "
                                  f"{outcome.error!r}")
        if outcome.error is not None or outcome.latency > DEADLINE_S:
            world.count("failed")
            world.failures.append(
                f"{request.rid}: {outcome.error!r}" if outcome.error
                else f"{request.rid}: answered {outcome.latency:.3f}s "
                     "after its due time")
            continue
        if request.kind == "query":
            i = int(query_items[request.item])
            result, sent, answered = outcome.result
            verdict = checks.check_answer(brute, fps[i], int(labels[i]),
                                          result.hits, sent, answered)
            if not verdict["ok"]:
                world.problems.append(f"query {request.rid}: answer differs "
                                      "from brute force over its prefix")
            world.count("stale_answers", int(verdict["stale"]))
            age = commits.age(brute, int(labels[i]), result.hits,
                              outcome.started)
            world.sample("answer_age_s", age)
            if age > FRESHNESS_S:
                world.problems.append(
                    f"query {request.rid}: answer lacks rows committed "
                    f"{age:.2f}s before it was sent")
            world.count("queries")
            if timed:
                world.sample("query_s", outcome.latency)
        else:
            i = int(flag_items[request.item])
            for problem in checks.check_attribution(
                    outcome.result, world.store, world.ledger, brute, fps[i],
                    int(labels[i])):
                world.problems.append(f"attribution {request.rid}: {problem}")
            if timed:
                world.sample("attribution_s", outcome.latency)


def verification_loop(world, recorder=None) -> None:
    """The chain's closing traffic: fresh held-out queries with
    attributions of earlier flagged predictions interleaved."""
    size = world.inputs.size
    count = size.verify_queries + size.attributions
    every = count // size.attributions if size.attributions else 0
    requests = loadgen.schedule(size.query_rate, count, every)
    query_items = np.arange(1, size.verify_queries + 1) % size.heldout
    # Each repetition flags different predictions, so a run's attribution
    # samples are not a few items timed over and over.
    flag_items = (world.rep * count + np.arange(count)) % size.heldout
    outcomes = run(world, requests, query_items, flag_items, recorder)
    record(world, outcomes, query_items, flag_items)
