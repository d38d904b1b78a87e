"""``ingest``: the ``repro serve --follow`` path under a stream of RCC events.

The RCC table is ``INGEST_SCALE`` times paper scale.  The service starts
from a prefix of the generated event stream (saved as CSV, as ``serve
--data`` reads it); the held-back tail is appended in fixed-size batches,
each through the same sequence:

1. ``WalWriter.append_batch`` (fsync-acknowledged);
2. ``WalFollower.poll_once()``, called from this thread so that no poll
   interval enters the numbers — it reads the WAL, applies the batch and
   rebinds the service;
3. a ``domd_query`` for an avail the batch touched (append-to-queryable);
4. ``READS`` warm read-only queries.

A run is a fixed number of events, not a fixed time, because the WAL
grows over the run: ``INGEST_BATCHES_PER_SECOND`` batches per second of
``--seconds``.  This is the only workload that writes beside reads.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Any

from perfbench import checks, mix
from perfbench.common import (
    Probe,
    collect,
    median,
    metric,
    peak_rss_mb,
    set_up_done,
    span_seconds,
    tail,
)
from perfbench.inputs import INGEST_BATCH, event_stream

#: Warm read-only queries after each batch.
READS = 3


def _setup(manifest: dict[str, Any], t_start: float):
    import repro.cli  # noqa: F401 — what `repro serve` loads first

    imported = time.perf_counter()
    from repro.core.service import DomdService
    from repro.data.loader import load_dataset
    from repro.persistence import load_estimator
    from repro.runtime import ExecutionContext
    from repro.runtime.concurrency import ReadWriteGate
    from repro.serve.handler import RequestHandler
    from repro.stream import StreamIngestor, StreamingRccStore, WalFollower, WalWriter

    context = ExecutionContext()
    dataset = load_dataset(manifest["data"])
    service = DomdService(load_estimator(manifest["model"], dataset, context=context))
    # As `repro serve --follow WAL` assembles it (default designs "avl").
    ingestor = StreamIngestor(
        StreamingRccStore.from_dataset(dataset), designs=("avl",), context=context
    )
    gate = ReadWriteGate()
    service.ingest = ingestor
    wal_path = Path(manifest["model"]).parent / f"follow-{time.monotonic_ns()}.wal"
    follower = WalFollower(
        ingestor,
        str(wal_path),
        gate=gate,
        on_batch=lambda ing: service.rebind(ing.dataset()),
    )
    handler = RequestHandler(service, gate=gate)
    first = {"type": "domd_query", "avail_ids": [manifest["first_avail"]], "t_star": 50.0}
    response = handler.handle_line(json.dumps(first)).result()
    if not response["ok"]:
        raise RuntimeError(f"first request failed: {response}")
    timings, ref = set_up_done(t_start, imported, "blend")
    return timings, ref, handler, follower, WalWriter(wal_path), dataset


def setup_only(manifest: dict[str, Any], t_start: float) -> dict[str, float]:
    timings, _ref, _handler, _follower, wal, _dataset = _setup(manifest, t_start)
    wal.close()
    return timings


def load_tail(manifest: dict[str, Any]) -> list[dict[str, Any]]:
    with open(manifest["tail"], encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def touched_query(batch: list[dict[str, Any]], avail_of_rcc: dict[int, int], avails) -> dict[str, Any]:
    """A query for the avail of the batch's last event, at that event's day."""
    event = batch[-1]
    avail_id = event.get("avail_id")
    if avail_id is None:
        avail_id = avail_of_rcc[event["rcc_id"]]
    day = event.get("create_date", event.get("settle_date"))
    t_star = min(max(checks.logical_time(day, *avails[avail_id]), 0.0), 100.0)
    return {"type": "domd_query", "avail_ids": [int(avail_id)], "t_star": round(t_star, 1)}


def run(manifest: dict[str, Any], t_start: float, seconds: float, trace: bool) -> dict[str, Any]:
    setup, ref, handler, follower, wal, dataset = _setup(manifest, t_start)
    service = handler.service
    context = service.context
    avails = mix.avails_of(dataset)
    tail_events = load_tail(manifest)
    batches = [tail_events[i : i + INGEST_BATCH] for i in range(0, len(tail_events), INGEST_BATCH)]
    avail_of_rcc = {int(r): int(a) for r, a in zip(dataset.rccs["rcc_id"], dataset.rccs["avail_id"])}
    for event in tail_events:
        if event["kind"] == "rcc_created":
            avail_of_rcc[event["rcc_id"]] = event["avail_id"]
    rng = random.Random(manifest["seed"])
    ids = sorted(avails)
    queries = [touched_query(batch, avail_of_rcc, avails) for batch in batches]
    reads = [
        [
            {"type": "domd_query", "avail_ids": [rng.choice(ids)], "t_star": round(rng.uniform(0, 100), 1)}
            for _ in range(READS)
        ]
        for _ in batches
    ]
    checkpoints = {len(batches) // 2, len(batches) - 1}

    probe = Probe()
    if trace:
        import repro.stream.follow as follow

        probe.wrap(follow, "read_wal", "read_wal", keep_result=True)
        probe.wrap(follower.ingestor, "apply_batch", "apply_batch")
    rebind = follower.on_batch
    snapshot: list[float] = []

    def timed_rebind(ingestor):
        start = time.perf_counter()
        rebind(ingestor)
        snapshot.append(time.perf_counter() - start)

    follower.on_batch = timed_rebind

    # Warm-up: the read path, untimed (nothing is appended before the loop).
    for request in reads[0]:
        handler.handle_line(json.dumps(request)).result()

    queryable: list[float] = []
    cycles: list[float] = []
    append: list[float] = []
    read_latency: list[tuple[float, float]] = []
    read_service: list[float] = []
    reextract: list[float] = []
    extractions: list[float] = []
    served: dict[int, tuple[dict[str, Any], Any]] = {}
    state = {"failed": 0, "acked": 0}
    stamps: list[tuple[dict[str, Any], int]] = []  # (answer, acked events)

    def ask(request: dict[str, Any]) -> tuple[dict[str, Any], float]:
        start = time.perf_counter()
        response = handler.handle_line(json.dumps(request)).result()
        json.dumps(response)
        elapsed = time.perf_counter() - start
        if not response["ok"]:
            state["failed"] += 1
        else:
            stamps.append(({"watermark": response.get("watermark")}, state["acked"]))
        return response, elapsed

    collect()
    for index, batch in enumerate(batches):
        # The host's speed swings within a second: time the kernel before
        # the append, between the poll and the query, and after the answer,
        # and scale each stretch by the timings around it.
        speed_before = ref.sample()
        counted = context.metrics.counter_value("feature.extractions")
        start = time.perf_counter()
        result = wal.append_batch(batch)
        appended = time.perf_counter()
        if not result.synced:
            state["failed"] += 1
        state["acked"] = result.last_seq
        follower.poll_once()
        paused = time.perf_counter()
        speed_middle = ref.sample()
        pause = (paused, time.perf_counter(), speed_middle)
        response, first_query = ask(queries[index])
        answered = time.perf_counter()
        speed_after = ref.sample()
        reading = time.perf_counter()
        queryable.append(ref.scale_stretches(start, answered, [pause], speed_before, speed_after))
        append.append(appended - start)
        if index in checkpoints and response["ok"]:
            served[index] = (queries[index], response["result"])
        warm = []
        for request in reads[index]:
            before = context.report() if trace else None
            _, elapsed = ask(request)
            warm.append(elapsed)
            if trace:
                after = context.report()
                read_service.append(
                    span_seconds(after, "request.domd_query") - span_seconds(before, "request.domd_query")
                )
        done = time.perf_counter()
        cycles.append(queryable[-1] + (done - reading) * ref.nominal_ms / speed_after)
        read_latency.extend((done, elapsed) for elapsed in warm)
        reextract.append(first_query - median(warm))
        extractions.append(context.metrics.counter_value("feature.extractions") - counted)
    ref.sample()
    wal.close()
    probe.close()
    attempted = len(batches) * (2 + READS)

    def verify() -> None:
        from repro.core.service import DomdService
        from repro.persistence import load_estimator
        from repro.runtime import ExecutionContext
        from repro.stream import dataset_from_stream, event_from_dict

        for answer, acked in stamps:
            checks.check_watermark(answer, acked)
        if state["acked"] != len(tail_events):
            raise checks.CheckFailed(f"{state['acked']} events acked of {len(tail_events)} appended")
        header, events = event_stream(manifest["seed"], manifest["size"], manifest["scale"])
        prefix = manifest["prefix_events"]
        if [event_from_dict(e) for e in tail_events] != events[prefix:]:
            raise checks.CheckFailed("appended events are not the stream's tail")
        for index in sorted(served):
            request, answer = served[index]
            watermark = (index + 1) * INGEST_BATCH
            reference = DomdService(
                load_estimator(
                    manifest["model"],
                    dataset_from_stream(header, events[: prefix + watermark]),
                    context=ExecutionContext(),
                )
            ).handle(request)
            checks.check_domd_query(request, answer, avails)
            checks.check_equal(answer, reference.get("result"), f"after batch {index + 1}")

    peak = peak_rss_mb()  # before the checks build their references
    correct, reason = checks.passes(verify)
    e2e = {
        "peak_rss_mb": metric(peak, "MiB"),
        "op_p50_ms": metric(median(queryable) * 1000.0, "ms"),
        "op_tail_ms": metric(tail(queryable) * 1000.0, "ms"),
        "ops_per_s": metric(len(tail_events) / sum(cycles), "1/s"),
    }
    result: dict[str, Any] = {
        "correct": correct,
        "reason": reason,
        "attempted": attempted,
        "failed": state["failed"],
        "setup": setup,
    }
    if not trace:
        result["metrics"] = e2e
        return result
    from perfbench.wl_serve import set_up_layers

    reads_done = probe.results["read_wal"]
    factor = ref.run_factor()
    per_layer = set_up_layers(manifest, factor)
    per_layer.update(
        {
            "host.ref_ms": metric(ref.median_ms(), "ms"),
            "stream.wal_append_s": metric(median(append) * factor, "s"),
            "stream.wal_read_s": metric(median(probe.samples["read_wal"]) * factor, "s"),
            "stream.apply_s": metric(median(probe.samples["apply_batch"]) * factor, "s"),
            "stream.snapshot_s": metric(median(snapshot) * factor, "s"),
            "features.reextract_s": metric(median(reextract) * factor, "s"),
            "stream.wal_records_parsed": metric(sum(r.last_seq for r in reads_done) / len(batches), "count"),
            "stream.wal_records_returned": metric(sum(len(r.records) for r in reads_done) / len(batches), "count"),
            "features.extractions": metric(sum(extractions) / len(batches), "count"),
            "core.read_s": metric(median(read_service) * factor, "s"),
            "read_p50_ms": metric(median(ref.scaled(read_latency)) * 1000.0, "ms"),
        }
    )
    result["metrics"] = per_layer
    result["end_to_end"] = e2e
    return result
