"""``fleet``: the sharded TCP service, ``FleetService`` with two shards.

One client (one ``FrameClient`` connection to the front-end) drives a
closed loop of epochs, one per ``EPOCH_SECONDS`` of ``--seconds``.  An
epoch is:

1. one ``ingest`` request of ``FLEET_BATCH`` held-back events, routed to
   the owning shards and fsync-acknowledged by each, then one
   single-avail query per shard, which pays the re-extraction the ingest
   forces (timed apart, so the mix's queries are all warm);
2. ``ROUNDS_PER_EPOCH`` rounds of the ``serve`` mix (``mix.py``): point
   queries route to one shard, ``fleet_status`` scatter-gathers,
   cross-shard multi-avail queries split;
3. a ``kill -9`` of one shard (alternating) and ``restart_shard``, which
   cold-starts the shard and replays its WAL, up to its first answer.

This is the only workload that covers ``repro.serve``: framing, routing,
the front-end, the supervisor, shard cold start and WAL replay.  Every
shard process is stopped on every way out of the run.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path
from typing import Any

from perfbench import checks, mix
from perfbench.common import (
    Probe,
    child_pids,
    collect,
    hold_stop_signals,
    median,
    metric,
    peak_rss_mb,
    peak_rss_of_mb,
    set_up_done,
    tail,
)
from perfbench.inputs import FLEET_BATCH
from perfbench.wl_ingest import load_tail

SHARDS = 2
#: Rounds of the mix between one ingest and the next shard restart.
ROUNDS_PER_EPOCH = 3
#: A run is one epoch per this many seconds of ``--seconds`` (rounded up):
#: a fixed amount of work, so every run has the same mix of cold and warm
#: requests around its ingests and restarts.
EPOCH_SECONDS = 5.0


def _setup(manifest: dict[str, Any], t_start: float, probe: Probe | None = None):
    """``repro serve --listen`` with two shards and per-shard WALs, up to
    the first answer; returns the timings, the fleet and the client."""
    import repro.cli  # noqa: F401 — what `repro serve --listen` loads first

    imported = time.perf_counter()
    from repro.runtime import ExecutionContext
    from repro.serve import FleetService
    from repro.serve.client import FrameClient
    from repro.serve.supervisor import ShardSupervisor

    if probe is not None:
        probe.wrap(ShardSupervisor, "start_shard", "start_shard")
        probe.wrap(FrameClient, "request", "frame_request", note=lambda args: args[0].port)
    fleet = FleetService(
        model=manifest["model"],
        data=manifest["data"],
        shards=SHARDS,
        wal_dir=str(Path(manifest["model"]).parent / f"wal-{os.getpid()}"),
        context=ExecutionContext(),
    )
    client = None
    try:
        port = fleet.start()
        client = FrameClient("127.0.0.1", port, timeout=60.0)
        first = {"type": "domd_query", "avail_ids": [manifest["first_avail"]], "t_star": 50.0}
        response = client.request(first)
        if not response.get("ok"):
            raise RuntimeError(f"first request failed: {response}")
    except BaseException:
        if client is not None:
            client.close()
        fleet.stop(drain=False)
        raise
    # The host's speed swings within a second, so the kernel is timed
    # before every request; once, not fastest of two, to keep that cheap
    # beside a ~12 ms request.
    timings, ref = set_up_done(t_start, imported, "walk", reps=1)
    return timings, ref, fleet, client


def setup_only(manifest: dict[str, Any], t_start: float) -> dict[str, float]:
    timings, _ref, fleet, client = _setup(manifest, t_start)
    hold_stop_signals()
    client.close()
    fleet.stop(drain=True)
    return timings


def run(manifest: dict[str, Any], t_start: float, seconds: float, trace: bool) -> dict[str, Any]:
    probe = Probe() if trace else None
    setup, ref, fleet, client = _setup(manifest, t_start, probe)
    clean = False
    try:
        result = _measure(manifest, fleet, client, seconds, probe, setup, ref)
        clean = True
        return result
    finally:
        # Every way out stops the shards: the normal end, an exception, or
        # SIGTERM/SIGINT (raised here as Stopped), which is held meanwhile.
        hold_stop_signals()
        client.close()
        fleet.stop(drain=clean)
        if probe is not None:
            probe.close()


def _measure(manifest, fleet, client, seconds: float, probe: Probe | None, setup, ref) -> dict[str, Any]:
    from repro.data.loader import load_dataset

    dataset = load_dataset(manifest["data"])
    avails = mix.avails_of(dataset)
    requests = mix.request_round(avails, manifest["seed"])
    tail_events = load_tail(manifest)
    batches = [tail_events[i : i + FLEET_BATCH] for i in range(0, len(tail_events), FLEET_BATCH)]
    owned = {}
    for avail_id in sorted(avails):
        owned.setdefault(fleet.routing.shard_of_avail(avail_id), avail_id)
    frontend_port = fleet.port

    latency: dict[str, list[tuple[float, float]]] = {}
    acks: list[tuple[float, float]] = []
    restarts: list[tuple[float, float]] = []
    # In the order sent: (ingests acknowledged before, label, [(request,
    # result)]) per round and per set of queries right after an ingest;
    # a result of None is not compared.
    answers: list[tuple[int, str, list[tuple[dict[str, Any], Any]]]] = []
    shard_requests: list[int] = []
    acked = {shard_id: 0 for shard_id in range(SHARDS)}
    state: dict[str, Any] = {"failed": 0, "attempted": 0, "ingests": 0, "bad_watermark": []}

    def ask(request: dict[str, Any], kind: str | None) -> dict[str, Any]:
        ref.sample()
        start = time.perf_counter()
        response = client.request(request)
        end = time.perf_counter()
        state["attempted"] += 1
        if not response.get("ok"):
            state["failed"] += 1
        elif kind is not None:
            latency.setdefault(kind, []).append((end, end - start))
        return response

    def one_round(timed: bool) -> None:
        before = _shard_calls(probe, frontend_port)
        results = []
        for request in requests:
            kind = ("single" if mix.is_single_query(request) else request["type"]) if timed else None
            response = ask(request, kind)
            deterministic = response.get("ok") and request["type"] in mix.DETERMINISTIC
            results.append(response["result"] if deterministic else None)
        answers.append((state["ingests"], f"round {len(shard_requests)}", list(zip(requests, results))))
        shard_requests.append(_shard_calls(probe, frontend_port) - before)

    def epoch(index: int) -> None:
        ref.sample()
        start = time.perf_counter()
        response = client.request({"type": "ingest", "events": batches[index]})
        end = time.perf_counter()
        acks.append((end, end - start))
        state["attempted"] += 1
        if not response.get("ok"):
            state["failed"] += 1
        else:
            state["ingests"] += 1
            for shard_id, part in response["result"]["per_shard"].items():
                acked[int(shard_id)] = part["last_seq"]
        fresh = []
        for shard_id in range(SHARDS):
            request = {"type": "domd_query", "avail_ids": [owned[shard_id]], "t_star": 50.0}
            fresh.append((request, ask(request, "after_ingest").get("result")))
        answers.append((state["ingests"], f"after ingest {index}", fresh))
        for _ in range(ROUNDS_PER_EPOCH):
            one_round(timed=True)
        shard_id = index % SHARDS
        ref.sample()
        start = time.perf_counter()
        fleet.restart_shard(shard_id)
        first = client.request({"type": "domd_query", "avail_ids": [owned[shard_id]], "t_star": 50.0})
        end = time.perf_counter()
        ref.sample()
        state["attempted"] += 1
        if first.get("ok"):
            restarts.append((end, end - start))
        else:
            state["failed"] += 1
        status = client.request({"type": "shard_status"})
        for sid, part in status.get("result", {}).items():
            if part.get("watermark") != acked[int(sid)]:
                state["bad_watermark"].append((index, sid, part.get("watermark"), acked[int(sid)]))

    epochs = max(1, math.ceil(seconds / EPOCH_SECONDS))
    if epochs > len(batches):
        raise RuntimeError(f"{len(batches)} held-back batches for {epochs} epochs")
    one_round(timed=False)  # warm-up, over the base data
    collect()
    for index in range(epochs):
        epoch(index)
    ref.sample()
    peak = peak_rss_mb() + sum(peak_rss_of_mb(pid) for pid in child_pids())

    reference_time: dict[str, list[tuple[float, float]]] = {}

    def verify() -> None:
        if state["bad_watermark"]:
            raise checks.CheckFailed(f"shard watermarks differ from acked ingests: {state['bad_watermark'][:3]}")
        # Only the traced run times the reference (for ``serve.hop_ms``).
        reference = Reference(manifest, dataset, ref if probe is not None else None, reference_time)
        applied = 0
        book = reference.book()
        for ingests, label, pairs in answers:
            if ingests > applied:
                for batch in batches[applied:ingests]:
                    reference.apply(batch)
                applied = ingests
                book = reference.book()
            for request, result in pairs:
                if result is None:
                    continue
                what = f"{label} {request['type']}"
                if request["type"] == "fleet_status":
                    checks.check_same_items(result, book.ask(request), what)
                else:
                    checks.check_equal(result, book.ask(request), what)
                mix.check_answer(request, result, avails, book)

    correct, reason = checks.passes(verify)
    scaled = {kind: ref.scaled(values) for kind, values in latency.items()}
    every = [v for values in scaled.values() for v in values] + ref.scaled(acks)
    e2e = {
        "peak_rss_mb": metric(peak, "MiB"),
        "op_p50_ms": metric(median(scaled["single"]) * 1000.0, "ms"),
        "op_tail_ms": metric(tail(scaled["single"]) * 1000.0, "ms"),
        "ops_per_s": metric(len(every) / sum(every), "1/s"),
    }
    result: dict[str, Any] = {
        "correct": correct,
        "reason": reason,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "setup": setup,
    }
    if probe is None:
        result["metrics"] = e2e
        return result
    from perfbench.wl_serve import set_up_layers

    factor = ref.run_factor()
    per_layer = set_up_layers(manifest, factor)
    per_layer.update(
        {
            "host.ref_ms": metric(ref.median_ms(), "ms"),
            "serve.shard_start_s": metric(median(probe.samples["start_shard"]) * factor, "s"),
            "serve.requests_per_shard": metric(
                sum(shard_requests[1:]) / (len(shard_requests) - 1) / SHARDS, "count"
            ),
            "fleet_status_p50_ms": metric(median(scaled["fleet_status"]) * 1000.0, "ms"),
            "ingest_ack_p50_ms": metric(median(ref.scaled(acks)) * 1000.0, "ms"),
            "restart_s": metric(median(ref.scaled(restarts)), "s"),
        }
    )
    for kind, name in (("single", "serve.hop_ms.domd_query"), ("fleet_status", "serve.hop_ms.fleet_status")):
        in_process = ref.scaled(reference_time.get(kind, []))
        if in_process:
            per_layer[name] = metric((median(scaled[kind]) - median(in_process)) * 1000.0, "ms")
    result["metrics"] = per_layer
    result["end_to_end"] = e2e
    return result


def _shard_calls(probe: Probe | None, frontend_port: int) -> int:
    """Frame requests sent so far to shards (not to the front-end)."""
    if probe is None:
        return 0
    return sum(1 for port in probe.notes["frame_request"] if port != frontend_port)


class Reference:
    """The in-process service over the same events: base data plus the
    ingests acknowledged so far, rebuilt from scratch for each state."""

    def __init__(self, manifest: dict[str, Any], base: Any, ref: Any, timings: dict[str, list[tuple[float, float]]]):
        from repro.stream import StreamingRccStore

        self.manifest = manifest
        self.store = StreamingRccStore.from_dataset(base)
        self.ref = ref
        self.timings = timings

    def apply(self, events: list[dict[str, Any]]) -> None:
        for event in events:
            self.store.apply(event)

    def book(self) -> mix.AnswerBook:
        from repro.core.service import DomdService
        from repro.persistence import load_estimator
        from repro.runtime import ExecutionContext

        service = DomdService(
            load_estimator(self.manifest["model"], self.store.dataset(), context=ExecutionContext())
        )

        def answer(request: dict[str, Any]) -> dict[str, Any]:
            if self.ref is None:
                return service.handle(request)
            self.ref.sample()
            start = time.perf_counter()
            response = service.handle(request)
            end = time.perf_counter()
            kind = "single" if mix.is_single_query(request) else request["type"]
            self.timings.setdefault(kind, []).append((end, end - start))
            return response

        return mix.AnswerBook(answer)
