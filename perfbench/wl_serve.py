"""``serve``: a warm closed loop over the ``repro serve`` stdin path.

One client sends a fixed, seeded round of requests (see ``mix.py``)
through ``RequestHandler.handle_line`` inline in the process, as the
unpooled ``repro serve`` loop does, and serialises each response line.
No fitting, no WAL and no TCP: model predict and fusion dominate.
Set-up is ``repro serve``'s start: import, CSV load, artefact load and
feature binding, up to the first answered request.
"""

from __future__ import annotations

import json
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
    run_rounds,
    set_up_done,
    span_seconds,
    tail,
)


def _setup(manifest: dict[str, Any], t_start: float):
    """``repro serve``'s start, up to the first answer."""
    import repro.cli  # noqa: F401 — what `repro serve` loads first

    imported = time.perf_counter()
    from repro.core.service import DomdService
    from repro.data.loader import load_dataset
    from repro.persistence import load_estimator
    from repro.runtime import ExecutionContext
    from repro.serve.handler import RequestHandler

    dataset = load_dataset(manifest["data"])
    estimator = load_estimator(manifest["model"], dataset, context=ExecutionContext())
    handler = RequestHandler(DomdService(estimator))
    first = {"type": "domd_query", "avail_ids": [manifest["first_avail"]], "t_star": 50.0}
    response = handler.handle_line(json.dumps(first)).result()
    json.dumps(response)
    if not response["ok"]:
        raise RuntimeError(f"first request failed: {response}")
    # The host's speed swings within a second, so the kernel is timed
    # before every request; once, not fastest of two, to keep that cheap
    # beside a ~12 ms request.
    timings, ref = set_up_done(t_start, imported, "walk", reps=1)
    return timings, ref, handler, dataset


def setup_only(manifest: dict[str, Any], t_start: float) -> dict[str, float]:
    return _setup(manifest, t_start)[0]


def set_up_layers(manifest: dict[str, Any], factor: float, repeats: int = 3) -> dict[str, Any]:
    """Time the set-up steps apart, several times (traced run only)."""
    from repro.core.service import DomdService
    from repro.data.loader import load_dataset
    from repro.persistence import load_estimator
    from repro.runtime import ExecutionContext

    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        collect()
        t0 = time.perf_counter()
        dataset = load_dataset(manifest["data"])
        t1 = time.perf_counter()
        context = ExecutionContext()
        estimator = load_estimator(manifest["model"], dataset, context=context)
        t2 = time.perf_counter()
        DomdService(estimator)
        t3 = time.perf_counter()
        extract = span_seconds(context.report(), "extract")
        for key, value in (
            ("data.load_dataset_s", t1 - t0),
            ("persistence.load_model_s", (t2 - t1) - extract),
            ("core.bind_s", extract + (t3 - t2)),
        ):
            samples.setdefault(key, []).append(value)
    out = {key: metric(median(values) * factor, "s") for key, values in samples.items()}
    out["persistence.artifact_bytes"] = metric(Path(manifest["model"]).stat().st_size, "bytes")
    return out


def run(manifest: dict[str, Any], t_start: float, seconds: float, trace: bool) -> dict[str, Any]:
    setup, ref, handler, dataset = _setup(manifest, t_start)
    service = handler.service
    context = service.context
    avails = mix.avails_of(dataset)
    requests = mix.request_round(avails, manifest["seed"])
    lines = [json.dumps(request) for request in requests]

    probe = Probe()
    if trace:
        from repro.core.timeline_models import TimelineModelSet

        probe.wrap(TimelineModelSet, "predict_window", "predict_window")
    latency: dict[str, list[tuple[float, float]]] = {}
    spans: dict[str, list[float]] = {}
    first: list[Any] = [None] * len(requests)
    state = {"failed": 0, "drift": 0}

    def one_round(timed: bool) -> None:
        for index, (request, line) in enumerate(zip(requests, lines)):
            ref.sample()
            before = context.report() if trace else None
            start = time.perf_counter()
            response = handler.handle_line(line).result()
            json.dumps(response)
            end = time.perf_counter()
            if not response["ok"]:
                state["failed"] += 1
                continue
            if request["type"] in mix.DETERMINISTIC:
                if first[index] is None:
                    first[index] = response["result"]
                elif response["result"] != first[index]:
                    state["drift"] += 1
            if not timed:
                continue
            kind = "single" if mix.is_single_query(request) else request["type"]
            latency.setdefault(kind, []).append((end, end - start))
            if trace:
                after = context.report()

                def delta(name: str) -> float:
                    return span_seconds(after, name) - span_seconds(before, name)

                if kind == "single":
                    spans.setdefault("ml.predict_s.domd_query", []).append(delta("predict"))
                    spans.setdefault("core.fuse_s", []).append(delta("fuse"))
                    spans.setdefault("core.service_overhead_s", []).append(end - start - delta("query"))
                elif kind == "fleet_status":
                    spans.setdefault("ml.predict_s.fleet_status", []).append(delta("predict"))
                elif kind == "explain":
                    spans.setdefault("core.explain_s", []).append(delta("request.explain"))

    one_round(timed=False)  # warm-up
    probe.samples["predict_window"].clear()
    batches_before = context.metrics.counter_value("service.fleet_status.batches")
    rounds = run_rounds(seconds, lambda _i: one_round(timed=True))
    batches = context.metrics.counter_value("service.fleet_status.batches") - batches_before
    ref.sample()
    probe.close()
    peak = peak_rss_mb()  # before the checks build their references

    def verify() -> None:
        if state["drift"]:
            raise checks.CheckFailed(f"{state['drift']} answers changed between rounds")
        book = mix.AnswerBook(service.handle)
        for request, result in zip(requests, first):
            if result is not None:
                mix.check_answer(request, result, avails, book)

    correct, reason = checks.passes(verify)
    scaled = {kind: ref.scaled(values) for kind, values in latency.items()}
    every = [v for values in scaled.values() for v in values]
    e2e = {
        "peak_rss_mb": metric(peak, "MiB"),
        "op_p50_ms": metric(median(scaled["single"]) * 1000.0, "ms"),
        "op_tail_ms": metric(tail(scaled["single"]) * 1000.0, "ms"),
        "ops_per_s": metric(len(every) / sum(every), "1/s"),
    }
    result: dict[str, Any] = {
        "correct": correct,
        "reason": reason,
        "attempted": (rounds + 1) * len(requests),
        "failed": state["failed"],
        "setup": setup,
    }
    if not trace:
        result["metrics"] = e2e
        return result
    factor = ref.run_factor()
    per_layer = {key: metric(median(values) * factor, "s") for key, values in spans.items()}
    per_layer.update(set_up_layers(manifest, factor))
    per_layer["host.ref_ms"] = metric(ref.median_ms(), "ms")
    per_layer["ml.window_predicts"] = metric(len(probe.samples["predict_window"]) / rounds, "count")
    per_layer["core.fleet_status_batches"] = metric(batches / rounds, "count")
    per_layer["fleet_status_p50_ms"] = metric(median(scaled["fleet_status"]) * 1000.0, "ms")
    per_layer["explain_p50_ms"] = metric(median(scaled["explain"]) * 1000.0, "ms")
    result["metrics"] = per_layer
    result["end_to_end"] = e2e
    return result
