"""``train``: the ``repro fit`` cycle at paper scale, repeated.

One operation loads the CSV dataset, splits it, extracts features, fits
the final configuration over 11 windows, saves the artefact and evaluates
the test split — the steps of ``repro fit``, called through the library
with a fresh execution context each time, so no feature cache carries
over.  No serving code runs.  Set-up is the import of the CLI package.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any

from perfbench import checks
from perfbench.common import (
    collect,
    median,
    metric,
    peak_rss_mb,
    run_rounds,
    set_up_done,
    span_prefix_seconds,
    span_seconds,
)
from perfbench.inputs import SPLIT_SEED, WINDOW_PCT


def _setup(t_start: float):
    import repro.cli  # noqa: F401 — what `repro fit` loads before working

    return set_up_done(t_start, time.perf_counter(), "blend")


def setup_only(manifest: dict[str, Any], t_start: float) -> dict[str, float]:
    return _setup(t_start)[0]


def count_tree_nodes(payload: Any) -> int:
    """Nodes of every tree in a saved artefact (lists under ``"nodes"``)."""
    if isinstance(payload, dict):
        own = len(payload["nodes"]) if isinstance(payload.get("nodes"), list) else 0
        return own + sum(count_tree_nodes(v) for k, v in payload.items() if k != "nodes")
    if isinstance(payload, list):
        return sum(count_tree_nodes(v) for v in payload)
    return 0


def run(manifest: dict[str, Any], t_start: float, seconds: float, trace: bool) -> dict[str, Any]:
    setup, ref = _setup(t_start)
    from repro.core.config import paper_final_config
    from repro.core.estimator import DomdEstimator
    from repro.core.service import DomdService
    from repro.data.loader import load_dataset
    from repro.data.splits import split_dataset
    from repro.persistence import load_estimator, save_estimator
    from repro.runtime import ExecutionContext

    workdir = Path(manifest["model"]).parent
    layers: dict[str, list[float]] = {}
    fit_s: list[float] = []
    hashes: list[str] = []
    model_hashes: list[str] = []

    def cycle(index: int, timed: bool):
        path = workdir / f"model-{index}.json"
        context = ExecutionContext()
        # A cycle is one ~3 s call, and the host's speed swings within a
        # second: time the kernel after every window fit as well (the
        # context's counter marks it), and leave those pauses out.
        pauses: list[tuple[float, float, float]] = []
        count = context.counter

        def counter(name: str, by: float = 1) -> float:
            if name == "models.windows_fitted":
                start = time.perf_counter()
                value = ref.sample()
                pauses.append((start, time.perf_counter(), value))
            return count(name, by)

        context.counter = counter
        before = ref.sample()
        collect()
        t0 = time.perf_counter()
        dataset = load_dataset(manifest["data"])
        t1 = time.perf_counter()
        splits = split_dataset(dataset, seed=SPLIT_SEED)
        estimator = DomdEstimator(
            paper_final_config(window_pct=WINDOW_PCT), context=context
        ).fit(dataset, splits.train_ids)
        t2 = time.perf_counter()
        save_estimator(estimator, path)
        t3 = time.perf_counter()
        estimator.evaluate(splits.test_ids)
        t4 = time.perf_counter()
        after = ref.sample()
        hashes.append(hashlib.sha256(path.read_bytes()).hexdigest())
        model_hashes.append(estimator.provenance()["model_hash"])
        if timed:
            fit_s.append(ref.scale_stretches(t0, t4, pauses, before, after))
            report = context.report()
            for key, value in (
                ("data.load_dataset_s", t1 - t0),
                ("persistence.save_s", t3 - t2),
                ("features.extract_s", span_seconds(report, "extract")),
                ("index.sweep_s", span_prefix_seconds(report, "status_query.sweep")),
                ("ml.select_s", span_seconds(report, "select")),
                ("ml.fit_windows_s", span_seconds(report, "fit_window")),
                ("core.evaluate_s", span_seconds(report, "evaluate")),
            ):
                layers.setdefault(key, []).append(value)
        if index > 1:
            path.unlink()  # keep the warm-up's and the first timed artefact
        return dataset, splits, estimator, path

    # Untimed warm-up cycle; its estimator and artefact serve the checks.
    dataset, splits, estimator, artefact = cycle(0, timed=False)
    rounds = run_rounds(seconds, lambda i: cycle(i + 1, timed=True))
    peak = peak_rss_mb()  # before the checks build their references

    def verify() -> None:
        checks.check_same(hashes, "saved artefact bytes")
        checks.check_same(model_hashes, "model_hash")
        test_ids = [int(a) for a in splits.test_ids]
        request = {"type": "domd_query", "avail_ids": test_ids, "t_star": 100.0}
        answer = DomdService(estimator).handle(request)
        reloaded = DomdService(
            load_estimator(artefact, load_dataset(manifest["data"]), context=ExecutionContext())
        ).handle(request)
        if not (answer["ok"] and reloaded["ok"]):
            raise checks.CheckFailed("test-split domd_query failed")
        checks.check_domd_query(request, answer["result"], {})
        checks.check_equal(reloaded["result"], answer["result"], "reloaded artefact")
        delay = {
            int(a): float(d)
            for a, d in zip(dataset.avails["avail_id"], dataset.avails["delay"])
        }
        train_mean = sum(delay[int(a)] for a in splits.train_ids) / len(splits.train_ids)
        checks.check_learns(
            [item["fused"] for item in answer["result"]],
            [delay[a] for a in test_ids],
            train_mean,
        )

    correct, reason = checks.passes(verify)
    result: dict[str, Any] = {
        "correct": correct,
        "reason": reason,
        "attempted": rounds,
        "failed": 0,
        "setup": setup,
    }
    e2e = {
        "peak_rss_mb": metric(peak, "MiB"),
        "op_p50_ms": metric(median(fit_s) * 1000.0, "ms"),
        # Too few cycles for a percentile with ten samples beyond it: the
        # slowest cycle stands in for the tail.
        "op_tail_ms": metric(max(fit_s) * 1000.0, "ms"),
        "ops_per_s": metric(len(fit_s) / sum(fit_s), "1/s"),
    }
    if not trace:
        result["metrics"] = e2e
        return result
    factor = ref.run_factor()
    payload = json.loads(artefact.read_text(encoding="utf-8"))
    per_layer = {key: metric(median(values) * factor, "s") for key, values in layers.items()}
    per_layer["host.ref_ms"] = metric(ref.median_ms(), "ms")
    per_layer["ml.tree_nodes"] = metric(count_tree_nodes(payload), "count")
    per_layer["persistence.artifact_bytes"] = metric(artefact.stat().st_size, "bytes")
    result["metrics"] = per_layer
    result["end_to_end"] = e2e
    return result
