"""Input generation: dataset, event stream and fitted model from one seed.

Runs in its own interpreter before any timed phase (``worker.py prep``).
Every input is made by the program under test from ``--seed`` into the
run's work directory; nothing is reused across runs, so a model artefact
never outlives the source tree that fitted it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

#: Generator overrides per size.  ``paper`` is the paper's Table 5 scale
#: (73 ships, 192 avails, ~53k RCCs); ``tiny`` only serves the
#: benchmark's own smoke tests.
SIZES: dict[str, dict[str, int]] = {
    "paper": {},
    "tiny": {
        "n_ships": 12,
        "n_closed_avails": 40,
        "n_ongoing_avails": 3,
        "target_n_rccs": 4000,
    },
}

#: The RCC table of the ingest workload is this many times paper scale.
#: At 2x an ingest run took ~45 s; at 1x the re-extraction each batch
#: forces (~0.2 s) still dwarfs a warm query (~15 ms).
INGEST_SCALE = {"paper": 1, "tiny": 2}
#: Events per ingest batch (ingest workload) and per ``ingest`` request
#: (fleet workload).
INGEST_BATCH = 100
FLEET_BATCH = 40
#: Ingest batches per second of ``--seconds``: the run is a fixed number
#: of events, so the growing WAL cannot cut it short.
INGEST_BATCHES_PER_SECOND = 4
#: Events held back from the fleet's base data for ``ingest`` requests.
FLEET_TAIL_EVENTS = 3000
#: The final configuration's window width: 11 windows (t* = 0, 10, ..., 100).
WINDOW_PCT = 10.0
SPLIT_SEED = 42


def generator_config(seed: int, size: str):
    from repro.data.generator import SyntheticNmdConfig

    return dataclasses.replace(SyntheticNmdConfig(seed=seed), **SIZES[size])


def event_stream(seed: int, size: str, scale: int):
    """``(header, events)`` of the generated dataset, time ordered."""
    from repro.data.generator import generate_dataset
    from repro.data.scaling import scale_rccs
    from repro.stream import dataset_to_events

    dataset = generate_dataset(generator_config(seed, size))
    if scale > 1:
        dataset = scale_rccs(dataset, scale)
    return dataset_to_events(dataset)


def ingest_event_count(seconds: float) -> int:
    return INGEST_BATCHES_PER_SECOND * max(int(seconds), 1) * INGEST_BATCH


def fit_and_save(dataset, model_path: Path) -> None:
    """The ``repro fit`` steps: split, fit the final config, save."""
    from repro.core.config import paper_final_config
    from repro.core.estimator import DomdEstimator
    from repro.data.splits import split_dataset
    from repro.persistence import save_estimator

    splits = split_dataset(dataset, seed=SPLIT_SEED)
    estimator = DomdEstimator(paper_final_config(window_pct=WINDOW_PCT)).fit(
        dataset, splits.train_ids
    )
    save_estimator(estimator, model_path)


def prepare(workload: str, workdir: Path, seed: int, size: str, seconds: float) -> dict[str, Any]:
    """Write one workload's inputs under ``workdir``; returns the manifest."""
    from repro.data.generator import generate_dataset
    from repro.data.loader import save_dataset
    from repro.stream import dataset_from_stream, event_to_dict

    manifest: dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "data": str(workdir / "data"),
        "model": str(workdir / "model.json"),
    }
    if workload in ("train", "serve"):
        dataset = generate_dataset(generator_config(seed, size))
        save_dataset(dataset, manifest["data"])
        if workload == "serve":
            fit_and_save(dataset, Path(manifest["model"]))
    else:
        # The base data is a prefix of the event stream; the held-back
        # tail is what the run appends (ingest) or sends (fleet).
        if workload == "ingest":
            scale = INGEST_SCALE[size]
            n_tail = ingest_event_count(seconds)
        else:
            scale = 1
            n_tail = FLEET_TAIL_EVENTS
        header, events = event_stream(seed, size, scale)
        if n_tail >= len(events) // 2:
            raise ValueError(f"stream of {len(events)} events is too short")
        prefix = len(events) - n_tail
        dataset = dataset_from_stream(header, events[:prefix])
        save_dataset(dataset, manifest["data"])
        fit_and_save(dataset, Path(manifest["model"]))
        manifest.update(scale=scale, prefix_events=prefix, tail=str(workdir / "tail.jsonl"))
        with open(manifest["tail"], "w", encoding="utf-8") as handle:
            for event in events[prefix:]:
                handle.write(json.dumps(event_to_dict(event), sort_keys=True) + "\n")
    manifest["first_avail"] = int(min(dataset.avails["avail_id"]))
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
