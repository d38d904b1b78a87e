"""Helpers shared by the workloads: statistics, memory, the host reference
kernel, signal handling and the call probes of the traced run.

Only the standard library is imported at module level: the fleet workload's
shard processes are started with the ``spawn`` method and re-import the
worker's main module, which imports this one.
"""

from __future__ import annotations

import functools
import gc
import os
import resource
import signal
import statistics
import time
from collections import defaultdict
from typing import Any, Callable


WORKLOADS = ("train", "serve", "ingest", "fleet")

#: End-to-end metrics, reported by every workload (``--trace 0``).  The
#: headline operation ("op") is the workload's own: a fit cycle (train), a
#: single-avail ``domd_query`` (serve, fleet) or append-to-queryable
#: (ingest); see README.md.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
}

#: Per-layer metrics, reported by every traced run (``--trace 1``).  A
#: layer the workload does not exercise reads 0 there.
PER_LAYER = {
    "host.ref_ms": "ms",
    "import.repro_s": "s",
    "data.load_dataset_s": "s",
    "features.extract_s": "s",
    "index.sweep_s": "s",
    "ml.select_s": "s",
    "ml.fit_windows_s": "s",
    "core.evaluate_s": "s",
    "persistence.save_s": "s",
    "ml.tree_nodes": "count",
    "persistence.artifact_bytes": "bytes",
    "persistence.load_model_s": "s",
    "core.bind_s": "s",
    "ml.predict_s.domd_query": "s",
    "ml.predict_s.fleet_status": "s",
    "core.fuse_s": "s",
    "core.service_overhead_s": "s",
    "core.explain_s": "s",
    "ml.window_predicts": "count",
    "core.fleet_status_batches": "count",
    "stream.wal_append_s": "s",
    "stream.wal_read_s": "s",
    "stream.apply_s": "s",
    "stream.snapshot_s": "s",
    "features.reextract_s": "s",
    "stream.wal_records_parsed": "count",
    "stream.wal_records_returned": "count",
    "features.extractions": "count",
    "core.read_s": "s",
    "serve.shard_start_s": "s",
    "serve.hop_ms.domd_query": "ms",
    "serve.hop_ms.fleet_status": "ms",
    "serve.requests_per_shard": "count",
    "fleet_status_p50_ms": "ms",
    "explain_p50_ms": "ms",
    "read_p50_ms": "ms",
    "ingest_ack_p50_ms": "ms",
    "restart_s": "s",
}


class Stopped(Exception):
    """Raised in the worker when SIGTERM or SIGINT arrives."""


STOP_SIGNALS = {signal.SIGTERM, signal.SIGINT}


def install_stop_signals() -> None:
    """Turn SIGTERM and SIGINT into :class:`Stopped`, so ``finally`` runs."""

    def _raise(signum, _frame):
        raise Stopped(f"signal {signum}")

    for signum in STOP_SIGNALS:
        signal.signal(signum, _raise)


def hold_stop_signals() -> None:
    """Block SIGTERM and SIGINT, so a second one cannot cut a clean-up short."""
    signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    That is the value with exactly ten larger samples.  Below forty
    samples that percentile would be no tail, and the slowest is returned.
    """
    ordered = sorted(values)
    if len(ordered) < 40:
        # Short (tiny-scale) runs only: the slowest sample stands in.
        return float(ordered[-1])
    return float(ordered[len(ordered) - 11])


def collect() -> None:
    """Collect garbage before a timed phase."""
    gc.collect()


#: Each reference kernel's time on this host when uncontended; scaled
#: timings read as if measured at that host speed.
REF_NOMINAL_MS = {"walk": 3.5, "blend": 7.0}


class HostRef:
    """Tracks host speed with a fixed kernel timed beside the operations.

    On a shared host, other tenants slow every instruction by up to ~1.9x
    for seconds at a time; no statistic over one run's samples removes
    that.  A kernel that slows with the workload's work makes their ratio
    steadier than either:

    * ``walk`` walks a fixed, seeded ensemble of depth-3 trees the way a
      one-row ``RegressionTree.predict`` does (small numpy indexing in a
      Python loop).  Against warm ``domd_query`` latency its ratio spread
      5% (IQR/median) where the raw latency spread 58%.
    * ``blend`` is ``walk`` followed by a sort and prefix-sum of 300k
      floats.  Over twelve runs each of ``train`` and ``ingest`` in a busy
      and a quiet hour, the median fit cycle spread 33% raw, 14% scaled by
      the sort alone, 10% by ``walk`` and 4.6% by ``blend``; the median
      append-to-queryable 30%, 16%, 6% and 2.9%.  The two parts misjudge a
      change of load in opposite directions.

    The kernels use no code of the program, so a change to the program
    moves scaled timings exactly as it moves raw ones.
    ``scale(t, seconds)`` converts a duration that ended at ``t`` to the
    nominal host: ``seconds * REF_NOMINAL_MS / ref``, with ``ref`` the
    median of the ``NEAREST`` kernel samples taken nearest ``t``, each the
    fastest of ``reps`` timings.
    """

    TREES = 300
    NEAREST = 3

    def __init__(self, kind: str, reps: int = 2) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self.kind = kind
        self.nominal_ms = REF_NOMINAL_MS[kind]
        self._x = rng.random((1, 60))
        self._array = rng.random(300_000)
        self._trees = []
        for _ in range(self.TREES):
            features = [int(f) for f in rng.integers(0, 60, 7)] + [-1] * 8
            thresholds = [float(t) for t in rng.random(15)]
            self._trees.append(
                [(f, t, 2 * i + 1, 2 * i + 2, t) for i, (f, t) in enumerate(zip(features, thresholds))]
            )
        self.reps = reps
        self.samples: list[tuple[float, float]] = []

    def kernel_ms(self) -> float:
        np = self._np
        start = time.perf_counter()
        x = self._x
        for nodes in self._trees:
            out = np.empty(1)
            stack = [(0, np.arange(1))]
            while stack:
                index, idx = stack.pop()
                if not len(idx):
                    continue
                feature, threshold, left, right, value = nodes[index]
                if feature < 0:
                    out[idx] = value
                    continue
                go_left = x[idx, feature] <= threshold
                stack.append((left, idx[go_left]))
                stack.append((right, idx[~go_left]))
        if self.kind == "blend":
            np.sort(self._array)
            np.cumsum(self._array)
        return (time.perf_counter() - start) * 1000.0

    def sample(self) -> float:
        value = min(self.kernel_ms() for _ in range(self.reps))
        self.samples.append((time.perf_counter(), value))
        return value

    def ref_at(self, t: float) -> float:
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - t))[: self.NEAREST]
        return statistics.median(value for _, value in nearest)

    def scale(self, t: float, seconds: float) -> float:
        return seconds * self.nominal_ms / self.ref_at(t)

    def scaled(self, timed: list[tuple[float, float]]) -> list[float]:
        """Scale ``(end time, seconds)`` pairs; returns the scaled seconds."""
        return [self.scale(t, seconds) for t, seconds in timed]

    def scale_stretches(self, start: float, end: float, pauses: list[tuple[float, float, float]], before: float, after: float) -> float:
        """Scale one long operation that was paused for kernel timings.

        ``pauses`` are ``(start, end, kernel ms)`` of the timings taken
        inside ``[start, end]``; ``before`` and ``after`` are timings taken
        right outside it.  Each stretch between two timings is scaled by
        their mean, and the pauses themselves are left out.
        """
        edges = [(start, start, before), *pauses, (end, end, after)]
        return sum(
            (right - left) * self.nominal_ms * 2.0 / (a + b)
            for (_, left, a), (right, _, b) in zip(edges, edges[1:])
        )

    def run_factor(self) -> float:
        """The whole run's scale, for steps timed once (layers)."""
        return self.nominal_ms / self.median_ms()

    def median_ms(self) -> float:
        return statistics.median(value for _, value in self.samples)


def set_up_done(
    t_start: float, imported: float, kind: str, reps: int = 2
) -> tuple[dict[str, float], HostRef]:
    """Close a set-up: its timings and the run's :class:`HostRef`.

    Set-up is reported as measured, not scaled.  It spans imports, file
    reads and (on ``fleet``) process starts, which the kernel does not
    track: scaled by kernel timings taken right after it, ten set-ups of
    the same fleet spread 55-70% (IQR/median) where the raw ones spread 12%.
    """
    ready = time.perf_counter()
    ref = HostRef(kind, reps)
    ref.sample()
    return {"setup_s": ready - t_start, "import_s": imported - t_start}, ref


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_pids(pid: int | None = None) -> list[int]:
    """Direct children of ``pid`` (default: this process), read from /proc."""
    pid = os.getpid() if pid is None else pid
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("ascii", "replace")
        except OSError:
            continue
        # The command name may hold spaces; fields after it are fixed.
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def peak_rss_of_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_rounds(seconds: float, one_round: Callable[[int], None]) -> int:
    """Run whole rounds until ``seconds`` have passed; at least one."""
    collect()
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        one_round(rounds)
        rounds += 1
    return rounds


class Probe:
    """Times calls into public functions of the program (traced run only).

    ``wrap(owner, name, key)`` replaces ``owner.name`` with a wrapper that
    appends each call's duration to ``samples[key]``; ``close`` restores
    every original.  Nothing inside ``src/`` is changed.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.results: dict[str, list[Any]] = defaultdict(list)
        self.notes: dict[str, list[Any]] = defaultdict(list)
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        name: str,
        key: str,
        keep_result: bool = False,
        note: Callable[[tuple], Any] | None = None,
    ) -> None:
        """Time ``owner.name``; optionally keep results, or ``note(args)``."""
        original = getattr(owner, name)
        samples = self.samples[key]
        results = self.results[key]
        notes = self.notes[key]

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if note is not None:
                notes.append(note(args))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - start)
            if keep_result:
                results.append(result)
            return result

        # Instance attributes are restored by deletion, class ones by value.
        self._undo.append((owner, name, owner.__dict__.get(name, _ABSENT)))
        setattr(owner, name, timed)

    def close(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


_ABSENT = object()


def span_seconds(report: Any, name: str) -> float:
    """Total seconds of every span called ``name`` in a ``RunReport``."""
    return float(report.span_seconds(name))


def span_prefix_seconds(report: Any, prefix: str) -> float:
    """Total seconds of every span whose name starts with ``prefix``."""
    total = 0.0
    stack = list(report.spans)
    while stack:
        record = stack.pop()
        if record.name.startswith(prefix):
            total += record.seconds
        else:
            stack.extend(record.children.values())
    return total


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}
