"""Answer checks, computed apart from the code under test.

Each check raises :class:`CheckFailed` with a one-line reason.  They take
plain answers (JSON-like dicts and lists, or float arrays) and what the
benchmark derives itself from the inputs (the avails table, the true
delays, a reference answer), so the tests can feed them altered answers.
"""

from __future__ import annotations

import datetime
import math
from typing import Any, Callable, Mapping, Sequence

WINDOW_PCT = 10.0


class CheckFailed(Exception):
    """An answer did not pass its check."""


def _fail(message: str) -> None:
    raise CheckFailed(message)


def logical_time(day: int, act_start: int, planned_duration: int) -> float:
    """Equation 1 of the paper: percent of the planned duration elapsed."""
    return (day - act_start) / planned_duration * 100.0


def day_of(iso: str) -> int:
    return datetime.date.fromisoformat(iso).toordinal()


def window_boundaries(t_star: float) -> list[float]:
    """The 10% window boundaries 0, 10, ... up to ``t*`` (capped at 100)."""
    last = int(min(t_star, 100.0) // WINDOW_PCT)
    return [WINDOW_PCT * k for k in range(last + 1)]


def check_estimate(item: Mapping[str, Any], avail_id: int, t_star: float) -> None:
    """One ``domd_query`` answer: windows, running-mean fusion, current."""
    if item.get("avail_id") != avail_id:
        _fail(f"answer for avail {item.get('avail_id')}, asked {avail_id}")
    answered = item["t_star"]
    if not math.isclose(answered, t_star, rel_tol=1e-12, abs_tol=1e-9):
        _fail(f"avail {avail_id}: t_star {answered!r}, expected {t_star!r}")
    windows = item["windows"]
    if windows != window_boundaries(answered):
        _fail(f"avail {avail_id}: windows {windows} at t*={answered}")
    estimates, fused = item["estimates"], item["fused"]
    if not (len(estimates) == len(fused) == len(windows)):
        _fail(f"avail {avail_id}: {len(estimates)} estimates, {len(fused)} fused")
    running = 0.0
    for k, (raw, value) in enumerate(zip(estimates, fused)):
        if not (math.isfinite(raw) and math.isfinite(value)):
            _fail(f"avail {avail_id}: non-finite estimate at window {k}")
        running += raw
        mean = running / (k + 1)
        if not math.isclose(value, mean, rel_tol=1e-9, abs_tol=1e-9):
            _fail(f"avail {avail_id}: fused[{k}]={value} is not the running mean {mean}")
    if item["current"] != fused[-1]:
        _fail(f"avail {avail_id}: current {item['current']} != last fused {fused[-1]}")


def request_t_star(request: Mapping[str, Any], avail_id: int, avails: Mapping[int, tuple[int, int]]) -> float:
    """``t*`` of a request for one avail, from the avails table."""
    if "t_star" in request:
        return float(request["t_star"])
    act_start, planned = avails[avail_id]
    return logical_time(day_of(request["date"]), act_start, planned)


def check_domd_query(
    request: Mapping[str, Any],
    result: Sequence[Mapping[str, Any]],
    avails: Mapping[int, tuple[int, int]],
) -> None:
    ids = [int(a) for a in request["avail_ids"]]
    if len(result) != len(ids):
        _fail(f"{len(result)} answers for {len(ids)} avails")
    for avail_id, item in zip(ids, result):
        check_estimate(item, avail_id, request_t_star(request, avail_id, avails))


def check_multi_equals_singles(
    result: Sequence[Mapping[str, Any]], singles: Sequence[Sequence[Mapping[str, Any]]]
) -> None:
    """A multi-avail answer equals its single-avail parts, bitwise."""
    for item, single in zip(result, singles, strict=True):
        if [item] != list(single):
            _fail(f"multi-avail answer for avail {item['avail_id']} differs from its single query")


def executing_on(day: int, avails: Mapping[int, tuple[int, int]]) -> dict[int, float]:
    """Avails executing on ``day`` with their progress (0 <= t* <= 100)."""
    out = {}
    for avail_id, (act_start, planned) in avails.items():
        progress = logical_time(day, act_start, planned)
        if 0.0 <= progress <= 100.0:
            out[avail_id] = progress
    return out


def check_fleet_status(
    date: str,
    result: Sequence[Mapping[str, Any]],
    avails: Mapping[int, tuple[int, int]],
    current_at: Callable[[int, float], float],
) -> None:
    """Exactly the executing avails, sorted by estimate, each equal to the
    ``current`` of a ``domd_query`` at its window's boundary t*."""
    expected = executing_on(day_of(date), avails)
    answered = [int(item["avail_id"]) for item in result]
    if sorted(answered) != sorted(expected):
        _fail(f"fleet_status {date}: avails {sorted(answered)}, executing {sorted(expected)}")
    values = [item["estimated_delay_days"] for item in result]
    if any(a < b for a, b in zip(values, values[1:])):
        _fail(f"fleet_status {date}: not sorted by estimate")
    for item in result:
        avail_id = int(item["avail_id"])
        boundary = window_boundaries(expected[avail_id])[-1]
        if item["estimated_delay_days"] != current_at(avail_id, boundary):
            _fail(f"fleet_status {date}: avail {avail_id} differs from domd_query at t*={boundary}")


def check_explain(request: Mapping[str, Any], result: Mapping[str, Any]) -> None:
    if result.get("avail_id") != request["avail_id"]:
        _fail(f"explain answered avail {result.get('avail_id')}")
    contributions = result["contributions"]
    if len(contributions) != request.get("top", 5):
        _fail(f"explain: {len(contributions)} contributions, asked {request.get('top', 5)}")
    sizes = [abs(c["days"]) for c in contributions]
    if any(a < b for a, b in zip(sizes, sizes[1:])):
        _fail("explain: contributions not ranked by size")


def check_same(values: Sequence[Any], what: str) -> None:
    if any(value != values[0] for value in values[1:]):
        _fail(f"{what} differs between repetitions: {sorted(set(map(str, values)))}")


def check_learns(fused: Any, delays: Any, train_mean: float) -> dict[str, float]:
    """Test-split quality from fused estimates (rows: avails, columns: windows).

    The mean MAE over the windows beats predicting the train mean, and the
    MAE at t*=100 is lower than at t*=0.
    """
    import numpy as np

    fused = np.asarray(fused, dtype=np.float64)
    delays = np.asarray(delays, dtype=np.float64)
    mae = np.abs(fused - delays[:, None]).mean(axis=0)
    baseline = float(np.abs(delays - train_mean).mean())
    out = {"mae_t0": float(mae[0]), "mae_t100": float(mae[-1]), "mae_mean": float(mae.mean()), "baseline": baseline}
    if not out["mae_mean"] < baseline:
        _fail(f"test MAE {out['mae_mean']:.2f} does not beat the train mean's {baseline:.2f}")
    if not out["mae_t100"] < out["mae_t0"]:
        _fail(f"test MAE at t*=100 ({out['mae_t100']:.2f}) is not below t*=0 ({out['mae_t0']:.2f})")
    return out


def check_watermark(response: Mapping[str, Any], acked: int) -> None:
    if response.get("watermark") != acked:
        _fail(f"watermark {response.get('watermark')} != {acked} acked events")


def check_same_items(served: Sequence[Mapping[str, Any]], reference: Sequence[Mapping[str, Any]], what: str) -> None:
    """The same answer items, bitwise, in any order (ties may sort apart)."""

    def by_avail(items):
        return sorted(items, key=lambda item: item["avail_id"])

    if by_avail(served) != by_avail(reference):
        _fail(f"{what}: served answer differs from the reference")


def check_equal(served: Any, reference: Any, what: str) -> None:
    if served != reference:
        _fail(f"{what}: served answer differs from the reference")


def passes(check: Callable[[], Any]) -> tuple[bool, str | None]:
    """Run a workload's checks; ``(True, None)`` or ``(False, reason)``."""
    try:
        check()
    except CheckFailed as exc:
        return False, str(exc)
    return True, None
