"""The seeded request mix of the ``serve`` and ``fleet`` workloads.

A round is a fixed, shuffled list of requests that are all valid for
their avails and dates: dates lie inside the chosen avails' planned
execution windows, so every ``domd_query`` has t* >= 0 and every
``fleet_status`` date has at least one executing avail.

The seed picks the avails and dates; the cost structure is fixed.  A
query's cost grows with the windows up to its t*, so t* (and the share of
planned duration a date falls at) is stratified, one value per window,
mid-window; ``fleet_status`` dates are days on which the executing avails
ask for a set number of window predictions in all.  Two
seeds then differ in the data and the model, not in how much work a
round asks for.

Single-avail latencies therefore come in steps, one per window count.
The strata are weighted so that each reported statistic falls inside a
step, not on the edge between two: per avail drawn, nine single queries
use fewer windows than t* = 50-60 and nine use more, with three in that
window, so the median is among those three; and two use all eleven
windows, so the tail (the eleventh-slowest of a run's samples) lies among
them.  With one query per stratum and no second one in the middle window,
the median sat on the edge between the 5- and the 6-window step, about
15% apart, and moved between them from seed to seed.  A query's cost also
depends on its avail (at t* = 100, 12-21 ms between avails of one seed),
so each stratum draws ``SINGLE_AVAILS`` avails.
"""

from __future__ import annotations

import datetime
import json
import random
from typing import Any

from perfbench import checks
from perfbench.checks import CheckFailed, executing_on, window_boundaries

#: Strata of t* (percent of planned duration): one per window, mid-window,
#: plus both ends and a second one in the middle window.
T_STARS = [0.0, 5.0, 15.0, 25.0, 35.0, 45.0, 50.0, 55.0, 65.0, 75.0, 85.0, 95.0, 100.0]
#: The same for date-based requests (shares of planned duration); with
#: ``T_STARS``, 9 + 3 + 9 strata around the middle window.
DATE_SHARES = [0.05, 0.25, 0.45, 0.55, 0.65, 0.85, 0.95, 1.0]
#: Single-avail queries per stratum, each for an avail drawn apart.
SINGLE_AVAILS = 2
#: Multi-avail queries: 3 avails each, at these t* / shares.
MULTI_T_STARS = [15.0, 55.0, 95.0]
MULTI_SIZE = 3
EXPLAIN_T_STARS = [5.0, 25.0, 45.0, 65.0, 85.0, 100.0]
#: A ``fleet_status`` costs ~25 single queries at paper scale, so two per
#: round keep the single-avail ``domd_query`` the bulk of the work.
FLEET_STATUS = 2
#: Window predictions a ``fleet_status`` day asks for (its executing
#: avails' windows up to their t*, summed): about a day of median
#: concurrency at paper scale.  Picking days of median concurrency instead
#: left this at 91-158 between seeds, and requests per second followed.
FLEET_STATUS_WINDOWS = 130
HEALTH = 2
METRICS = 2
#: Candidate days drawn when looking for ``fleet_status`` days.
CANDIDATE_DAYS = 200


def avails_of(dataset: Any) -> dict[int, tuple[int, int]]:
    """``avail_id -> (act_start, planned_duration)`` from the avails table."""
    table = dataset.avails
    return {
        int(a): (int(s), int(p))
        for a, s, p in zip(table["avail_id"], table["act_start"], table["planned_duration"])
    }


def _iso(day: int) -> str:
    return datetime.date.fromordinal(day).isoformat()


def _day_at(avail: tuple[int, int], share: float) -> int:
    act_start, planned = avail
    return act_start + round(share * planned)


def _windows_on(day: int, avails: dict[int, tuple[int, int]]) -> int:
    """Window predictions a ``fleet_status`` on ``day`` asks for."""
    return sum(len(window_boundaries(t_star)) for t_star in executing_on(day, avails).values())


def request_round(avails: dict[int, tuple[int, int]], seed: int) -> list[dict[str, Any]]:
    rng = random.Random(seed)
    ids = sorted(avails)
    out: list[dict[str, Any]] = []
    for _ in range(SINGLE_AVAILS):
        for t_star in T_STARS:
            out.append({"type": "domd_query", "avail_ids": [rng.choice(ids)], "t_star": t_star})
        for share in DATE_SHARES:
            avail_id = rng.choice(ids)
            out.append({"type": "domd_query", "avail_ids": [avail_id], "date": _iso(_day_at(avails[avail_id], share))})
    for t_star in MULTI_T_STARS:
        out.append({"type": "domd_query", "avail_ids": rng.sample(ids, MULTI_SIZE), "t_star": t_star})
    for share in MULTI_T_STARS:
        # A day on which the chosen avails all execute, at a set share of
        # the first one's planned duration.
        while True:
            first = rng.choice(ids)
            day = _day_at(avails[first], share / 100.0)
            others = sorted(set(executing_on(day, avails)) - {first})
            if len(others) >= MULTI_SIZE - 1:
                chosen = [first] + rng.sample(others, MULTI_SIZE - 1)
                out.append({"type": "domd_query", "avail_ids": chosen, "date": _iso(day)})
                break
    for t_star in EXPLAIN_T_STARS:
        out.append({"type": "explain", "avail_id": rng.choice(ids), "t_star": t_star, "top": 5})
    candidates = [_day_at(avails[rng.choice(ids)], rng.random()) for _ in range(CANDIDATE_DAYS)]
    by_load = sorted(set(candidates), key=lambda day: (abs(_windows_on(day, avails) - FLEET_STATUS_WINDOWS), day))
    for day in by_load[:FLEET_STATUS]:
        out.append({"type": "fleet_status", "date": _iso(day)})
    out.extend({"type": "metrics"} for _ in range(METRICS))
    out.extend({"type": "health"} for _ in range(HEALTH))
    rng.shuffle(out)
    return out


def is_single_query(request: dict[str, Any]) -> bool:
    return request["type"] == "domd_query" and len(request["avail_ids"]) == 1


#: Request types whose answers depend only on the served data.
DETERMINISTIC = ("domd_query", "explain", "fleet_status")


class AnswerBook:
    """Reference answers from one service, each request computed once.

    ``ask(request)`` returns the ``result`` of an ok answer and raises
    :class:`~perfbench.checks.CheckFailed` otherwise.
    """

    def __init__(self, answer):
        self._answer = answer
        self._memo: dict[str, Any] = {}

    def ask(self, request: dict[str, Any]) -> Any:
        key = json.dumps(request, sort_keys=True)
        if key not in self._memo:
            response = self._answer(request)
            if not response.get("ok"):
                raise CheckFailed(f"reference {request['type']} failed: {response.get('error')}")
            self._memo[key] = response["result"]
        return self._memo[key]

    def current_at(self, avail_id: int, t_star: float) -> float:
        request = {"type": "domd_query", "avail_ids": [avail_id], "t_star": t_star}
        return self.ask(request)[0]["current"]


def check_answer(request: dict[str, Any], result: Any, avails, book: AnswerBook) -> None:
    """Every check of one served answer against ``book``'s service."""
    kind = request["type"]
    if kind == "domd_query":
        checks.check_domd_query(request, result, avails)
        if len(request["avail_ids"]) > 1:
            time_field = {k: request[k] for k in ("t_star", "date") if k in request}
            singles = [
                book.ask({"type": "domd_query", "avail_ids": [a], **time_field})
                for a in request["avail_ids"]
            ]
            checks.check_multi_equals_singles(result, singles)
    elif kind == "fleet_status":
        checks.check_fleet_status(request["date"], result, avails, book.current_at)
    elif kind == "explain":
        checks.check_explain(request, result)
