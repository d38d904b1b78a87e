"""Each answer check accepts a genuine answer and rejects an altered one.

Genuine answers come from a service over a tiny generated dataset; each
test then alters one field and expects :class:`CheckFailed`.
"""

from __future__ import annotations

import copy

import pytest

from perfbench import checks, mix
from perfbench.checks import CheckFailed


@pytest.fixture(scope="module")
def served():
    import tempfile
    from pathlib import Path

    from repro.core.service import DomdService
    from repro.data.generator import generate_dataset
    from repro.data.loader import load_dataset, save_dataset
    from repro.persistence import load_estimator

    from perfbench.inputs import fit_and_save, generator_config

    dataset = generate_dataset(generator_config(5, "tiny"))
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(dataset, Path(tmp) / "data")
        fit_and_save(dataset, Path(tmp) / "model.json")
        dataset = load_dataset(Path(tmp) / "data")
        service = DomdService(load_estimator(Path(tmp) / "model.json", dataset))
    avails = mix.avails_of(dataset)
    return service, avails, mix.request_round(avails, 5)


def _answer(service, request):
    response = service.handle(request)
    assert response["ok"], response
    return response["result"]


def _first(requests, predicate):
    return next(request for request in requests if predicate(request))


def test_domd_query_check(served):
    service, avails, requests = served
    for request in requests:
        if request["type"] == "domd_query":
            checks.check_domd_query(request, _answer(service, request), avails)
    request = _first(requests, lambda r: mix.is_single_query(r) and r.get("t_star", 0) >= 25)
    good = _answer(service, request)

    def altered(change):
        answer = copy.deepcopy(good)
        change(answer[0])
        with pytest.raises(CheckFailed):
            checks.check_domd_query(request, answer, avails)

    altered(lambda item: item["fused"].__setitem__(1, item["fused"][1] + 1e-3))
    altered(lambda item: item.__setitem__("current", item["current"] + 1.0))
    altered(lambda item: item["windows"].pop())
    altered(lambda item: item.__setitem__("t_star", item["t_star"] + 10.0))
    altered(lambda item: item.__setitem__("avail_id", item["avail_id"] + 1))
    altered(lambda item: item["estimates"].__setitem__(0, float("nan")))


def test_date_query_uses_the_avails_table(served):
    service, avails, requests = served
    request = _first(requests, lambda r: r["type"] == "domd_query" and "date" in r)
    answer = _answer(service, request)
    moved = {a: (start + 7, planned) for a, (start, planned) in avails.items()}
    with pytest.raises(CheckFailed):
        checks.check_domd_query(request, answer, moved)


def test_multi_equals_singles_check(served):
    service, avails, requests = served
    book = mix.AnswerBook(service.handle)
    request = _first(requests, lambda r: r["type"] == "domd_query" and len(r["avail_ids"]) > 1)
    answer = _answer(service, request)
    mix.check_answer(request, answer, avails, book)
    answer[1]["estimates"][0] += 1e-9
    with pytest.raises(CheckFailed):
        mix.check_answer(request, answer, avails, book)


def test_fleet_status_check(served):
    service, avails, requests = served
    book = mix.AnswerBook(service.handle)
    request = _first(requests, lambda r: r["type"] == "fleet_status")
    good = _answer(service, request)
    assert len(good) >= 2
    checks.check_fleet_status(request["date"], good, avails, book.current_at)

    def rejected(answer):
        with pytest.raises(CheckFailed):
            checks.check_fleet_status(request["date"], answer, avails, book.current_at)

    rejected(good[1:])  # an executing avail left out
    outsider = next(a for a in avails if a not in {item["avail_id"] for item in good})
    rejected(good + [dict(good[-1], avail_id=outsider)])  # a non-executing one added
    rejected(list(reversed(good)))  # not sorted by estimate
    changed = copy.deepcopy(good)
    changed[0]["estimated_delay_days"] += 1e-6
    rejected(changed)  # differs from domd_query at the window boundary


def test_explain_check(served):
    service, _avails, requests = served
    request = _first(requests, lambda r: r["type"] == "explain")
    good = _answer(service, request)
    checks.check_explain(request, good)
    with pytest.raises(CheckFailed):
        checks.check_explain(request, dict(good, contributions=good["contributions"][:-1]))
    with pytest.raises(CheckFailed):
        checks.check_explain(request, dict(good, contributions=list(reversed(good["contributions"]))))


def test_learning_check():
    delays = [10.0, 50.0, 90.0, 130.0]
    early = [[70.0] * 6 + [d] * 5 for d in delays]
    checks.check_learns(early, delays, train_mean=70.0)
    with pytest.raises(CheckFailed):  # no better than the train mean
        checks.check_learns([[70.0] * 11 for _ in delays], delays, train_mean=70.0)
    with pytest.raises(CheckFailed):  # worse at t*=100 than at t*=0
        checks.check_learns([row[::-1] for row in early], delays, train_mean=70.0)


def test_equality_checks():
    checks.check_same(["a", "a", "a"], "hash")
    with pytest.raises(CheckFailed):
        checks.check_same(["a", "a", "b"], "hash")
    items = [{"avail_id": 2, "v": 1.0}, {"avail_id": 1, "v": 2.0}]
    checks.check_same_items(items, list(reversed(items)), "fleet_status")
    with pytest.raises(CheckFailed):
        checks.check_same_items(items, [items[0], dict(items[1], v=2.5)], "fleet_status")
    with pytest.raises(CheckFailed):
        checks.check_equal([{"current": 1.0}], [{"current": 1.0000001}], "answer")
    checks.check_watermark({"watermark": 300}, 300)
    with pytest.raises(CheckFailed):
        checks.check_watermark({"watermark": 200}, 300)
