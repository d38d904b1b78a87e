"""No process the benchmark starts outlives a run, however the run ends.

The ``fleet`` workload hosts ``FleetService(shards=2)``.  Shards have no
parent-death watch: a shard whose host process dies stays up, re-parented
to init.  These tests stop a tiny-scale fleet run partway and then read
/proc for any process that carries the test's marker in its environment.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import uuid

import pytest

from perfbench import run as bench

ROOT = bench.ROOT

MARK = "PERFBENCH_TEST_MARK"


def marked(mark: str) -> list[tuple[int, str]]:
    """``(pid, command line)`` of live processes carrying ``mark``."""
    needle = f"{MARK}={mark}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle not in handle.read().split(b"\0"):
                    continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ").decode()
            with open(f"/proc/{entry}/stat", "rb") as handle:
                if handle.read().rsplit(b")", 1)[1].split()[0] == b"Z":
                    continue
        except OSError:
            continue
        found.append((int(entry), cmdline))
    return found


def start_fleet_run(mark: str, **env: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed", "3",
         "--seconds", "60", "--trace", "0", "--size", "tiny"],
        cwd=ROOT,
        env={**os.environ, MARK: mark, **env},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )


def wait_for_run_step(mark: str, timeout: float = 120.0) -> int:
    """Wait until the measuring worker is up with its two shards; its pid."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        procs = marked(mark)
        workers = [pid for pid, cmd in procs if "perfbench.worker run" in cmd]
        shards = [pid for pid, cmd in procs if "multiprocessing" in cmd and "spawn_main" in cmd]
        if workers and len(shards) >= 2:
            time.sleep(2.0)  # into the measured loop
            return workers[0]
        time.sleep(0.2)
    raise AssertionError(f"fleet run did not come up: {marked(mark)}")


def finish(proc: subprocess.Popen, timeout: float = 90.0) -> int:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise AssertionError("the benchmark did not exit after being stopped")
    return proc.returncode


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_stopping_a_fleet_run_leaves_no_process(signum):
    mark = uuid.uuid4().hex
    proc = start_fleet_run(mark)
    try:
        wait_for_run_step(mark)
        proc.send_signal(signum)
        assert finish(proc) == 128 + signum
        assert marked(mark) == []
    finally:
        if proc.poll() is None:
            proc.kill()


def test_worker_stops_its_shards_on_sigterm():
    """SIGTERM to the worker alone: it stops both shards itself, so the
    run fails for the worker's exit code, not for survivors (exit 3)."""
    mark = uuid.uuid4().hex
    proc = start_fleet_run(mark)
    try:
        worker = wait_for_run_step(mark)
        os.kill(worker, signal.SIGTERM)
        assert finish(proc) == 1
        assert marked(mark) == []
    finally:
        if proc.poll() is None:
            proc.kill()


def test_timeout_leaves_no_process():
    mark = uuid.uuid4().hex
    proc = start_fleet_run(mark, PERFBENCH_BUDGET_S="45")
    try:
        wait_for_run_step(mark)
        assert finish(proc) == 1
        assert marked(mark) == []
    finally:
        if proc.poll() is None:
            proc.kill()


def test_sweep_finds_and_kills_a_survivor():
    token = uuid.uuid4().hex
    orphan = subprocess.Popen(
        ["sleep", "60"], env={**os.environ, bench.TOKEN_VAR: token}, start_new_session=True
    )
    try:
        assert bench.sweep(token, wait_s=0.5) == [orphan.pid]
        assert orphan.wait(timeout=10) == -signal.SIGKILL
    finally:
        if orphan.poll() is None:
            orphan.kill()


def test_no_result_without_sources(tmp_path):
    """In a directory with only the benchmark, the command fails at once."""
    import shutil

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
