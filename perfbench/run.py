"""Benchmark command: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <train|serve|ingest|fleet> \\
        --seed N --seconds S --trace <0|1>

Run from the root of a source checkout.  Every step runs in a fresh
interpreter (``perfbench/worker.py``) with a fixed hash seed and one BLAS
thread: the inputs are made from the seed (``prep``), set-up is timed in
further fresh interpreters (``setup``), then the workload is measured and
its answers checked (``run``).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer ones with ``--trace 1``.

Every process the benchmark starts carries a run token in its
environment.  After the workload, and on every way out (error, timeout,
SIGTERM, SIGINT), the benchmark stops the worker's process group, reads
/proc for processes that still carry the token, kills them, and fails the
run if there were any.  Work files live under ``.perfbench_work/`` in the
checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.common import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
TOKEN_VAR = "PERFBENCH_RUN_TOKEN"
#: Set-ups timed per run: the measured run's own plus fresh interpreters.
#: Set-up is reported as measured (see ``common.set_up_done``); raw fleet
#: set-ups spread ~12% on the same code, so the median of two suffices.
SETUP_SAMPLES = 2
#: Wall budget of a whole run, under the 180 s a run may take (the
#: benchmark's tests shorten it to reach the timeout path).
RUN_BUDGET_S = float(os.environ.get("PERFBENCH_BUDGET_S", "170"))
#: Grace given to stopped processes before SIGKILL.
GRACE_S = 10.0


class RunFailed(Exception):
    """The run cannot produce a result."""


class Survivors(RunFailed):
    """A process the benchmark started was alive after its step ended."""


class Interrupted(Exception):
    def __init__(self, signum: int):
        super().__init__(f"stopped by signal {signum}")
        self.signum = signum


def worker_env(token: str) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Back-to-back fits differ by ~15% between hash seeds; BLAS and
    # OpenMP pools would compete with the shards for the two cores.
    env["PYTHONHASHSEED"] = "0"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        env[var] = "1"
    env[TOKEN_VAR] = token
    return env


def token_pids(token: str) -> list[int]:
    """Live processes whose environment carries ``token``."""
    needle = f"{TOKEN_VAR}={token}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                environ = handle.read().split(b"\0")
            with open(f"/proc/{entry}/stat", "rb") as handle:
                state = handle.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in environ and state != b"Z":
            found.append(int(entry))
    return found


def sweep(token: str, wait_s: float = 5.0) -> list[int]:
    """Wait for token processes to end, then kill the rest; returns them."""
    deadline = time.monotonic() + wait_s
    while (left := token_pids(token)) and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + GRACE_S
    while token_pids(token) and time.monotonic() < deadline:
        time.sleep(0.1)
    return left


def stop_group(proc: subprocess.Popen) -> None:
    """SIGTERM the worker's process group, then SIGKILL what is left."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            continue
        # The leader is gone; SIGKILL any group member it left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return


class Runner:
    def __init__(self, args: argparse.Namespace, workdir: Path, token: str):
        self.args = args
        self.workdir = workdir
        self.token = token
        self.env = worker_env(token)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.proc: subprocess.Popen | None = None

    def worker(self, role: str) -> dict:
        args = self.args
        command = [
            sys.executable,
            "-m",
            "perfbench.worker",
            role,
            "--workload", args.workload,
            "--workdir", str(self.workdir),
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--size", args.size,
        ]
        self.proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, _ = self.proc.communicate(
                timeout=max(self.deadline - time.monotonic(), 1.0)
            )
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{role} did not finish within the run's budget") from None
        finally:
            if self.proc.returncode is None:
                stop_group(self.proc)
        # The worker has ended: anything it started must have ended too.
        survivors = sweep(self.token)
        if survivors:
            raise Survivors(f"processes {survivors} outlived the {role} step")
        if self.proc.returncode != 0:
            raise RunFailed(f"{role} exited with code {self.proc.returncode}")
        lines = [line for line in out.splitlines() if line.strip()]
        return json.loads(lines[-1]) if lines else {}

    def stop(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            stop_group(self.proc)


def compose(args: argparse.Namespace, setups: list[dict], result: dict) -> dict:
    setups = setups + [result["setup"]]
    metrics = dict(result["metrics"])
    if args.trace:
        metrics["import.repro_s"] = {
            "value": statistics.median(s["import_s"] for s in setups),
            "unit": "s",
        }
        for name, unit in PER_LAYER.items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
        names = PER_LAYER
    else:
        metrics["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups),
            "unit": "s",
        }
        names = END_TO_END
    if set(metrics) != set(names):
        raise RunFailed(f"metrics {sorted(set(metrics) ^ set(names))} do not match")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: metrics[name] for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper",
                        help="input size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def on_signal(signum, _frame):
        raise Interrupted(signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    token = uuid.uuid4().hex
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    runner = Runner(args, workdir, token)
    status, output = 0, None
    try:
        runner.worker("prep")
        setups = [runner.worker("setup") for _ in range(SETUP_SAMPLES - 1)]
        result = runner.worker("run")
        if args.trace and "end_to_end" in result:
            # The traced run's own end-to-end figures: their difference
            # from an untraced run is the tracing overhead.
            print(json.dumps({"traced_end_to_end": result["end_to_end"]}), file=sys.stderr)
        if not result.get("correct", False):
            print(f"perfbench: answer check failed: {result.get('reason')}", file=sys.stderr)
        output = compose(args, setups, result)
    except (RunFailed, Interrupted) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        if isinstance(exc, Interrupted):
            status = 128 + exc.signum
        else:
            status = 3 if isinstance(exc, Survivors) else 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        runner.stop()
        if sweep(token):
            status = status or 3
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    if status:
        return status
    print(json.dumps(output), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
