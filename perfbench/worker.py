"""One benchmark process: ``python3 -m perfbench.worker <role> ...``.

Roles, each run by ``run.py`` in a fresh interpreter:

* ``prep``  — make the workload's inputs from the seed (untimed);
* ``setup`` — one set-up only, from before ``import repro`` to the first
  answered operation; prints ``{"setup_s", "import_s"}``;
* ``run``   — set-up, warm-up, the timed loop and the answer checks;
  prints the workload's result as its last line.
"""

import time

#: Set-up time is measured from here: nothing of ``repro`` is imported yet.
T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    from perfbench.common import WORKLOADS, install_stop_signals

    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("role", choices=("prep", "setup", "run"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper")
    args = parser.parse_args(argv)
    install_stop_signals()
    workdir = Path(args.workdir)
    if args.role == "prep":
        from perfbench.inputs import prepare

        prepare(args.workload, workdir, args.seed, args.size, args.seconds)
        return 0
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    module = importlib.import_module(f"perfbench.wl_{args.workload}")
    if args.role == "setup":
        print(json.dumps(module.setup_only(manifest, T_START)), flush=True)
        return 0
    result = module.run(manifest, T_START, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
