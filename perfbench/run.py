"""The repository's benchmark: end-to-end and per-layer metrics of the DDNN stack.

Run from the repository root::

    python3 perfbench/run.py --workload train_eval --seed 0 --seconds 30 --trace 0

Workloads (see each module's docstring for what it drives and why):

* ``train_eval`` -- eager joint training, then bulk compiled evaluation
  (``perfbench/train_eval.py``);
* ``fabric_chaos`` -- the simulated two-replica serving fabric under link
  chaos, SLO budgets, hedging and shedding (``perfbench/fabric_chaos.py``).

The thread backend on a wall clock is not a workload: on a shared 2-core
virtual machine, hypervisor steal moved its median open-loop latency by
50-100% from run to run, past any bound a gate could hold.

With ``--trace 0`` the run measures with nothing instrumented and prints
every end-to-end metric; with ``--trace 1`` it runs a fixed amount of work
untraced and then traced, and prints every per-layer metric, including the
tracing overhead against the untraced work.  Every run checks the
program's outputs and fails (exit 1, ``"correct": false``) when a check
does not hold.  The last line of standard output is the result JSON; the
lines before it describe the host and the run.  The full record (and, when
traced, the spans as Chrome trace JSON) is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_eval", "fabric_chaos")
#: Set-up is repeated and its median reported, so one slow set-up cannot
#: pass for a regression.
SETUP_REPEATS = 3
OUT_DIR = ROOT / ".perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _require_program() -> None:
    """Put the program's source on the path, or fail before measuring."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
            "run from a full checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _module(workload: str):
    from perfbench import fabric_chaos, train_eval

    return {"train_eval": train_eval, "fabric_chaos": fabric_chaos}[workload]


def _setup(module, seed: int):
    """Set up ``SETUP_REPEATS`` times; keep the last state, report the median."""
    from perfbench.stats import median

    seconds, generate = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        started = time.perf_counter()
        state = module.setup(seed)
        seconds.append(time.perf_counter() - started)
        generate.append(state["generate_s"])
    state["generate_s"] = median(generate)
    return state, median(seconds)


def main(argv=None) -> int:
    args = _parse(argv)
    if not args.seconds > 0:
        raise SystemExit("--seconds must be > 0")
    _require_program()
    from perfbench.checks import CheckFailed
    from perfbench.host import describe
    from perfbench.steal import StealMonitor

    host = describe(ROOT)
    print("# host " + json.dumps(host), flush=True)
    module = _module(args.workload)
    tracer = None
    steal = None
    state, setup_s = _setup(module, args.seed)
    try:
        if args.trace:
            outcome, tracer = module.traced(state)
        else:
            with StealMonitor() as monitor:
                outcome = module.measure(state, args.seconds, monitor)
            steal = monitor.share(monitor.times[0], monitor.times[-1])
            outcome.metrics["setup_s"] = (setup_s, "s")
    except CheckFailed as failure:
        print(f"# check failed: {failure}", flush=True)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    result = {
        "correct": True,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "host_steal_share": steal,
        "details": outcome.details,
        "samples": outcome.samples,
        "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if tracer is not None:
        from perfbench.instrument import LAYER_TO_END_TO_END

        record["layer_to_end_to_end"] = LAYER_TO_END_TO_END
        record["spans"] = len(tracer.spans)
        tracer.write_chrome(OUT_DIR / f"{stem}.trace.json")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, default=float) + "\n")
    print("# details " + json.dumps(outcome.details, default=float), flush=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
