"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload paper_grid --seed 2003 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Every timed repetition runs the workload's fixed job once in a process
of its own (forked from this one after it imported the simulator), one
after another, so the load is a closed loop of one client.  Repetitions continue while the next one
still fits in ``--seconds`` (at least three run).  End-to-end metrics
are the medians over the untraced repetitions.  With ``--trace 1`` one
more repetition runs first, with spans around every layer's public
calls, and the per-layer split comes from it; then at least one
untraced repetition runs.

The correctness gate compares every cell artifact with the digests
pinned in ``pins.json`` at the default seed (2003); on any other seed
every repetition must reproduce the first one's artifacts exactly.  A
cell fails if its job raised before writing it, if its artifact misses
the pin or the first repetition, or if it breaks an invariant.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import sys
import time
import traceback
from time import perf_counter

from workloads import WORKLOADS, run_once

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
DEFAULT_SEED = 2003
MIN_REPETITIONS = 3
REPETITION_TIMEOUT_S = 40


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units and directions."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def repetition(
    workload: str, seed: int, toy: bool, trace: bool, work: pathlib.Path
) -> dict | None:
    """Run the job once in a child process; ``None`` if the child died.

    The child is forked from this interpreter, which has imported the
    simulator and run nothing: every repetition starts with empty
    module-level memos, and its peak resident memory is its own, as in
    a fresh ``repro`` invocation, without paying the imports again.
    The job's store stays under ``work``.
    """
    work.mkdir(parents=True, exist_ok=True)
    result_path = work / "result.json"
    spans = OUT / f"spans-{workload}.json" if trace else None
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            result = run_once(workload, seed, toy, trace, work / "store", spans)
            result_path.write_text(json.dumps(result))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    deadline = perf_counter() + REPETITION_TIMEOUT_S
    try:
        while not os.waitpid(pid, os.WNOHANG)[0]:
            if perf_counter() > deadline:
                raise TimeoutError
            time.sleep(0.01)
    except BaseException as exc:  # never leave the child running
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        if isinstance(exc, TimeoutError):
            return None
        raise
    return json.loads(result_path.read_text()) if result_path.exists() else None


def failed_cells(result: dict | None, reference: dict, cells: list[str]) -> list[str]:
    """Cells of one repetition that miss ``reference`` or an invariant."""
    if result is None:
        return list(cells)
    artifacts = result["artifacts"]
    bad = set(result["invariant_violations"])
    for name in cells:
        if name not in artifacts or artifacts[name] != reference.get(name):
            bad.add(name)
    return sorted(bad)


def measure(
    workload: str, seed: int, seconds: float, trace: bool, toy: bool = False
) -> dict:
    """Repeat one workload for ``seconds`` and gate its outputs.

    Returns the JSON result: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (end-to-end medians, or the per-layer split when
    ``trace``), plus ``failures`` naming the failed cells.
    """
    import repro.experiments  # noqa: F401 - loaded once, before any fork

    def once(traced: bool) -> dict | None:
        work = OUT / f"{workload}-{os.getpid()}"
        try:
            return repetition(workload, seed, toy, traced, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    start = perf_counter()
    traced = once(True) if trace else None
    # A traced run needs one untraced repetition for trace.overhead_s.
    minimum = 1 if trace else MIN_REPETITIONS
    results: list[dict | None] = []
    durations: list[float] = []
    while len(results) < minimum or (
        perf_counter() - start + statistics.fmean(durations) <= seconds
    ):
        began = perf_counter()
        results.append(once(False))
        durations.append(perf_counter() - began)

    finished = [r for r in results if r is not None]
    if not finished:
        raise RuntimeError(f"{workload}: every repetition died before reporting")
    cells = finished[0]["cells"]
    if seed == DEFAULT_SEED and not toy:
        reference = json.loads((HERE / "pins.json").read_text())[workload]
    else:
        reference = finished[0]["artifacts"]
    failures = []
    for index, result in enumerate(([traced] if trace else []) + results):
        failures.extend(f"rep{index}:{c}" for c in failed_cells(result, reference, cells))
    attempted = len(cells) * (len(results) + int(trace))

    def median(key: str) -> float:
        return statistics.median(r[key] for r in finished)

    if trace:
        if traced is None:
            raise RuntimeError(f"{workload}: the traced repetition died")
        metrics = dict(traced["layers"])
        loop_s = median("loop_s")
        metrics["dessim.events_per_loop_s"] = (
            metrics["dessim.events"] / loop_s if loop_s else 0.0
        )
        metrics["trace.overhead_s"] = traced["wall_s"] - median("wall_s")
        contract = load_contract()["per_layer"]
    else:
        metrics = {
            "wall_s": median("wall_s"),
            "setup_s": median("setup_s"),
            "loop_s": median("loop_s"),
            "peak_rss_mb": median("peak_rss_mb"),
        }
        contract = load_contract()["end_to_end"]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in contract
        },
        "failures": failures,
        "repetitions": len(results),
    }


def report(workload: str, result: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(
        f"{workload}: {result['repetitions']} repetitions, "
        f"failed_share {result['failed'] / result['attempted']:.4f} "
        f"({result['failed']}/{result['attempted']} cells)"
    )
    for name, entry in result["metrics"].items():
        print(f"  {name:32} {entry['value']:>16.6g} {entry['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=load_contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    final = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, r in results.items()
            for metric, entry in r["metrics"].items()
        },
    }
    print(json.dumps({key: final[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
