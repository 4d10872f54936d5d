"""Repository benchmark: four broadcast-simulation workloads, end to end
and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 42 --seconds 15 --trace 0

Workloads: ``table1``, ``crowd``, ``mixed-faults``, ``audit`` (see
README.md in this directory).  ``--trace 0`` reports the end-to-end
metrics (``client_txn_per_s``, ``setup_s``, ``peak_rss_mb``,
``passed_run_share``); ``--trace 1`` reports the per-layer ledger.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Set-up is measured from outside: this script starts ``measure.py``
:data:`SETUP_SAMPLES` times and times each from spawn to its ``ready``
line.  The middle one of those processes goes on to measure, so its
own pool children are the only ones its peak RSS covers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1", "crowd", "mixed-faults", "audit")

#: set-up measurements per untraced run (the median is reported)
SETUP_SAMPLES = 5
#: a measuring process gets this long beyond ``--seconds`` to finish
#: its last repetition and report
GRACE_SECONDS = 90.0


def _run_child(args: List[str], timeout: float) -> Tuple[float, str]:
    """Start ``measure.py``; return (seconds until ``ready``, the rest of
    its standard output).  The child is always reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), *args],
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"measure.py did not start (said {line!r})")
        rest, _ = proc.communicate(timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"measure.py exited with code {proc.returncode}")
        return ready, rest
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def _commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    timeout = args.seconds + GRACE_SECONDS
    setups: List[float] = []

    def sample_setup(count: int) -> None:
        if not args.trace:
            for _ in range(count):
                setups.append(_run_child(child_args + ["--setup-only"], timeout)[0])

    # half the samples before the measuring process and half after, so one
    # slow stretch of the host does not set the median
    before = (SETUP_SAMPLES - 1) // 2
    sample_setup(before)
    ready, output = _run_child(
        child_args + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        timeout,
    )
    setups.append(ready)
    sample_setup(SETUP_SAMPLES - 1 - before)
    child = json.loads(output.strip().splitlines()[-1])

    if args.trace:
        metrics: Dict[str, Dict[str, Any]] = child["metrics"]
    else:
        rates = child["rates"]
        metrics = {
            "client_txn_per_s": {
                "value": statistics.median(rates) if rates else 0.0,
                "unit": "1/s",
            },
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MiB"},
            "passed_run_share": {
                "value": 1.0 - child["failed"] / max(1, child["attempted"]),
                "unit": "ratio",
            },
        }
        if len(rates) >= 2:
            q1, _, q3 = statistics.quantiles(rates, n=4)
            print(
                f"# client_txn_per_s over {len(rates)} repetitions: "
                f"q1 {q1:.1f}, q3 {q3:.1f}; setup samples {setups}"
            )

    print("# provenance " + json.dumps({**child["provenance"], "commit": _commit()}))
    for problem in child["problems"]:
        print(f"# output check failed: {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": child["failed"] == 0,
                "attempted": child["attempted"],
                "failed": child["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
