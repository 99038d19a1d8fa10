"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at a tenth of its size with a
fixed seed, twice per mode, in separate processes.  Checks that each run
exits 0, that its last line is a result with exactly the declared
metrics and units, that the output checks passed, and that the digest and
the per-layer counts repeat across the two processes.  Exits 1 on the
first failure.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
SCALE = 0.1


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
        )
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split("digest = ")[1] for line in lines
                  if "digest = " in line)
    return json.loads(lines[-1]), digest


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            first, digest1 = run(workload, trace)
            second, digest2 = run(workload, trace)
            for result in (first, second):
                assert set(result) == {"correct", "attempted", "failed",
                                       "metrics"}, result.keys()
                assert result["correct"] is True
                assert result["attempted"] >= 1 and result["failed"] == 0
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                assert units == expected[trace], (
                    f"{workload} trace={trace}: emitted {units}"
                )
            assert digest1 == digest2, f"{workload}: digest did not repeat"
            if trace:
                for name, unit in expected[1].items():
                    if unit != "s":
                        a = first["metrics"][name]["value"]
                        b = second["metrics"][name]["value"]
                        assert a == b, f"{workload}: {name} {a} != {b}"
            print(f"ok  {workload:16s} trace={trace}  digest={digest1}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"SMOKE FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
