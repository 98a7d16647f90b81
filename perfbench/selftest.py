"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with
its unit in both modes, that a deliberately wrong reference makes the
correctness check fail the run, that the tail statistic picks the
highest percentile with ten samples beyond it, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seconds", "1", "--people", "20"]


def run(workload: str, trace: int, *extra: str, root: Path = ROOT) -> Tuple[int, List[str]]:
    completed = subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--trace",
            str(trace),
            *TINY,
            *extra,
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return completed.returncode, completed.stdout.splitlines()


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(workload, trace)
            expect(code == 0, f"{workload} trace {trace} exited {code}")
            result = json.loads(lines[-1])
            expect(result["correct"] is True, f"{workload} trace {trace} answers wrong")
            expect(result["attempted"] >= 1, f"{workload} attempted nothing")
            wanted = {metric["name"]: metric["unit"] for metric in spec[key]}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace {trace}: metrics {got} != {wanted}")
            for name, entry in result["metrics"].items():
                expect(
                    isinstance(entry["value"], (int, float)),
                    f"{workload} {name} is not a number",
                )
                expect(
                    any(line.lstrip().startswith(name) for line in lines[:-1]),
                    f"{workload} {name} not printed",
                )
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def check_wrong_reference() -> None:
    for workload in ("warm-read", "mixed-rw", "service-open"):
        code, lines = run(workload, 0, "--corrupt-reference")
        result = json.loads(lines[-1])
        expect(code != 0, f"{workload}: a wrong reference still exited 0")
        expect(result["correct"] is False, f"{workload}: wrong reference passed")
        print(f"ok  {workload}: wrong reference fails the run")


def check_tail() -> None:
    sys.path.insert(0, str(HERE))
    from run import tail

    samples = [float(value) for value in range(1, 101)]
    expect(tail(samples) == (90.0, 90.0), f"tail of 1..100 is {tail(samples)}")
    samples = [float(value) for value in range(1, 251)]
    expect(tail(samples) == (96.0, 240.0), f"tail of 1..250 is {tail(samples)}")
    expect(tail([1.0, 2.0, 3.0])[0] == 50.0, "tail below 20 samples is not the median")
    print("ok  tail percentile")


def check_needs_sources() -> None:
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = run("warm-read", 0, root=bare)
        expect(code != 0, "ran without the program's sources")
        expect(not lines or not lines[-1].startswith("{"), "printed a result without sources")
        print("ok  refuses to run without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_tail()
    check_needs_sources()
    check_metrics()
    check_wrong_reference()
    print("selftest passed")
