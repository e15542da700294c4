"""Smoke self-test of the benchmark at toy scale (simple n<=6, multi n<=4,
ten random graphs).  Runs in well under a minute:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json prints with its unit,
that layer counts repeat exactly between two traced runs, that
``solve-large`` makes no canonical form, that the warm sweep hits the cache
once per graph the cold sweep missed, that a planted bad cache line and a
mutated certificate each make the run fail, and that the benchmark refuses
to run without the sources next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "toy", "--seed", "1", "--seconds", "0.2", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect(condition: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def main() -> int:
    failures: list[str] = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        traced = []
        for trace, names in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"]), (1, SPEC["per_layer"])):
            code, out = bench("--workload", workload, "--trace", str(trace))
            got = result(out)
            if trace:
                traced.append(got["metrics"])
            expect(code == 0 and got["correct"] and got["failed"] == 0, f"{workload} trace={trace} passes its checks", failures)
            expect(
                {k: v["unit"] for k, v in got["metrics"].items()} == {m["name"]: m["unit"] for m in names},
                f"{workload} trace={trace} prints every metric with its unit",
                failures,
            )
            expect(f"{workload} failed_frac = 0 frac" in out, f"{workload} trace={trace} prints failed_frac", failures)
        counts = [{k: v["value"] for k, v in m.items() if v["unit"] != "s" and k != "trace.overhead_frac"} for m in traced]
        expect(counts[0] == counts[1], f"{workload} layer counts repeat exactly between traced runs", failures)
        if workload == "solve-large":
            expect(counts[0]["multigraph.canonical_form_calls"] == 0, f"{workload} bypasses enumeration", failures)
        else:
            # the warm commands hit the cache once per graph the cold ones missed
            hits, misses = counts[0]["atlas.cache_hits"], counts[0]["atlas.cache_misses"]
            expect(hits == misses > 0, f"{workload} warm hits equal cold misses ({hits}, {misses})", failures)

    for workload, fault in (("sweep", "bad-cache-line"), ("solve-large", "bad-certificate")):
        code, out = bench("--workload", workload, "--trace", "0", "--inject", fault)
        got = result(out)
        expect(code == 1 and not got["correct"] and got["failed"] > 0, f"{workload} with a {fault} fails", failures)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench("--workload", "sweep", "--trace", "0", cwd=bare)
    expect(code not in (0, 1) and not out.strip(), "a directory without the sources is refused", failures)
    shutil.rmtree(bare)

    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
