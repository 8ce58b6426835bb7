"""Self-test of the benchmark at tiny sizes (about a minute):

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names the benchmark's workloads, that every
workload prints every metric with its unit, untraced and
traced, that tracing leaves the outputs bit-for-bit unchanged, and that the
benchmark exits non-zero without a result line when the package sources
are missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7  # no recorded digests at tiny sizes: traced and untraced must agree

sys.path.insert(0, str(BENCH_DIR))
from metrics import END_TO_END, PER_LAYER, REPORT_ONLY, SPEC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)


def check_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def check_workload(name):
    digests = {}
    for trace, table in (("0", END_TO_END), ("1", PER_LAYER)):
        done = run(ROOT, "--workload", name, "--tiny", "--seed", str(SEED),
                   "--seconds", "0.5", "--trace", trace)
        assert done.returncode == 0, f"{name} trace={trace}:\n{done.stderr}"
        *report, last = done.stdout.strip().splitlines()
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        units = dict(table)
        assert {m: v["unit"] for m, v in result["metrics"].items()} == units
        if trace == "0":
            units.update(REPORT_ONLY)
            if name == "exact_fit":
                del units["node_steps_per_s"]  # no Monte Carlo in this workload
        printed = {line.split()[0]: line.split()[2] for line in report if len(line.split()) > 2}
        for metric, unit in units.items():
            assert printed.get(metric) == unit, f"{name}: {metric} [{unit}] not printed"
        record = BENCH_DIR / "_out" / name / f"record-seed{SEED}-trace{trace}.json"
        record = json.loads(record.read_text())
        if trace == "1":
            assert {op[2] for op in record["operations"]} == {False, True}
        digests[trace] = record["digests"]
    assert digests["0"] == digests["1"], f"{name}: tracing changed the outputs"
    print(f"selftest: {name} ok")


def check_without_sources():
    (BENCH_DIR / "_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        done = run(tmp, "--workload", "mc_ba100", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    print("selftest: refuses to run without sources ok")


def main():
    check_benchmark_json()
    for name in WORKLOADS:
        check_workload(name)
    check_without_sources()
    print("selftest: all ok")


if __name__ == "__main__":
    main()
