"""Self-test of the benchmark harness, at the tiny size.

Checks that every workload reports every end-to-end metric (and, traced,
every per-layer metric) with its unit and no failed operation, that a
table whose samples are scaled by 1.1 raises the failed-operation count,
and that the harness refuses to run without the package sources.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

Takes about a minute and a half on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOADS  # noqa: E402
from spans import PER_LAYER  # noqa: E402

DETAIL = {
    "solve-verify": {"solve_s": "s", "verify_s": "s", "rel_err.cp": "1", "rel_err.st": "1"},
    "mc-twopoint": {"mc_draws_per_s": "draws/s", "mc_time_to_1e-3_s": "s"},
    "apply-indicator": {"apply_draws_per_s": "draws/s", "apply_time_to_1e-3_s": "s"},
}


def bench(*args, script=HERE / "run.py", cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "1", "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def assert_metrics(metrics, names):
    assert set(metrics) == set(names)
    for name, unit in names.items():
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], (int, float)), name


def test_every_metric_reported():
    for workload in WORKLOADS:
        for trace, names in (("0", END_TO_END), ("1", PER_LAYER)):
            result, detail = result_of(bench("--workload", workload, "--trace", trace))
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            assert_metrics(result["metrics"], names)
            for name, unit in DETAIL[workload].items():
                assert detail[name]["unit"] == unit, name
            if trace == "0":
                assert all(result["metrics"][k]["value"] > 0 for k in END_TO_END)


def test_corrupted_table_fails():
    for workload in ("solve-verify", "mc-twopoint"):
        result, _ = result_of(
            bench("--workload", workload, "--trace", "0", "--corrupt-table", "1.1")
        )
        assert result["failed"] > 0 and not result["correct"], (workload, result)


def test_contract_lists_reported_metrics():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == PER_LAYER
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)


def test_refuses_without_sources():
    bare = ROOT / ".bench_out" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", "mc-twopoint", "--trace", "0",
                     script=bare / "bench" / "run.py", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_contract_lists_reported_metrics, test_every_metric_reported,
                 test_corrupted_table_fails, test_refuses_without_sources):
        test()
        print(f"ok {test.__name__}")
