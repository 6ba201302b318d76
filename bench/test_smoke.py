"""Smoke test of the benchmark on tiny corpora.

    python3 -m pytest bench/test_smoke.py

Checks that every workload runs, prints every metric named in
BENCHMARK.json with its unit, produces the same outputs traced and
untraced, and leaves no tracing wrapper behind.  It asserts no timings.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORTED_ONLY = ("ingest_s", "query_p50_ms", "query_p95_ms", "failed_frac")
TINY = 0.1


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name):
    out = run.run_workload(name, seed=3, seconds=0, trace=False, scale=TINY)
    result = out["result"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert result["correct"], out["report"]
    assert result["attempted"] >= 1
    report = "\n".join(out["report"])
    for metric in (*_units("end_to_end"), *REPORTED_ONLY):
        assert metric in report


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_pass_changes_no_output_and_unwraps(name):
    originals = tracing.public_functions()
    out = run.run_workload(name, seed=3, seconds=0, trace=True, scale=TINY)
    assert out["traced_digests"]
    assert all(d == out["digests"][0] for d in out["digests"])
    assert tracing.installed_wrappers() == []
    assert tracing.public_functions() == originals
    result = out["result"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert result["correct"], out["report"]


def test_checks_stay_out_of_the_traced_pass():
    # The path and oracle checks load the snapshot and walk the history
    # themselves; none of that may reach the per-layer figures.
    out = run.run_workload("repo-session", seed=3, seconds=0, trace=True,
                           scale=TINY)
    metrics = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    queries = metrics["recommend.recommend.calls"]
    assert queries >= 1
    assert metrics["history.strategy_walk.calls"] == queries
    # snapshot-validate and every recommend load the snapshot once
    assert metrics["ingest.load_snapshot.calls"] == queries + 1


def test_repo_session_counts_awkward_paths_as_failed():
    # The generated names with '"', tab and backslash come back C-quoted
    # from ingest; until that is fixed they must show up as failures.
    out = run.run_workload("repo-session", seed=3, seconds=0, trace=False,
                           scale=TINY)
    assert out["result"]["failed"] > 0
    assert "C-quoting" in "\n".join(out["report"])


def test_operations_are_counted_once_per_run():
    # A traced run makes at least two passes, an untraced one with no
    # time makes one; both check the same operations, so the counts agree.
    one = run.run_workload("repo-session", seed=3, seconds=0, trace=False,
                           scale=TINY)["result"]
    two = run.run_workload("repo-session", seed=3, seconds=0, trace=True,
                           scale=TINY)["result"]
    assert (one["attempted"], one["failed"]) == (two["attempted"], two["failed"])
