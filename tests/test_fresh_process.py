"""The CLI in fresh processes, on a saved ``generic_graph(7, 70)``
snapshot: each call starts ``python -m cochange.cli`` anew, so it loads
the snapshot and builds every index as a user's ``cochange`` call does,
and nothing carries over from an earlier call or from this process."""

import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

import cochange
from cochange import save_snapshot

from synthgen import generic_graph

PAIRS = ("full,fp-no-merge", "full,fp-merge")
SRC = str(Path(cochange.__file__).resolve().parents[1])


def cli(*args, profile=None, **env) -> bytes:
    """``cochange ARGS`` in a new interpreter with ``env`` added: its
    standard output, after asserting that it exited 0.  With a
    ``profile`` path, cProfile writes the call's profile there (and
    the exit code reads 0 whatever the call returned)."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    profiled = ["-m", "cProfile", "-o", str(profile)] if profile else []
    proc = subprocess.run(
        [sys.executable, *profiled, "-m", "cochange.cli", *map(str, args)],
        capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    path = tmp_path_factory.mktemp("fresh") / "snapshot.jsonl"
    save_snapshot(generic_graph(7, 70), path)
    return path


@pytest.fixture(scope="module")
def evaluated(snapshot):
    """Each pair's ``evaluate`` output directory and printed text."""
    runs = {}
    for pair in PAIRS:
        out = snapshot.parent / pair
        runs[pair] = out, cli("evaluate", "--snapshot", snapshot, "--pair", pair,
                              "--out", out)
    return runs


def test_reruns_under_other_hash_seeds_write_the_same_records(snapshot):
    # with max_commits 5 the sequential collector cuts unions of slices,
    # and cases stay eligible (they need five changesets)
    records = []
    for seed in ("1", "2"):
        out = snapshot.parent / f"cut-{seed}"
        cli("evaluate", "--snapshot", snapshot, "--pair", "full,fp-no-merge",
            "--max-commits", "5", "--out", out, PYTHONHASHSEED=seed)
        records.append((out / "records.csv").read_bytes())
    assert records[0].count(b"\n") > 1  # more than the header
    assert records[0] == records[1]


def test_a_crlf_copy_validates_and_evaluates_as_the_lf_file(snapshot, evaluated):
    # README lets a \r precede each \n; the copy loads to the same graph
    crlf = snapshot.parent / "crlf.jsonl"
    crlf.write_bytes(snapshot.read_bytes().replace(b"\n", b"\r\n"))
    cli("snapshot-validate", crlf)
    out, profile = snapshot.parent / "crlf", snapshot.parent / "crlf.prof"
    cli("evaluate", "--snapshot", crlf, "--pair", "full,fp-no-merge", "--out", out,
        profile=profile)
    lf_out, _ = evaluated["full,fp-no-merge"]
    assert (out / "records.csv").read_bytes() == (lf_out / "records.csv").read_bytes()
    # the load dropped each \r first, so the column pass accepted the
    # file as it does the LF one, and the per-line pass never ran
    called = {name for _, _, name in pstats.Stats(str(profile)).stats}
    assert "_accept_records" in called and "_check_records" not in called


@pytest.mark.parametrize("pair", PAIRS)
def test_report_prints_exactly_what_evaluate_printed(evaluated, pair):
    out, printed = evaluated[pair]
    assert printed
    assert cli("report", "--summary", out / "summary.json") == printed
