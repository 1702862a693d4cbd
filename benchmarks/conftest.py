"""Benchmark harness: every bench regenerates one paper table/figure.

Each benchmark runs its experiment through pytest-benchmark (one round --
these are reproduction harnesses, not microbenchmarks), prints the
regenerated table for the log, and writes it to :data:`RESULTS_DIR`.
Performance-trajectory benches additionally write a machine-readable
``BENCH_<name>.json`` (same document shape as
``repro.experiments.runner --json``) so CI can track the numbers across
PRs without parsing tables.

A plain test run must not rewrite tracked files, so the tracked
archive (``benchmarks/results/`` plus the repo-root ``BENCH_*.json``
mirrors) is only updated by a *recording* run::

    REPRO_RECORD_BENCH=1 PYTHONPATH=src python -m pytest -q benchmarks/...

Every other run writes to the untracked, gitignored ``benchmarks/out/``.
"""

import json
import os
import pathlib

import pytest

#: Whether this run records into the tracked archive.
RECORDING = os.environ.get("REPRO_RECORD_BENCH") == "1"
#: Where tables and BENCH documents go: the tracked archive when
#: recording, else an untracked scratch directory.
RESULTS_DIR = pathlib.Path(__file__).parent / (
    "results" if RECORDING else "out")
#: The repo-root perf-trajectory collector scans for ``BENCH_*.json``
#: at the repository root, so a recorded benchmark document is mirrored
#: there as well as archived under ``benchmarks/results/``.
REPO_ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture
def record_result():
    """Persist a rendered experiment table and echo it to stdout."""
    def _record(result):
        RESULTS_DIR.mkdir(exist_ok=True)
        text = result.render()
        name = result.experiment_id.lower().replace(". ", "").replace(
            " ", "_")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)
        return result
    return _record


def write_bench_document(name, title, rows, notes=(), seconds=None):
    """THE single writer of ``BENCH_<name>.json`` records.

    Builds the document once in memory (runner ``--json`` shape:
    ``{"experiments": [{experiment_id, title, rows, notes, name,
    seconds}]}`` with native-Python row values) and serializes that
    one record via atomic replace to :data:`RESULTS_DIR` and, on a
    recording run, to the repo root as well (what the perf-trajectory
    collector scans).  Both copies come from the same bytes by
    construction, so they can never drift; no benchmark should ever
    write a ``BENCH_*.json`` through any other path.
    """
    def _native(value):
        return value.item() if hasattr(value, "item") else value
    document = {"experiments": [{
        "experiment_id": f"BENCH_{name}",
        "title": title,
        "rows": [{k: _native(v) for k, v in row.items()}
                 for row in rows],
        "notes": list(notes),
        "name": name,
        "seconds": (None if seconds is None
                    else round(float(seconds), 3)),
    }]}
    text = json.dumps(document, indent=2) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    targets = [path]
    if RECORDING:
        targets.append(REPO_ROOT / f"BENCH_{name}.json")
    for target in targets:
        tmp = target.with_suffix(".json.tmp")
        tmp.write_text(text)
        tmp.replace(target)
    return path


@pytest.fixture
def record_bench_json():
    """Persist a benchmark as ``BENCH_<name>.json`` (runner ``--json`` shape).

    Thin fixture wrapper over :func:`write_bench_document`, the single
    writer of benchmark documents.
    """
    return write_bench_document


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
