"""Shared fixtures for the per-artifact benchmark modules.

Scaling knobs (environment variables):

* ``REPRO_BENCH_MATRICES`` — matrices in the evaluation collection
  (default 24; the paper uses 1,024); the SpMM collection takes half as
  many, and at least 6.
* ``REPRO_BENCH_MAXN`` — largest matrix dimension (default 2048; the paper
  caps at 20,000).
* ``REPRO_FULL_COLLECTION=1`` — use the full 1,024-matrix paper-envelope
  collection (hours of runtime in pure Python).

Sweep-runner knobs (see :mod:`repro.eval.runner`):

* ``REPRO_SWEEP_WORKERS`` — process-pool size for the sweeps (default 1);
* ``REPRO_SWEEP_CACHE`` — result-cache directory (default
  ``benchmarks/.sweep-cache``; entries are keyed by matrix spec, kernel,
  hardware configs and a code fingerprint, so edits invalidate
  automatically);
* ``REPRO_SWEEP_NO_CACHE=1`` — recompute everything;
* ``REPRO_SWEEP_JOURNAL`` — JSONL run journal (default
  ``benchmarks/results/sweep_journal.jsonl``, truncated per session).

Each artifact module runs its artifact's one definition in
:mod:`repro.eval.experiments`, which the report CLI also runs, writes the
text into ``benchmarks/results/`` for EXPERIMENTS.md to quote, and checks
its values.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval import RunnerConfig, experiments
from repro.matrices import MatrixCollection, paper_collection

RESULTS_DIR = Path(__file__).parent / "results"
SWEEP_CACHE_DIR = Path(__file__).parent / ".sweep-cache"
SWEEP_JOURNAL = RESULTS_DIR / "sweep_journal.jsonl"


def bench_runner() -> RunnerConfig:
    """Runner policy for figure regeneration: cached by default."""
    RESULTS_DIR.mkdir(exist_ok=True)
    journal = os.environ.get("REPRO_SWEEP_JOURNAL", str(SWEEP_JOURNAL))
    return RunnerConfig.from_env(
        cache_dir=os.environ.get("REPRO_SWEEP_CACHE", str(SWEEP_CACHE_DIR)),
        journal_path=journal,
    )


@pytest.fixture(scope="session")
def matrices() -> int:
    return int(os.environ.get("REPRO_BENCH_MATRICES", experiments.MATRICES))


@pytest.fixture(scope="session")
def collection(matrices) -> MatrixCollection:
    if os.environ.get("REPRO_FULL_COLLECTION") == "1":
        return paper_collection()
    max_n = int(os.environ.get("REPRO_BENCH_MAXN", experiments.MAX_N))
    return experiments.evaluation_collection(matrices, max_n=max_n)


@pytest.fixture(scope="session")
def runner() -> RunnerConfig:
    config = bench_runner()
    if config.journal_path and Path(config.journal_path).exists():
        Path(config.journal_path).unlink()  # fresh journal per session
    return config


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_artifact(results_dir: Path, name: str, text: str) -> None:
    """Write a rendered artifact and echo it to the terminal."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
