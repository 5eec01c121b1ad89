"""Fast tier-1 smoke path through the parallel cached sweep runner.

This is the acceptance demo in miniature: a seeded sweep run twice must
show cache hits on the second run and records identical to a sequential
run, with the JSONL journal carrying per-unit timing and cache status for
every work unit.  It also exercises the ``python -m repro.eval``
CLI end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval import RunnerConfig, run_units, spmv_units, sweep_spmv
from repro.sim import SweepCounters
from repro.matrices import small_collection

pytestmark = pytest.mark.smoke

SRC = Path(__file__).parent.parent / "src"


@pytest.fixture(scope="module")
def demo_collection():
    return small_collection(4, seed=2021, max_n=160)


def test_demo_sweep_twice_hits_cache_and_matches_sequential(
    demo_collection, tmp_path
):
    units = spmv_units(demo_collection, formats=("csr", "csb"))
    config = RunnerConfig(
        workers=2,
        cache_dir=str(tmp_path / "cache"),
        journal_path=str(tmp_path / "journal.jsonl"),
    )

    cold = run_units(units, config)
    warm = run_units(units, config)
    sequential = sweep_spmv(demo_collection, formats=("csr", "csb"))

    # cache behavior: all misses cold, all hits warm
    assert cold.counters.cache_misses == len(units)
    assert warm.counters.cache_hits == len(units)
    assert warm.counters.units_ok == 0

    # identical records to the sequential path, both runs
    assert cold.records == sequential
    assert warm.records == sequential

    # the journal records timing + cache status for every work unit
    lines = [
        json.loads(l)
        for l in Path(config.journal_path).read_text().splitlines()
    ]
    assert len(lines) == 2 * len(units)
    for line in lines:
        assert line["kind"] == "spmv"
        assert line["wall_s"] >= 0
        assert line["cache"] in ("hit", "miss")
        assert line["status"] in ("ok", "cached")
        assert isinstance(line["worker"], int)
        assert "via_cycles" in line and "baseline_cycles" in line
    assert all(l["cache"] == "miss" for l in lines[: len(units)])
    assert all(l["cache"] == "hit" for l in lines[len(units):])


def test_progress_callback_fires_for_cached_units(demo_collection, tmp_path):
    units = spmv_units(demo_collection, formats=("csr",))
    config = RunnerConfig(cache_dir=str(tmp_path / "c"))
    run_units(units, config)
    seen = []
    run_units(units, config, progress=seen.append)
    assert seen == [u.spec.name for u in units]


def test_two_workers_preserve_order(demo_collection):
    units = spmv_units(demo_collection, formats=("csr",))
    result = run_units(units, RunnerConfig(workers=2))
    assert [r.name for r in result.records] == [u.spec.name for u in units]


def test_sweep_counters_merge_and_summary():
    a = SweepCounters(units_total=3, units_ok=2, units_failed=1,
                      cache_misses=3, wall_seconds=1.5, workers=2)
    b = SweepCounters(units_total=2, units_cached=2, cache_hits=2,
                      wall_seconds=0.5, workers=4)
    merged = a.merge(b)
    assert merged.units_total == 5
    assert merged.units_ok == 2 and merged.units_cached == 2
    assert merged.cache_hits == 2 and merged.cache_misses == 3
    assert merged.wall_seconds == pytest.approx(2.0)
    assert merged.workers == 4
    text = merged.summary()
    assert "5 units" in text and "2 cached" in text and "1 failed" in text
    assert set(a.as_dict()) == {f for f in SweepCounters.__dataclass_fields__}


def test_cli_demo_sweep_reports_cache_hits(tmp_path):
    """The documented two-run demo: second invocation is served hot."""
    cmd = [
        sys.executable, "-m", "repro.eval",
        "--kernel", "spmv", "--count", "2", "--max-n", "128",
        "--cache-dir", str(tmp_path / "cache"),
        "--journal", str(tmp_path / "run.jsonl"),
    ]
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    first = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=300)
    assert first.returncode == 0, first.stderr[-2000:]
    assert "2 computed, 0 cached" in first.stdout
    assert "geomean speedup" in first.stdout

    second = subprocess.run(cmd, capture_output=True, text=True, env=env,
                            timeout=300)
    assert second.returncode == 0, second.stderr[-2000:]
    assert "0 computed, 2 cached" in second.stdout
    assert "cache 2 hit / 0 miss" in second.stdout

    lines = (tmp_path / "run.jsonl").read_text().splitlines()
    assert len(lines) == 4  # two runs x two units

    third = subprocess.run(
        cmd + ["--invalidate-cache", "--no-cache"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert third.returncode == 0, third.stderr[-2000:]
    assert "invalidated 2" in third.stdout
    assert "2 computed" in third.stdout
