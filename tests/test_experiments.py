"""The paper artifacts that take no matrix collection equal their
checked-in ``benchmarks/results/`` files.

Tables I and II and Figures 12a and 12b have fixed inputs, so their one
definition in :mod:`repro.eval.experiments` must render each file byte
for byte, and the full report must print each file verbatim at any
collection scale.  The collection-driven figures are compared by CI's
figure job, which regenerates every file and diffs the tree.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval import experiments
from repro.eval.report_cli import build_report

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"
FIXED_INPUTS = (
    experiments.table1,
    experiments.table2,
    experiments.fig12a,
    experiments.fig12b,
)


@pytest.mark.parametrize("run", FIXED_INPUTS, ids=lambda run: run.__name__)
def test_artifact_equals_its_results_file(run):
    artifact = run()
    saved = (RESULTS / f"{artifact.name}.txt").read_text()
    assert artifact.text + "\n" == saved


def test_report_prints_every_fixed_input_artifact():
    report = build_report(matrices=3, max_n=256, include_dse=False,
                          log=lambda *_: None)
    for name in ("table1_config", "table2_area", "fig12a_histogram",
                 "fig12b_stencil"):
        assert (RESULTS / f"{name}.txt").read_text() in report, name


def test_workers_do_not_load_the_artifact_definitions():
    probe = (
        "import sys, repro.eval, repro.eval.runner, repro.serve.execution; "
        "print(sorted(m for m in sys.modules "
        "if m in ('repro.eval.experiments', 'repro.eval.report_cli')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"
