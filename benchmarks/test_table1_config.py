"""T1 — Table I: simulated machine and VIA hardware parameters.

Regenerates the configuration table the paper prints (machine rows plus
the VIA configuration rows of the design space).
"""

from conftest import save_artifact

from repro.eval import experiments


def test_table1_artifact(benchmark, results_dir):
    table = benchmark(experiments.table1)
    save_artifact(results_dir, table.name, table.text)
    assert "Table I" in table.text
    assert "16_2p" in table.text
    assert "DRAM" in table.text
