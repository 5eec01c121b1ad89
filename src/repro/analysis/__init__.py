"""Project-specific static analysis for the VIA reproduction.

The repo's correctness story rests on three hand-maintained invariants
that no general-purpose linter checks:

* **cache-key hygiene** — every field of a configuration dataclass that
  feeds a content-addressed key builder must be consumed by the key or
  explicitly declared ``KEY_EXEMPT`` with a justification
  (:mod:`repro.analysis.keys`);
* **determinism** — code that runs inside sweep workers or the replay
  path must not read clocks, unseeded RNGs, process-unique ids, or
  unordered set iteration into ordered output
  (:mod:`repro.analysis.determinism`);
* **lock discipline** — :mod:`repro.serve` mutates shared state from
  executor threads; attributes crossing that boundary must be touched
  under the instance lock (:mod:`repro.analysis.locks`);
* **hot-path narration** — the record path buffers ops as rows of the
  columnar builder; building ``ColumnarOps``/``FlushBatch`` blocks in
  ``Core``/kernel loops would silently restore the per-object cost
  (:mod:`repro.analysis.hotpath`);
* **resource lifecycle** — the serve pool and eval supervisor must
  close/join/terminate every pipe, process, socket, and temp file on
  every CFG path out of a function, exception edges included
  (:mod:`repro.analysis.lifecycle`);
* **error contract** — every resolvable raise in ``repro.serve`` must
  carry an exception type ``error_payload`` maps to a structured wire
  error, and broad handlers must not swallow silently
  (:mod:`repro.analysis.errorflow`);
* **dtype hygiene** — the columnar pricing kernels must keep cycle
  arithmetic integral; ``/``, ``np.mean``, and float literals that
  silently promote int arrays break the bit-identity contract
  (:mod:`repro.analysis.dtypes`).

The lifecycle and dtype families are flow-sensitive: they run fixpoint
dataflow (:mod:`repro.analysis.dataflow`) over per-function CFGs with
explicit exception edges (:mod:`repro.analysis.cfg`).

:mod:`repro.analysis.core` provides the rule framework (findings,
suppressions, baselines, JSON/human output); ``python -m repro.analysis``
is the CLI gate that CI runs next to ruff.
"""

from repro.analysis.core import (
    AnalysisReport,
    Finding,
    Project,
    RULES,
    run_analysis,
)

# importing the rule modules registers their family checkers
from repro.analysis import (  # noqa: F401  (registration)
    determinism,
    dtypes,
    errorflow,
    hotpath,
    keys,
    lifecycle,
    locks,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "Project",
    "RULES",
    "run_analysis",
]
