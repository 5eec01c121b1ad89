"""Replay-speedup benchmark for the columnar pricing engine.

Measures the headline claim of the columnar engine: re-pricing the
Fig. 9 DSE's recorded op streams through :mod:`repro.sim.columnar` is an
order of magnitude faster than the scalar per-op walk it replaced, while
staying bit-identical (the differential and property suites pin the
identity; this script pins the speed and re-checks identity on the way).
The scalar side is the test oracle, :mod:`tests.scalar_oracle` — the
only place the per-op walk still exists.

The workload is the real Fig. 9 shape: record the DSE collection once
into an artifact store, then replay every recording under every port
variant of its capacity group — exactly the work the record/replay sweep
and the serving layer's replay path perform.  Two phases per pricer:

* **warm** — recordings already resident (the steady state behind the
  store's load memo): pure re-pricing arithmetic.  The oracle walks every
  op in Python; the columnar engine reduces whole columns.  This is the
  headline number.
* **cold** — each iteration reloads every artifact from disk first, so
  the oracle also pays per-op materialization of the columnar columns
  while the columnar engine prices them directly.  Dominated by shared
  artifact loading, reported for honesty.

Run::

    PYTHONPATH=src python benchmarks/bench_columnar.py --check

``--check`` exits non-zero unless the warm speedup clears 5x and the two
engines priced every replay bit-identically; ``--smoke`` shrinks the
collection for CI.  The full-size run is checked in as
``benchmarks/results/BENCH_columnar.json`` and summarized in
EXPERIMENTS.md.

``--cold`` switches to the batched-narration benchmark for the *record*
path (fresh simulations, nothing cached).  Two measurements:

* **cold end-to-end** — the full Fig. 9 DSE in record+replay mode
  (functional kernel execution, narration, pricing, artifact IO,
  replays), once priced by the oracle (``scalar``: every flush op by op,
  every replay a per-op walk) and once by the columnar engine
  (``batched``), with the DSE cycle tables compared for bit-identity.
  Amdahl applies here: functional simulation (the VIA engine's CAM/SSPM
  bookkeeping), the order-dependent cache walk, and artifact IO are
  identical in both modes and dominate wall-clock, so this number hovers
  near 1x — it is reported and gated as a *no-regression* bound, not a
  speedup claim.
* **record-path narration** — the layer batching actually replaces:
  narrating a Fig. 9-shaped op stream (VIA-op dominated, mixed with
  vector/scalar compute, branches, and stalls) through a live
  ``RecorderBackend`` and pricing it to a finalized result.  The oracle
  pays one ``Op`` dataclass and one per-op pricing call per event; the
  columnar engine prices whole flushes of ``ColumnarBuilder`` rows.  This
  is the gated >=3x number, and the finalized cycle totals must match
  bit-for-bit.

With ``--cold``, results land in ``BENCH_columnar_cold.json`` and
``--check`` gates narration speedup >= 3x, bit-identity of both
measurements, and no cold end-to-end regression.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # the scalar side: tests/scalar_oracle.py

import numpy as np  # noqa: E402

from repro.eval.dse import run_dse  # noqa: E402
from repro.eval.recordings import RecordingStore  # noqa: E402
from repro.matrices.collection import small_collection  # noqa: E402
from repro.sim.backends import replay_recording  # noqa: E402
from repro.sim.ops import load_recordings  # noqa: E402
from repro.via.config import dse_configs  # noqa: E402

from tests import scalar_oracle  # noqa: E402

DEFAULT_JSON = REPO / "benchmarks" / "results" / "BENCH_columnar.json"
DEFAULT_COLD_JSON = REPO / "benchmarks" / "results" / "BENCH_columnar_cold.json"


def _load_all(paths):
    recs = []
    for path in paths:
        loaded, _ = load_recordings(path)
        recs.extend(loaded.values())
    return recs


def _replay_all(recordings, engine, port_variants):
    """Replay every recording under every port variant of its group."""
    replay = scalar_oracle.replay if engine == "scalar" else replay_recording
    results = []
    for rec in recordings:
        if rec.via_config is not None:
            cfgs = port_variants[rec.via_config.sram_kb]
        else:
            cfgs = [None]  # baseline recordings have no VIA side
        for cfg in cfgs:
            results.append(replay(rec, via_config=cfg))
    return results


def _fingerprint(results):
    """Bitwise digest of every replay's cycles/energy, for identity."""
    bits = b"".join(
        np.float64(r.cycles).tobytes() + np.float64(r.energy_pj).tobytes()
        for r in results
    )
    return bits


def bench_engine(engine, paths, port_variants, repeats):
    # warm: load once, replay once to populate lazy state, then time
    recordings = _load_all(paths)
    results = _replay_all(recordings, engine, port_variants)
    t0 = time.perf_counter()
    for _ in range(repeats):
        results = _replay_all(recordings, engine, port_variants)
    warm_s = (time.perf_counter() - t0) / repeats
    # cold: a fresh load every iteration (fresh Recording objects, so the
    # oracle re-materializes per-op dataclasses each time)
    t0 = time.perf_counter()
    for _ in range(max(1, repeats // 2)):
        cold_results = _replay_all(_load_all(paths), engine, port_variants)
    cold_s = (time.perf_counter() - t0) / max(1, repeats // 2)
    assert _fingerprint(cold_results) == _fingerprint(results)
    return {
        "warm_s": round(warm_s, 6),
        "cold_s": round(cold_s, 6),
        "replays": len(results),
    }, _fingerprint(results)


def _narrate_fig9_mix(core, n_ops):
    """A Fig. 9-shaped narration stream, replayed deterministically.

    The recorded DSE stream is ~89% VIA ops (one ``record_via_op`` per
    executed VIA instruction) around vector/scalar compute, branches, and
    dependency stalls; this mix keeps the VIA share at a conservative 50%
    so the measured speedup under-states, never games, the real workload.
    Memory ops are deliberately absent: their cost is the order-dependent
    cache walk, which both narration modes share verbatim.
    """
    for _ in range(n_ops // 10):
        core.record_via_op(sspm_elements=16, cam_searches=16, port_passes=2)
        core.record_via_op(sspm_elements=8, cam_searches=8, port_passes=1)
        core.record_via_op(sspm_elements=16, cam_searches=0, port_passes=2)
        core.record_via_op(sspm_elements=4, cam_searches=4, port_passes=1)
        core.vector_op("alu", 16)
        core.vector_op("fma", 8)
        core.scalar_ops(4)
        core.branches(8, 0.05)
        core.record_via_op(sspm_elements=16, cam_searches=16, port_passes=2)
        core.dependency_stall(3.0)


def _pricing(mode):
    """``scalar``: the oracle prices everything; ``batched``: the engine."""
    if mode == "scalar":
        return scalar_oracle.scalar_pricing()
    return contextlib.nullcontext()


def bench_narration(mode, n_ops, repeats):
    """Record-path narration+pricing throughput under one pricer."""
    from repro.sim.backends import RecorderBackend
    from repro.sim.config import DEFAULT_MACHINE
    from repro.sim.core import Core
    from repro.via.config import DEFAULT_VIA
    from repro.via.engine import ViaDevice

    with _pricing(mode):
        best = float("inf")
        result = None
        for _ in range(repeats):
            core = Core(
                DEFAULT_MACHINE,
                via=ViaDevice(DEFAULT_VIA),
                backend=RecorderBackend(),
            )
            t0 = time.perf_counter()
            _narrate_fig9_mix(core, n_ops)
            result = core.finalize("bench-narration")
            best = min(best, time.perf_counter() - t0)
    digest = (
        np.float64(result.cycles).tobytes()
        + np.float64(result.energy_pj).tobytes()
    )
    return {"best_s": round(best, 6), "ops_per_s": round(n_ops / best)}, digest


def bench_cold_dse(mode, collection, repeats):
    """Full cold record+replay DSE under one pricer."""
    with _pricing(mode):
        best = float("inf")
        result = None
        for _ in range(repeats):
            with tempfile.TemporaryDirectory(prefix="bench-cold-") as td:
                t0 = time.perf_counter()
                result = run_dse(collection, record_dir=td)
                best = min(best, time.perf_counter() - t0)
    digest = json.dumps(result.cycles, sort_keys=True)
    return {"best_s": round(best, 6)}, digest


def run_cold(args) -> int:
    from repro.sim.core import narration_flush_count

    collection = small_collection(args.matrices, seed=9, max_n=args.max_n)
    n_ops = 40_000 if args.smoke else 200_000

    print(f"cold end-to-end: Fig. 9 DSE record+replay "
          f"({args.matrices} matrices, max_n={args.max_n}) ...")
    cold = {}
    cold_prints = {}
    flushes_before = narration_flush_count()
    for mode in ("scalar", "batched"):
        cold[mode], cold_prints[mode] = bench_cold_dse(
            mode, collection, max(1, args.repeats // 2)
        )
        print(f"  {mode:<8} {cold[mode]['best_s']*1e3:8.1f}ms")
    cold_flushes = narration_flush_count() - flushes_before

    print(f"\nrecord-path narration: {n_ops} ops, Fig. 9 mix ...")
    narr = {}
    narr_prints = {}
    for mode in ("scalar", "batched"):
        narr[mode], narr_prints[mode] = bench_narration(
            mode, n_ops, args.repeats
        )
        print(f"  {mode:<8} {narr[mode]['best_s']*1e3:8.1f}ms "
              f"({narr[mode]['ops_per_s']/1e3:.0f} kops/s)")

    cold_speedup = cold["scalar"]["best_s"] / cold["batched"]["best_s"]
    narration_speedup = narr["scalar"]["best_s"] / narr["batched"]["best_s"]
    cold_identical = cold_prints["scalar"] == cold_prints["batched"]
    narr_identical = narr_prints["scalar"] == narr_prints["batched"]
    print(f"\ncold end-to-end speedup (batched over scalar): "
          f"{cold_speedup:.2f}x  (shared functional sim + cache walk + IO)")
    print(f"record-path narration speedup: {narration_speedup:.2f}x")
    print(f"bit-identical (DSE tables / narration totals): "
          f"{cold_identical} / {narr_identical}")

    summary = {
        "workload": {
            "matrices": args.matrices,
            "max_n": args.max_n,
            "narration_ops": n_ops,
            "repeats": args.repeats,
            "batched_flushes": cold_flushes,
        },
        "cold_end_to_end": cold,
        "narration": narr,
        "cold_speedup": round(cold_speedup, 2),
        "narration_speedup": round(narration_speedup, 2),
        "bit_identical": cold_identical and narr_identical,
    }
    out = Path(args.json) if args.json else DEFAULT_COLD_JSON
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nwrote {out}")

    if args.check:
        failures = []
        if not cold_identical:
            failures.append("batched narration changed the DSE cycle tables")
        if not narr_identical:
            failures.append("narration modes disagreed on priced totals")
        if narration_speedup < 3.0:
            failures.append(
                f"narration speedup {narration_speedup:.2f}x below the 3x gate"
            )
        if cold_speedup < 0.8:
            failures.append(
                f"cold end-to-end regressed: {cold_speedup:.2f}x (< 0.8x)"
            )
        if failures:
            print("\nCHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("\nCHECK PASSED: bit-identical, narration >= 3x, "
              "no cold regression")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--matrices", type=int, default=6,
                        help="collection size (default 6)")
    parser.add_argument("--max-n", type=int, default=512,
                        help="matrix size cap (default 512)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per phase (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized workload (3 matrices, max_n 160)")
    parser.add_argument("--cold", action="store_true",
                        help="benchmark the record path: cold end-to-end "
                             "DSE plus narration throughput, scalar oracle "
                             "vs batched columnar pricing")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless warm speedup >= 5x and "
                             "both engines price identically (with --cold: "
                             "narration >= 3x, bit-identical, no cold "
                             "end-to-end regression)")
    parser.add_argument("--json", metavar="PATH",
                        help=f"summary JSON path (default {DEFAULT_JSON}, "
                             f"with --cold {DEFAULT_COLD_JSON})")
    args = parser.parse_args(argv)
    if args.smoke:
        args.matrices, args.max_n = 3, 160
    if args.cold:
        return run_cold(args)

    collection = small_collection(args.matrices, seed=9, max_n=args.max_n)
    port_variants = {}
    for cfg in dse_configs():
        port_variants.setdefault(cfg.sram_kb, []).append(cfg)

    with tempfile.TemporaryDirectory(prefix="bench-columnar-") as td:
        print(f"recording the Fig. 9 DSE ({args.matrices} matrices, "
              f"max_n={args.max_n}) ...")
        run_dse(collection, record_dir=td)
        store = RecordingStore(td)
        paths = [store._path(key) for key in store.keys()]
        total_ops = sum(len(r.columnar()) for r in _load_all(paths))
        print(f"store: {len(paths)} artifacts, {total_ops} recorded ops\n")

        rows = {}
        prints = {}
        for engine in ("scalar", "columnar"):
            rows[engine], prints[engine] = bench_engine(
                engine, paths, port_variants, args.repeats
            )
            r = rows[engine]
            print(f"  {engine:<9} warm={r['warm_s']*1e3:8.2f}ms "
                  f"cold={r['cold_s']*1e3:8.2f}ms "
                  f"({r['replays']} replays)")

    identical = prints["scalar"] == prints["columnar"]
    warm_speedup = rows["scalar"]["warm_s"] / rows["columnar"]["warm_s"]
    cold_speedup = rows["scalar"]["cold_s"] / rows["columnar"]["cold_s"]
    print(f"\nwarm replay speedup (columnar over scalar): "
          f"{warm_speedup:.1f}x")
    print(f"cold replay speedup (incl. shared artifact IO): "
          f"{cold_speedup:.1f}x")
    print(f"engines bit-identical across all replays: {identical}")

    summary = {
        "workload": {
            "matrices": args.matrices,
            "max_n": args.max_n,
            "artifacts": len(paths),
            "recorded_ops": total_ops,
            "repeats": args.repeats,
        },
        "engines": rows,
        "warm_speedup": round(warm_speedup, 2),
        "cold_speedup": round(cold_speedup, 2),
        "bit_identical": identical,
    }
    out = Path(args.json) if args.json else DEFAULT_JSON
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nwrote {out}")

    if args.check:
        failures = []
        if not identical:
            failures.append("engines disagreed on at least one replay")
        if warm_speedup < 5.0:
            failures.append(
                f"warm speedup {warm_speedup:.1f}x below the 5x gate"
            )
        if failures:
            print("\nCHECK FAILED: " + "; ".join(failures), file=sys.stderr)
            return 1
        print("\nCHECK PASSED: bit-identical and warm speedup >= 5x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
