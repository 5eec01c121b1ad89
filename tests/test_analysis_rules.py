"""The analyzer analyzed: seeded-violation fixtures for every rule id.

Each rule gets at least one true-positive fixture (the violation is
reported) and one clean fixture (no false positive), written to a tmp
tree and scanned through the same :class:`~repro.analysis.core.Project`
machinery the CLI uses.  Family checkers take their scopes as
parameters, so fixtures live under neutral prefixes instead of
pretending to be ``repro.sim``.  Suppression comments, baseline files,
selection, and the CLI's exit-code contract are covered at the end.
"""

import json
import sys
import textwrap

import pytest

from repro.analysis.cli import main as cli_main
from repro.analysis.core import (
    FAMILY_CHECKERS,
    RULES,
    Project,
    load_baseline,
    resolve_selection,
    run_analysis,
    save_baseline,
)
from repro.analysis.determinism import check_determinism
from repro.analysis.dtypes import check_dtypes
from repro.analysis.errorflow import check_errorflow
from repro.analysis.hotpath import check_hotpath
from repro.analysis.keys import KeyBinding, assert_key_hygiene, check_keys
from repro.analysis.lifecycle import check_lifecycle
from repro.analysis.locks import check_locks
from repro.errors import ConfigError


def make_project(tmp_path, files):
    """Write ``{rel: source}`` fixtures and return a Project rooted there."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return Project([tmp_path], root=tmp_path)


def rules_of(findings):
    return sorted(f.rule for f in findings)


# ----------------------------------------------------------------------
# family: keys (VIA100-VIA103)
# ----------------------------------------------------------------------
DC_TWO_FIELDS = """
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class Cfg:
        alpha: int
        beta: int
"""


def binding(**kw):
    base = dict(
        dataclass_module="dcmod",
        dataclass_name="Cfg",
        key_module="keymod",
        key_qualname="make_key",
        root="cfg",
    )
    base.update(kw)
    return (KeyBinding(**base),)


class TestKeyRules:
    def test_via101_unconsumed_field(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "dcmod.py": DC_TWO_FIELDS,
                "keymod.py": """
                    def make_key(cfg):
                        return {"alpha": cfg.alpha}
                """,
            },
        )
        findings = check_keys(project, bindings=binding())
        assert rules_of(findings) == ["VIA101"]
        assert "Cfg.beta" in findings[0].message
        assert findings[0].path == "dcmod.py"
        assert findings[0].severity == "error"

    def test_no_false_positive_when_all_fields_consumed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "dcmod.py": DC_TWO_FIELDS,
                "keymod.py": """
                    def make_key(cfg):
                        return (cfg.alpha, cfg.beta)
                """,
            },
        )
        assert check_keys(project, bindings=binding()) == []

    def test_asdict_consumes_everything(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "dcmod.py": DC_TWO_FIELDS,
                "keymod.py": """
                    from dataclasses import asdict


                    def make_key(cfg):
                        return asdict(cfg)
                """,
            },
        )
        assert check_keys(project, bindings=binding()) == []

    def test_exemption_silences_via101(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "dcmod.py": DC_TWO_FIELDS,
                "keymod.py": """
                    KEY_EXEMPT = {"Cfg": {"beta": "pricing-only knob"}}


                    def make_key(cfg):
                        return (cfg.alpha,)
                """,
            },
        )
        assert check_keys(project, bindings=binding()) == []

    def test_via102_stale_exemption(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "dcmod.py": DC_TWO_FIELDS,
                "keymod.py": """
                    KEY_EXEMPT = {"Cfg": {"gamma": "no such field"}}


                    def make_key(cfg):
                        return (cfg.alpha, cfg.beta)
                """,
            },
        )
        findings = check_keys(project, bindings=binding())
        assert rules_of(findings) == ["VIA102"]
        assert "Cfg.gamma" in findings[0].message
        assert findings[0].path == "keymod.py"

    def test_via103_exempt_but_consumed_is_a_warning(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "dcmod.py": DC_TWO_FIELDS,
                "keymod.py": """
                    KEY_EXEMPT = {"Cfg": {"alpha": "stale justification"}}


                    def make_key(cfg):
                        return (cfg.alpha, cfg.beta)
                """,
            },
        )
        findings = check_keys(project, bindings=binding())
        assert rules_of(findings) == ["VIA103"]
        assert findings[0].severity == "warning"

    def test_via100_dataclass_renamed_away(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "dcmod.py": DC_TWO_FIELDS,
                "keymod.py": "def make_key(cfg):\n    return (cfg.alpha,)\n",
            },
        )
        findings = check_keys(
            project, bindings=binding(dataclass_name="Renamed")
        )
        assert rules_of(findings) == ["VIA100"]

    def test_via100_key_builder_renamed_away(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "dcmod.py": DC_TWO_FIELDS,
                "keymod.py": "def other_name(cfg):\n    return (cfg.alpha,)\n",
            },
        )
        findings = check_keys(project, bindings=binding())
        assert rules_of(findings) == ["VIA100"]

    def test_attr_path_scopes_consumption_to_the_sub_object(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "dcmod.py": """
                    from dataclasses import dataclass


                    @dataclass(frozen=True)
                    class Sub:
                        x: int
                        y: int
                """,
                "keymod.py": """
                    def make_key(cfg):
                        return (cfg.sub.x,)
                """,
            },
        )
        findings = check_keys(
            project,
            bindings=binding(dataclass_name="Sub", attr_path=("sub",)),
        )
        assert rules_of(findings) == ["VIA101"]
        assert "Sub.y" in findings[0].message

    def test_method_qualname_binding(self, tmp_path):
        # the JobSpec.batch_key shape: the dataclass keys itself
        project = make_project(
            tmp_path,
            {
                "dcmod.py": """
                    from dataclasses import dataclass


                    @dataclass
                    class Cfg:
                        alpha: int
                        beta: int

                        def key(self):
                            return (self.alpha,)
                """,
            },
        )
        findings = check_keys(
            project,
            bindings=binding(
                key_module="dcmod", key_qualname="Cfg.key", root="self"
            ),
        )
        assert rules_of(findings) == ["VIA101"]
        assert "Cfg.beta" in findings[0].message

    def test_binding_outside_the_file_set_is_skipped(self, tmp_path):
        project = make_project(tmp_path, {"unrelated.py": "VALUE = 1\n"})
        assert check_keys(project, bindings=binding()) == []


class TestRuntimeKeyHygiene:
    def _install(self, tmp_path, monkeypatch, modules):
        monkeypatch.syspath_prepend(str(tmp_path))
        for name, source in modules.items():
            (tmp_path / f"{name}.py").write_text(
                textwrap.dedent(source), encoding="utf-8"
            )
            sys.modules.pop(name, None)
        import importlib

        importlib.invalidate_caches()

    def test_live_drift_fails_fast(self, tmp_path, monkeypatch):
        self._install(
            tmp_path,
            monkeypatch,
            {
                "via_hyg_bad_dc": DC_TWO_FIELDS,
                "via_hyg_bad_key": """
                    def make_key(cfg):
                        return (cfg.alpha,)
                """,
            },
        )
        bindings = binding(
            dataclass_module="via_hyg_bad_dc", key_module="via_hyg_bad_key"
        )
        try:
            with pytest.raises(ConfigError, match="VIA101.*Cfg\\.beta"):
                assert_key_hygiene(bindings)
        finally:
            sys.modules.pop("via_hyg_bad_dc", None)
            sys.modules.pop("via_hyg_bad_key", None)

    def test_live_clean_passes(self, tmp_path, monkeypatch):
        self._install(
            tmp_path,
            monkeypatch,
            {
                "via_hyg_ok_dc": DC_TWO_FIELDS,
                "via_hyg_ok_key": """
                    KEY_EXEMPT = {"Cfg": {"beta": "pricing-only knob"}}


                    def make_key(cfg):
                        return (cfg.alpha,)
                """,
            },
        )
        bindings = binding(
            dataclass_module="via_hyg_ok_dc", key_module="via_hyg_ok_key"
        )
        try:
            assert_key_hygiene(bindings)  # must not raise
        finally:
            sys.modules.pop("via_hyg_ok_dc", None)
            sys.modules.pop("via_hyg_ok_key", None)


# ----------------------------------------------------------------------
# family: determinism (VIA201-VIA205)
# ----------------------------------------------------------------------
PURE = ("pure/",)
WORKER = ("worker/",)


def determinism(project):
    return check_determinism(
        project, pure_prefixes=PURE, worker_prefixes=WORKER
    )


class TestClockRule:
    def test_via201_host_clock_in_pure_scope(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pure/mod.py": """
                    import time


                    def f():
                        return time.perf_counter()
                """
            },
        )
        findings = determinism(project)
        assert rules_of(findings) == ["VIA201"]
        assert "host time" in findings[0].message

    def test_via201_wall_clock_in_worker_scope(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "worker/mod.py": """
                    import time
                    from datetime import datetime


                    def f():
                        return time.time(), datetime.now()
                """
            },
        )
        assert rules_of(determinism(project)) == ["VIA201", "VIA201"]

    def test_perf_counter_sanctioned_in_worker_scope(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "worker/mod.py": """
                    import time


                    def f():
                        return time.perf_counter(), time.monotonic()
                """
            },
        )
        assert determinism(project) == []

    def test_files_outside_both_scopes_are_not_scanned(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "other/mod.py": """
                    import time


                    def f():
                        return time.time()
                """
            },
        )
        assert determinism(project) == []


class TestRandomnessRule:
    def test_via202_global_rng_entropy_and_unseeded(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pure/rng.py": """
                    import os
                    import random

                    import numpy as np


                    def f():
                        a = random.random()
                        b = np.random.default_rng()
                        c = os.urandom(8)
                        return a, b, c
                """
            },
        )
        assert rules_of(determinism(project)) == ["VIA202"] * 3

    def test_seeded_generators_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pure/rng.py": """
                    import numpy as np


                    def f(seed):
                        rng = np.random.default_rng(seed)
                        other = np.random.default_rng(seed=seed + 1)
                        return rng.standard_normal(4), other
                """
            },
        )
        assert determinism(project) == []


class TestEnvRule:
    def test_via203_unsanctioned_reads(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "worker/env.py": """
                    import os


                    def f():
                        return os.getenv("PATH"), os.environ["HOME"]
                """
            },
        )
        findings = determinism(project)
        assert rules_of(findings) == ["VIA203", "VIA203"]
        assert any("'PATH'" in f.message for f in findings)

    def test_repro_namespace_and_writes_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "worker/env.py": """
                    import os


                    def f():
                        a = os.getenv("REPRO_WORKERS")
                        b = os.environ["REPRO_CACHE_DIR"]
                        os.environ["ANYTHING"] = "writes are not reads"
                        return a, b
                """
            },
        )
        assert determinism(project) == []


class TestSetIterationRule:
    def test_via204_direct_set_iteration(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pure/iter.py": """
                    def f(items):
                        out = []
                        for x in set(items):
                            out.append(x)
                        return [y for y in {1, 2, 3}]
                """
            },
        )
        findings = determinism(project)
        assert rules_of(findings) == ["VIA204", "VIA204"]
        assert all(f.severity == "warning" for f in findings)

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pure/iter.py": """
                    def f(items):
                        out = []
                        for x in sorted(set(items)):
                            out.append(x)
                        for y in items:
                            out.append(y)
                        return out
                """
            },
        )
        assert determinism(project) == []


class TestIdKeyRule:
    def test_via205_id_keyed_state(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pure/ident.py": """
                    def f(obj, cache, memo):
                        cache[id(obj)] = 1
                        memo.setdefault(id(obj), [])
                        return {id(obj): 2}
                """
            },
        )
        assert rules_of(determinism(project)) == ["VIA205"] * 3

    def test_stable_keys_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pure/ident.py": """
                    def f(obj, cache, memo):
                        cache[obj.name] = 1
                        memo.setdefault(obj.key, [])
                        return id(obj)  # computing an id is fine; keying on it is not
                """
            },
        )
        assert determinism(project) == []


# ----------------------------------------------------------------------
# family: locks (VIA301-VIA303)
# ----------------------------------------------------------------------
def locks(project):
    return check_locks(project, prefixes=("svc",))


LOCKED_RACY = """
    import threading


    class Svc:
        def __init__(self):
            self._lock = threading.Lock()
            self._executor = None
            self.flag = False
            self.items = []

        def arm(self):
            with self._lock:
                self.flag = True

        def disarm(self):
            self.flag = False

        def reset(self):
            with self._lock:
                self.items = []

        def kick(self):
            self._executor.submit(self._work)

        def _work(self):
            if self.flag:
                self.items.append(1)
"""


class TestLockRules:
    def test_via301_and_via302_on_mixed_discipline(self, tmp_path):
        project = make_project(tmp_path, {"svc.py": LOCKED_RACY})
        findings = locks(project)
        # flag: unlocked loop write (disarm) + unlocked executor read;
        # items: unlocked executor mutator (append) counts as both
        assert rules_of(findings) == ["VIA301", "VIA301", "VIA302", "VIA302"]
        v301 = [f for f in findings if f.rule == "VIA301"]
        assert {("flag" in f.message, "items" in f.message) for f in v301} == {
            (True, False),
            (False, True),
        }

    def test_shared_worker_pool_is_in_the_default_scope(self, tmp_path):
        # the supervised pool sweeps and serving share lives outside
        # repro/serve/; the default scope must still check its discipline
        project = make_project(
            tmp_path, {"repro/eval/supervisor.py": LOCKED_RACY}
        )
        findings = check_locks(project)
        assert rules_of(findings) == ["VIA301", "VIA301", "VIA302", "VIA302"]

    def test_consistent_locking_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc.py": """
                    import threading


                    class Svc:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self._executor = None
                            self.flag = False

                        def arm(self):
                            with self._lock:
                                self.flag = True

                        def kick(self):
                            self._executor.submit(self._work)

                        def _work(self):
                            with self._lock:
                                return self.flag
                """
            },
        )
        assert locks(project) == []

    def test_lockless_class_is_skipped(self, tmp_path):
        # the rules check discipline *around* a lock; a class without one
        # (or without a thread boundary) is out of scope by design
        project = make_project(
            tmp_path,
            {
                "svc.py": """
                    class Svc:
                        def __init__(self):
                            self._executor = None
                            self.flag = False

                        def arm(self):
                            self.flag = True

                        def kick(self):
                            self._executor.submit(self._work)

                        def _work(self):
                            return self.flag
                """
            },
        )
        assert locks(project) == []

    def test_class_without_thread_boundary_is_skipped(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc.py": """
                    import threading


                    class Svc:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self.flag = False

                        def arm(self):
                            with self._lock:
                                self.flag = True

                        def disarm(self):
                            self.flag = False
                """
            },
        )
        assert locks(project) == []

    def test_reachability_through_helper_methods(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc.py": """
                    import threading


                    class Svc:
                        def __init__(self, loop):
                            self._lock = threading.Lock()
                            self._loop = loop
                            self._executor = None
                            self.flag = False

                        def arm(self):
                            with self._lock:
                                self.flag = True

                        def kick(self):
                            self._loop.run_in_executor(self._executor, self._work, 1)

                        def _work(self, n):
                            self._helper()

                        def _helper(self):
                            self.flag = False
                """
            },
        )
        findings = locks(project)
        assert "VIA302" in rules_of(findings)
        assert any("_helper" not in f.message and "flag" in f.message for f in findings)

    def test_thread_target_is_an_entry_point(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc.py": """
                    import threading


                    class Svc:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self.flag = False

                        def arm(self):
                            with self._lock:
                                self.flag = True

                        def kick(self):
                            threading.Thread(target=self._work).start()

                        def _work(self):
                            return self.flag
                """
            },
        )
        assert rules_of(locks(project)) == ["VIA302"]

    def test_via303_loop_read_of_supervisor_written_state(self, tmp_path):
        # the worker-pool shape: a supervisor thread owns the worker
        # table; a loop-side health() peeking at it lock-free sees torn
        # updates — the mirror image of VIA302
        project = make_project(
            tmp_path,
            {
                "svc.py": """
                    import threading


                    class Pool:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self.table = {}

                        def start(self):
                            threading.Thread(target=self._supervise).start()

                        def _supervise(self):
                            with self._lock:
                                self.table[1] = "up"

                        def health(self):
                            return dict(self.table)
                """
            },
        )
        findings = locks(project)
        assert rules_of(findings) == ["VIA303"]
        assert "table" in findings[0].message

    def test_via303_loop_mutator_on_supervisor_written_container(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc.py": """
                    import threading


                    class Pool:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self.table = {}

                        def start(self):
                            threading.Thread(target=self._supervise).start()

                        def _supervise(self):
                            with self._lock:
                                self.table[1] = "up"

                        def cancel(self, slot):
                            self.table.pop(slot, None)
                """
            },
        )
        assert rules_of(locks(project)) == ["VIA303"]

    def test_via303_clean_when_loop_side_holds_the_lock(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc.py": """
                    import threading


                    class Pool:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self.table = {}

                        def start(self):
                            threading.Thread(target=self._supervise).start()

                        def _supervise(self):
                            with self._lock:
                                self.table[1] = "up"

                        def health(self):
                            with self._lock:
                                return dict(self.table)
                """
            },
        )
        assert locks(project) == []

    def test_init_writes_are_exempt(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc.py": """
                    import threading


                    class Svc:
                        def __init__(self):
                            self._lock = threading.Lock()
                            self._executor = None
                            self.flag = False  # no second thread exists yet

                        def arm(self):
                            with self._lock:
                                self.flag = True

                        def kick(self):
                            self._executor.submit(self._work)

                        def _work(self):
                            with self._lock:
                                return self.flag
                """
            },
        )
        assert locks(project) == []


# ----------------------------------------------------------------------
# family: hotpath (VIA401-VIA402)
# ----------------------------------------------------------------------
def hotpath(project):
    return check_hotpath(
        project, loop_scopes=("hot/core.py",), kernel_scopes=("hot/kern/",)
    )


class TestHotpathRules:
    def test_via401_op_constructed_in_loop(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "hot/core.py": """
                    from repro.sim.ops import GatherOp


                    def narrate(core, rows):
                        for idx in rows:
                            core._emit(GatherOp("a", idx, 1))
                """
            },
        )
        findings = hotpath(project)
        assert rules_of(findings) == ["VIA401"]
        assert "GatherOp" in findings[0].message
        assert findings[0].severity == "error"

    def test_via401_through_module_alias(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "hot/core.py": """
                    import repro.sim.ops as ops


                    def narrate(core):
                        while core.pending():
                            core._emit(ops.ScalarOpsOp(1))
                """
            },
        )
        assert rules_of(hotpath(project)) == ["VIA401"]

    def test_op_outside_loop_is_clean(self, tmp_path):
        # one op per *call*, not per loop iteration: VIA401 only guards
        # loops (this scope is loop-only, so VIA402 does not apply)
        project = make_project(
            tmp_path,
            {
                "hot/core.py": """
                    from repro.sim.ops import ScalarOpsOp


                    def scalar_row(count):
                        return ScalarOpsOp(int(count))
                """
            },
        )
        assert hotpath(project) == []

    def test_nested_function_resets_loop_context(self, tmp_path):
        # a closure *defined* in a loop runs when called, not per
        # iteration of the defining loop
        project = make_project(
            tmp_path,
            {
                "hot/core.py": """
                    from repro.sim.ops import AllocOp


                    def build(specs):
                        makers = []
                        for name in specs:
                            def make(n=name):
                                return AllocOp(n, 64, 8)
                            makers.append(make)
                        return makers
                """
            },
        )
        assert hotpath(project) == []

    def test_non_op_calls_in_loops_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "hot/core.py": """
                    def narrate(core, rows):
                        for idx in rows:
                            core.gather("a", idx)
                            total = int(idx)
                """
            },
        )
        assert hotpath(project) == []

    def test_via402_kernel_builds_op_even_outside_loop(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "hot/kern/spmv.py": """
                    from repro.sim.ops import ViaOpRecord


                    def price(core):
                        core._emit(ViaOpRecord(4, 2, 1.0, None, 1))
                """
            },
        )
        findings = hotpath(project)
        assert rules_of(findings) == ["VIA402"]
        assert "ViaOpRecord" in findings[0].message

    def test_kernel_without_op_construction_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "hot/kern/spmv.py": """
                    def price(core, idx):
                        core.gather("a", idx)
                        core.scalar_ops(3)
                """
            },
        )
        assert hotpath(project) == []

    def test_via402_covers_sim_core_by_default(self, tmp_path):
        # Core buffers every narration call as a builder row, so with the
        # default scopes an op built anywhere in repro/sim/core.py — loop
        # or not — is a finding
        project = make_project(
            tmp_path,
            {
                "repro/sim/core.py": """
                    from repro.sim.ops import ScalarOpsOp


                    class Core:
                        def scalar_ops(self, count):
                            self.backend.flush(ScalarOpsOp(int(count)), self)
                """
            },
        )
        report = run_analysis(project, select=["hotpath"])
        assert rules_of(report.findings) == ["VIA402"]
        assert "ScalarOpsOp" in report.findings[0].message

    def test_ignore_comment_silences_via401(self, tmp_path):
        # default scopes: repro/kernels/ is a real hot-path prefix, so
        # this exercises the registered checker end-to-end
        project = make_project(
            tmp_path,
            {
                "repro/kernels/k.py": """
                    from repro.sim.ops import GatherOp


                    def replay(core, rows):
                        for idx in rows:
                            # via: ignore[VIA401, VIA402]
                            core._emit(GatherOp("a", idx, 1))
                """
            },
        )
        report = run_analysis(project, select=["hotpath"])
        assert report.findings == []
        assert rules_of(report.suppressed) == ["VIA401", "VIA402"]


# ----------------------------------------------------------------------
# core machinery: VIA000, suppression, baseline, selection, CLI
# ----------------------------------------------------------------------
CLOCKY = """
    import time

    a = time.time()
"""


class TestCoreMachinery:
    def test_via000_on_syntax_error(self, tmp_path):
        project = make_project(tmp_path, {"repro/sim/broken.py": "def f(:\n"})
        report = run_analysis(project)
        assert rules_of(report.findings) == ["VIA000"]
        assert report.exit_code == 1

    def test_suppression_same_line_and_line_above(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/sim/clocky.py": """
                    import time

                    a = time.time()  # via: ignore[VIA201]
                    # via: ignore[VIA201]
                    b = time.time()
                    c = time.time()
                """
            },
        )
        report = run_analysis(project)
        assert rules_of(report.findings) == ["VIA201"]
        assert len(report.suppressed) == 2

    def test_suppression_wildcard_and_comma_list(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/sim/clocky.py": """
                    import time

                    a = time.time()  # via: ignore[*]
                    b = time.time()  # via: ignore[VIA204, VIA201]
                """
            },
        )
        report = run_analysis(project)
        assert report.findings == []
        assert len(report.suppressed) == 2

    def test_baseline_round_trip_is_line_independent(self, tmp_path):
        files = {"repro/sim/clocky.py": CLOCKY}
        report = run_analysis(make_project(tmp_path, files))
        assert len(report.findings) == 1

        baseline_path = tmp_path / "baseline.json"
        save_baseline(baseline_path, report.findings)
        fingerprints = load_baseline(baseline_path)
        assert len(fingerprints) == 1

        # shift the finding to a different line: same rule+path+message
        # must still match the baseline fingerprint
        shifted = {"repro/sim/clocky.py": "\n\n\n" + textwrap.dedent(CLOCKY)}
        report2 = run_analysis(
            make_project(tmp_path, shifted), baseline=fingerprints
        )
        assert report2.findings == []
        assert len(report2.baselined) == 1
        assert report2.exit_code == 0

    def test_baseline_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "fingerprints": []}))
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_warnings_do_not_fail_the_gate(self, tmp_path):
        project = make_project(
            tmp_path,
            {"repro/sim/iter.py": "for x in {1, 2}:\n    print(x)\n"},
        )
        report = run_analysis(project, select=["VIA204"])
        assert rules_of(report.findings) == ["VIA204"]
        assert report.errors == []
        assert report.exit_code == 0

    def test_selection_expands_families(self):
        selected = resolve_selection(["determinism"])
        assert selected == {"VIA201", "VIA202", "VIA203", "VIA204", "VIA205"}
        assert resolve_selection(["VIA101"]) == {"VIA101"}
        assert resolve_selection(None) is None
        with pytest.raises(ValueError):
            resolve_selection(["no-such-family"])

    def test_every_family_has_a_registered_checker(self):
        assert {info.family for info in RULES.values()} == set(FAMILY_CHECKERS)


class TestCli:
    def _tree(self, tmp_path):
        make_project(tmp_path, {"repro/sim/clocky.py": CLOCKY})
        return [str(tmp_path), "--root", str(tmp_path)]

    def test_findings_exit_1_human_output(self, tmp_path, capsys):
        assert cli_main(self._tree(tmp_path)) == 1
        out = capsys.readouterr().out
        assert "VIA201" in out
        assert "1 finding(s) (1 error(s))" in out

    def test_json_output_parses(self, tmp_path, capsys):
        assert cli_main(self._tree(tmp_path) + ["--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "VIA201"
        assert payload["findings"][0]["fingerprint"]

    def test_rule_selection_scopes_the_run(self, tmp_path, capsys):
        assert cli_main(self._tree(tmp_path) + ["--rules", "keys,locks"]) == 0

    def test_unknown_selection_is_a_usage_error(self, tmp_path, capsys):
        assert cli_main(self._tree(tmp_path) + ["--rules", "bogus"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_no_files_is_a_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main([str(empty)]) == 2

    def test_missing_baseline_is_a_usage_error(self, tmp_path, capsys):
        argv = self._tree(tmp_path) + ["--baseline", str(tmp_path / "no.json")]
        assert cli_main(argv) == 2

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        argv = self._tree(tmp_path)
        assert cli_main(argv + ["--write-baseline", str(baseline)]) == 0
        assert cli_main(argv + ["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_list_rules_covers_every_id(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out


# ----------------------------------------------------------------------
# family: lifecycle (VIA501-VIA504)
# ----------------------------------------------------------------------
def lifecycle(project):
    return check_lifecycle(project, prefixes=("svc",))


class TestLifecycleRules:
    def test_via501_open_at_normal_exit(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/leak.py": """
                    from multiprocessing import Pipe


                    def leaky():
                        parent, child = Pipe()
                        child.close()
                        return None
                """
            },
        )
        findings = lifecycle(project)
        assert rules_of(findings) == ["VIA501"]
        assert "parent" in findings[0].message

    def test_clean_when_closed_or_returned(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/ok.py": """
                    from multiprocessing import Pipe


                    def closed():
                        parent, child = Pipe()
                        parent.close()
                        child.close()


                    def handed_to_caller():
                        parent, child = Pipe()
                        child.close()
                        return parent
                """
            },
        )
        assert lifecycle(project) == []

    def test_via502_exception_edge_leak(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/risky.py": """
                    def risky(step):
                        f = open("x")
                        step()
                        f.close()
                """
            },
        )
        findings = lifecycle(project)
        assert rules_of(findings) == ["VIA502"]
        assert "exception escapes" in findings[0].message

    def test_clean_with_finally_or_with(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/ok.py": """
                    def guarded(step):
                        f = open("x")
                        try:
                            step()
                        finally:
                            f.close()


                    def managed(step):
                        with open("x") as f:
                            step()
                """
            },
        )
        assert lifecycle(project) == []

    def test_clean_when_handler_closes_before_reraise(self, tmp_path):
        # the shape the pool/supervisor fixes use: close on BaseException,
        # then re-raise — no path leaves the resource open
        project = make_project(
            tmp_path,
            {
                "svc/ok.py": """
                    from multiprocessing import Pipe


                    def spawn(arm):
                        parent, child = Pipe()
                        try:
                            arm()
                        except BaseException:
                            parent.close()
                            child.close()
                            raise
                        child.close()
                        return parent
                """
            },
        )
        assert lifecycle(project) == []

    def test_via502_comprehension_acquisition(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/comp.py": """
                    from multiprocessing import Pipe


                    def many(n):
                        conns = [Pipe() for _ in range(n)]
                        return conns
                """
            },
        )
        findings = lifecycle(project)
        assert rules_of(findings) == ["VIA502"]
        assert "comprehension" in findings[0].message

    def test_via501_started_process_without_join(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/proc.py": """
                    def spawn_and_forget(ctx, work):
                        p = ctx.Process(target=work)
                        p.start()


                    def spawn_joined(ctx, work):
                        p = ctx.Process(target=work)
                        p.start()
                        p.join()
                """
            },
        )
        findings = lifecycle(project)
        assert rules_of(findings) == ["VIA501"]
        assert "spawn_and_forget" in findings[0].message

    def test_failed_start_acquires_nothing(self, tmp_path):
        # start() raising means there is no process to join — the
        # exception edge must carry the pre-start state
        project = make_project(
            tmp_path,
            {
                "svc/proc.py": """
                    def spawn(ctx, work):
                        p = ctx.Process(target=work)
                        p.start()
                        p.join()
                """
            },
        )
        assert lifecycle(project) == []

    def test_owner_class_constructor_is_an_acquisition(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/handle.py": """
                    from multiprocessing import Pipe


                    class Handle:
                        def __init__(self):
                            self.a, self.b = Pipe()

                        def close(self):
                            self.a.close()
                            self.b.close()


                    def leaky(step):
                        h = Handle()
                        step()
                        h.close()
                """
            },
        )
        findings = lifecycle(project)
        assert [f for f in findings if f.rule == "VIA502"]
        assert any("instance of Handle" in f.message for f in findings)

    def test_via503_rebind_while_open(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/rebind.py": """
                    def shadow():
                        f = open("x")
                        f = open("y")
                        f.close()
                """
            },
        )
        findings = lifecycle(project)
        assert "VIA503" in rules_of(findings)
        via503 = [f for f in findings if f.rule == "VIA503"]
        assert "rebound" in via503[0].message

    def test_via504_use_after_close(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/reuse.py": """
                    def reuse():
                        f = open("x")
                        f.close()
                        f.read()
                """
            },
        )
        findings = lifecycle(project)
        assert rules_of(findings) == ["VIA504"]

    def test_repeated_close_is_not_a_use_after_close(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "svc/double.py": """
                    def double():
                        f = open("x")
                        f.close()
                        f.close()
                """
            },
        )
        assert lifecycle(project) == []


# ----------------------------------------------------------------------
# family: errorflow (VIA601-VIA603)
# ----------------------------------------------------------------------
JOBS_ANCHOR = """
    class ServeError(Exception):
        pass


    class QueueFull(ServeError):
        pass


    def error_payload(exc):
        if isinstance(exc, QueueFull):
            return {"code": "queue_full"}
        if isinstance(exc, ServeError):
            return {"code": "serve"}
        return {"code": "internal"}
"""


class TestErrorflowRules:
    def test_via601_unmapped_raise(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/serve/jobs.py": JOBS_ANCHOR,
                "repro/serve/handlers.py": """
                    def handle(spec):
                        if not spec:
                            raise ValueError("empty spec")
                """,
            },
        )
        findings = check_errorflow(project)
        assert rules_of(findings) == ["VIA601"]
        assert "ValueError" in findings[0].message

    def test_shared_worker_pool_is_in_the_default_scope(self, tmp_path):
        # the pool's errors reach serve clients too
        project = make_project(
            tmp_path,
            {
                "repro/serve/jobs.py": JOBS_ANCHOR,
                "repro/eval/supervisor.py": """
                    def spawn(slot):
                        if slot < 0:
                            raise ValueError("negative slot")
                """,
            },
        )
        findings = check_errorflow(project)
        assert rules_of(findings) == ["VIA601"]
        assert findings[0].path.endswith("repro/eval/supervisor.py")

    def test_mapped_subclass_and_helper_raises_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/serve/jobs.py": JOBS_ANCHOR,
                "repro/serve/handlers.py": """
                    from repro.serve.jobs import QueueFull, ServeError


                    class RateLimited(ServeError):
                        pass


                    def _bad_spec(reason):
                        return ServeError(reason)


                    def handle(spec):
                        if spec is None:
                            raise _bad_spec("missing")
                        if spec == "full":
                            raise QueueFull("later")
                        if spec == "limit":
                            raise RateLimited("slow down")
                        try:
                            return spec()
                        except ServeError as exc:
                            raise exc
                """,
            },
        )
        assert check_errorflow(project) == []

    def test_transport_teardown_and_unresolvable_are_skipped(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/serve/jobs.py": JOBS_ANCHOR,
                "repro/serve/handlers.py": """
                    def drop(make_error):
                        raise ConnectionResetError from None


                    def dynamic(make_error):
                        raise make_error()
                """,
            },
        )
        assert check_errorflow(project) == []

    def test_via602_broad_swallow(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/serve/jobs.py": JOBS_ANCHOR,
                "repro/serve/handlers.py": """
                    def quiet(step):
                        try:
                            step()
                        except Exception:
                            pass
                """,
            },
        )
        findings = check_errorflow(project)
        assert rules_of(findings) == ["VIA602"]
        assert findings[0].severity == "warning"

    def test_broad_handler_that_logs_or_reraises_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/serve/jobs.py": JOBS_ANCHOR,
                "repro/serve/handlers.py": """
                    import logging

                    log = logging.getLogger(__name__)


                    def noisy(step):
                        try:
                            step()
                        except Exception as exc:
                            log.warning("step failed: %s", exc)


                    def strict(step):
                        try:
                            step()
                        except Exception:
                            raise
                """,
            },
        )
        assert check_errorflow(project) == []

    def test_via603_unextractable_anchor(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/serve/jobs.py": """
                    PAYLOADS = {}


                    def error_payload(exc):
                        return PAYLOADS.get(type(exc).__name__)
                """,
            },
        )
        findings = check_errorflow(project)
        assert rules_of(findings) == ["VIA603"]

    def test_family_skips_without_anchor_module(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/serve/handlers.py": """
                    def handle():
                        raise ValueError("unchecked without the anchor")
                """,
            },
        )
        assert check_errorflow(project) == []


# ----------------------------------------------------------------------
# family: dtypes (VIA701-VIA703)
# ----------------------------------------------------------------------
def dtypes_of(project):
    return check_dtypes(project, scopes=("kern",))


class TestDtypeRules:
    def test_via701_true_division_on_int_array(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "kern/cols.py": """
                    import numpy as np


                    def price(n):
                        cycles = np.zeros(n, dtype=np.int64)
                        return cycles / 2
                """
            },
        )
        findings = dtypes_of(project)
        assert rules_of(findings) == ["VIA701"]
        assert "float64" in findings[0].message

    def test_floor_division_and_explicit_astype_are_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "kern/cols.py": """
                    import numpy as np


                    def price(n):
                        cycles = np.zeros(n, dtype=np.int64)
                        halves = cycles // 2
                        ratio = cycles.astype(float) / 2
                        return halves, ratio
                """
            },
        )
        assert dtypes_of(project) == []

    def test_via702_mean_without_dtype(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "kern/cols.py": """
                    import numpy as np


                    def summarize(n):
                        cycles = np.arange(n).astype(np.int64)
                        return np.mean(cycles)
                """
            },
        )
        findings = dtypes_of(project)
        assert rules_of(findings) == ["VIA702"]

    def test_mean_with_explicit_dtype_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "kern/cols.py": """
                    import numpy as np


                    def summarize(n):
                        cycles = np.arange(n).astype(np.int64)
                        return np.mean(cycles, dtype=np.float64)
                """
            },
        )
        assert dtypes_of(project) == []

    def test_via703_float_literal_in_int_arithmetic(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "kern/cols.py": """
                    import numpy as np


                    def scale(n):
                        cycles = np.zeros(n, dtype=np.int64)
                        return cycles * 1.5
                """
            },
        )
        findings = dtypes_of(project)
        assert rules_of(findings) == ["VIA703"]

    def test_must_analysis_drops_intness_at_joins(self, tmp_path):
        # one branch promotes deliberately: after the join the var is no
        # longer provably int, so the division must not be flagged
        project = make_project(
            tmp_path,
            {
                "kern/cols.py": """
                    import numpy as np


                    def maybe_promote(n, flag):
                        xs = np.zeros(n, dtype=np.int64)
                        if flag:
                            xs = xs.astype(float)
                        return xs / 2
                """
            },
        )
        assert dtypes_of(project) == []

    def test_plain_python_numbers_never_seed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "kern/cols.py": """
                    def ratio(total, count):
                        share = total / count
                        return share * 1.5
                """
            },
        )
        assert dtypes_of(project) == []


# ----------------------------------------------------------------------
# meta-rule: VIA001 (useless suppression) + timings
# ----------------------------------------------------------------------
class TestUselessSuppression:
    def test_via001_on_stale_comment(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/sim/tidy.py": """
                    import time  # via: ignore[VIA201]

                    def now():
                        return 42
                """
            },
        )
        report = run_analysis(project)
        assert rules_of(report.findings) == ["VIA001"]
        assert "VIA201" in report.findings[0].message

    def test_used_suppression_is_not_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/sim/clocky.py": """
                    import time

                    a = time.time()  # via: ignore[VIA201]
                """
            },
        )
        report = run_analysis(project)
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_selected_runs_never_emit_via001(self, tmp_path):
        # a scoped run cannot tell used from stale — only the full run
        # sees every family's findings, so only it may judge comments
        project = make_project(
            tmp_path,
            {
                "repro/sim/tidy.py": """
                    import time  # via: ignore[VIA201]

                    def now():
                        return 42
                """
            },
        )
        report = run_analysis(project, select=["determinism"])
        assert report.findings == []


class TestTimings:
    def test_report_carries_per_family_timings(self, tmp_path):
        project = make_project(tmp_path, {"repro/sim/clocky.py": CLOCKY})
        report = run_analysis(project)
        assert set(FAMILY_CHECKERS) <= set(report.timings)
        assert report.total_seconds >= 0.0

    def test_cli_timings_flag_prints_table(self, tmp_path, capsys):
        make_project(tmp_path, {"repro/sim/ok.py": "x = 1\n"})
        argv = [str(tmp_path), "--root", str(tmp_path), "--timings"]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "rule-family timings" in out
        assert "lifecycle" in out

    def test_cli_max_seconds_budget_breach_fails(self, tmp_path, capsys):
        make_project(tmp_path, {"repro/sim/ok.py": "x = 1\n"})
        base = [str(tmp_path), "--root", str(tmp_path)]
        assert cli_main(base + ["--max-seconds", "0"]) == 1
        assert "budget" in capsys.readouterr().err
        assert cli_main(base + ["--max-seconds", "60"]) == 0
