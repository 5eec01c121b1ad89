"""Lock-discipline rules (family ``locks``).

:mod:`repro.serve` runs an asyncio event loop next to a thread-pool
executor, and the worker pool it shares with the sweep runner
(:mod:`repro.eval.supervisor`) runs a supervisor thread next to its
callers: both sides mutate shared state.  The convention is an instance
lock (``self._lock``) around every touch of state that crosses the
thread boundary — a convention this module turns into a checkable rule.

Per class, the checker derives:

* the class's **lock attributes** — ``self.<name>`` assigned in
  ``__init__`` from a ``threading.Lock()``/``RLock()``/``Condition()``
  call, or any ``self`` attribute whose name contains ``lock``;
* its **executor entry points** — methods handed to another thread via
  ``loop.run_in_executor(self._executor, self.m, ...)``,
  ``executor.submit(self.m, ...)``, or ``Thread(target=self.m)``, plus
  every same-class method reachable from one through ``self.m()`` calls;
* per method, every attribute **event** (read or write of ``self.attr``
  or ``param.attr``), tagged with whether it happened inside a
  ``with self._lock:`` block.  Writes include subscript stores and
  mutator-method calls (``append``/``pop``/``clear``/…).

An attribute is **shared** when one side writes it and the other side
touches it — in either direction.  For shared attributes:

* ``VIA301`` (error) — the attribute is written both inside and outside
  lock blocks (the unlocked write races the locked reader);
* ``VIA302`` (error) — an executor-reachable method touches
  loop-written shared state without holding the lock;
* ``VIA303`` (error) — the mirror image: a loop-side method touches
  executor-written shared state without holding the lock.  The worker
  pool shared by sweeps and serving (:mod:`repro.eval.supervisor`) is
  the motivating case: its supervisor thread mutates the worker table
  and crash counters, and every loop-side reader (``submit``/``cancel``/
  ``health``) must hold the supervisor lock to see a consistent view.

``__init__`` writes are exempt (no second thread exists yet).  Classes
with no lock attribute and no executor entry points are skipped — the
rules check the *discipline around* a lock, they do not demand one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    Project,
    SourceFile,
    attribute_chain,
    family_checker,
    make_finding,
    rule,
)

VIA301 = rule(
    "VIA301",
    "locks",
    "attribute written both inside and outside lock blocks",
)
VIA302 = rule(
    "VIA302",
    "locks",
    "executor-reachable code touches shared state without the lock",
)
VIA303 = rule(
    "VIA303",
    "locks",
    "loop-side code touches executor-written shared state without the lock",
)

#: path fragments selecting the threaded scope: the serve tier and the
#: supervised worker pool it shares with the sweep runner
LOCK_PREFIXES: Tuple[str, ...] = ("repro/serve/", "repro/eval/supervisor.py")

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: method calls that mutate their receiver (list/dict/set/deque mutators)
_MUTATORS = {
    "append", "appendleft", "extend", "extendleft", "insert", "remove",
    "pop", "popleft", "popitem", "clear", "add", "discard", "update",
    "setdefault", "sort", "reverse",
}


@dataclass
class _AttrEvent:
    attr: str
    line: int
    write: bool
    locked: bool


@dataclass
class _MethodInfo:
    name: str
    events: List[_AttrEvent] = field(default_factory=list)
    calls: Set[str] = field(default_factory=set)  # same-class self.m() calls
    entry: bool = False  # directly handed to another thread


class _MethodScanner(ast.NodeVisitor):
    """Collect attribute events and self-calls for one method body."""

    def __init__(self, lock_attrs: Set[str], params: Set[str]):
        self.lock_attrs = lock_attrs
        self.params = params  # names whose attributes we track ("self", "job", …)
        self.info: Optional[_MethodInfo] = None
        self._lock_depth = 0

    def scan(self, name: str, body: Sequence[ast.stmt]) -> _MethodInfo:
        self.info = _MethodInfo(name)
        for stmt in body:
            self.visit(stmt)
        return self.info

    # -- lock blocks --------------------------------------------------
    def _is_lock_expr(self, node: ast.expr) -> bool:
        chain = attribute_chain(node)
        return (
            chain is not None
            and len(chain) == 2
            and chain[0] in self.params
            and chain[1] in self.lock_attrs
        )

    def visit_With(self, node: ast.With) -> None:
        holds = any(self._is_lock_expr(item.context_expr) for item in node.items)
        if holds:
            self._lock_depth += 1
        self.generic_visit(node)
        if holds:
            self._lock_depth -= 1

    # -- attribute events ---------------------------------------------
    def _event(self, attr: str, line: int, write: bool) -> None:
        assert self.info is not None
        if attr in self.lock_attrs or attr.startswith("__"):
            return
        self.info.events.append(
            _AttrEvent(attr, line, write, self._lock_depth > 0)
        )

    def _tracked_attr(self, node: ast.AST) -> Optional[ast.Attribute]:
        """The attribute node if ``node`` is ``<param>.attr[...]*``."""
        base = node
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if base.value.id in self.params:
                return base
        return None

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id in self.params:
            self._event(
                node.attr, node.lineno, isinstance(node.ctx, (ast.Store, ast.Del))
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # a store through a subscript mutates the *container* attribute
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            base = self._tracked_attr(node)
            if base is not None:
                self._event(base.attr, node.lineno, True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        assert self.info is not None
        if isinstance(node.func, ast.Attribute):
            owner = node.func.value
            # self.method() — a same-class call edge
            if isinstance(owner, ast.Name) and owner.id == "self":
                self.info.calls.add(node.func.attr)
            # <param>.container.append(...) — a mutation of the container
            if node.func.attr in _MUTATORS:
                base = self._tracked_attr(owner)
                if base is not None:
                    self._event(base.attr, node.lineno, True)
        self.generic_visit(node)

    # nested defs get their own thread-discipline story; don't descend
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass


def _lock_attrs(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) or method.name != "__init__":
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                chain = attribute_chain(target)
                if chain is None or len(chain) != 2 or chain[0] != "self":
                    continue
                attr = chain[1]
                if "lock" in attr.lower():
                    names.add(attr)
                    continue
                if isinstance(node.value, ast.Call):
                    call_chain = attribute_chain(node.value.func)
                    if call_chain and call_chain[-1] in _LOCK_FACTORIES:
                        names.add(attr)
    return names


def _entry_methods(cls: ast.ClassDef) -> Set[str]:
    """Methods of ``cls`` handed directly to another thread."""
    entries: Set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Call):
            continue
        func_chain = attribute_chain(node.func)
        if func_chain is None:
            continue
        candidates: List[ast.expr] = []
        if func_chain[-1] == "run_in_executor" and len(node.args) >= 2:
            candidates.append(node.args[1])
        elif func_chain[-1] == "submit" and node.args:
            candidates.append(node.args[0])
        elif func_chain[-1] == "Thread" or (
            len(func_chain) == 1 and func_chain[0] == "Thread"
        ):
            for kw in node.keywords:
                if kw.arg == "target":
                    candidates.append(kw.value)
        for cand in candidates:
            chain = attribute_chain(cand)
            if chain is not None and len(chain) == 2 and chain[0] == "self":
                entries.add(chain[1])
    return entries


def _reachable(methods: Dict[str, _MethodInfo], roots: Set[str]) -> Set[str]:
    seen: Set[str] = set()
    stack = [r for r in roots if r in methods]
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        for callee in methods[name].calls:
            if callee in methods and callee not in seen:
                stack.append(callee)
    return seen


def _check_class(cls: ast.ClassDef, src: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    lock_attrs = _lock_attrs(cls)
    entries = _entry_methods(cls)
    if not lock_attrs or not entries:
        # no lock convention or no thread boundary in this class
        return findings

    methods: Dict[str, _MethodInfo] = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = {"self"}
            params.update(
                a.arg for a in node.args.args if a.arg != "self"
            )
            # async methods run on the loop; same scan applies
            methods[node.name] = _MethodScanner(lock_attrs, params).scan(
                node.name, node.body
            )
    executor_side = _reachable(methods, entries)

    # shared = written by loop-side code ∧ touched by executor-side code
    loop_writes: Dict[str, List[_AttrEvent]] = {}
    for name, info in methods.items():
        if name == "__init__" or name in executor_side:
            continue
        for ev in info.events:
            if ev.write:
                loop_writes.setdefault(ev.attr, []).append(ev)
    executor_touches: Dict[str, List[_AttrEvent]] = {}
    for name in executor_side:
        for ev in methods[name].events:
            executor_touches.setdefault(ev.attr, []).append(ev)
    shared = set(loop_writes) & set(executor_touches)

    # the mirror direction: executor-side writes vs loop-side touches
    loop_touches: Dict[str, List[_AttrEvent]] = {}
    for name, info in methods.items():
        if name == "__init__" or name in executor_side:
            continue
        for ev in info.events:
            loop_touches.setdefault(ev.attr, []).append(ev)
    executor_writes = {
        attr for attr, events in executor_touches.items()
        if any(ev.write for ev in events)
    }
    shared_back = executor_writes & set(loop_touches)

    for attr in sorted(shared):
        locked_writes = [e for e in loop_writes[attr] if e.locked]
        unlocked_writes = [e for e in loop_writes[attr] if not e.locked] + [
            e for e in executor_touches[attr] if e.write and not e.locked
        ]
        if locked_writes and unlocked_writes:
            for ev in sorted(unlocked_writes, key=lambda e: e.line):
                findings.append(
                    make_finding(
                        VIA301, src.rel, ev.line,
                        f"{cls.name}.{attr} is written under the lock "
                        "elsewhere but written here without it; the "
                        "unlocked write races every locked reader",
                    )
                )
        for ev in sorted(executor_touches[attr], key=lambda e: e.line):
            if not ev.locked:
                findings.append(
                    make_finding(
                        VIA302, src.rel, ev.line,
                        f"{cls.name}.{attr} is loop-mutated shared state "
                        "touched here from an executor-reachable method "
                        "without holding the lock",
                    )
                )
    for attr in sorted(shared_back):
        for ev in sorted(loop_touches[attr], key=lambda e: e.line):
            if not ev.locked:
                findings.append(
                    make_finding(
                        VIA303, src.rel, ev.line,
                        f"{cls.name}.{attr} is written by the supervisor/"
                        "executor thread and touched here from loop-side "
                        "code without holding the lock; the reader can "
                        "observe a torn update",
                    )
                )
    # one site can raise several identical events (a mutator call is both
    # a read of the container and a write through it) — report it once
    deduped: List[Finding] = []
    seen: Set[Tuple[str, int, str]] = set()
    for f in findings:
        key = (f.rule, f.line, f.message)
        if key not in seen:
            seen.add(key)
            deduped.append(f)
    return deduped


@family_checker("locks")
def check_locks(
    project: Project,
    prefixes: Sequence[str] = LOCK_PREFIXES,
) -> List[Finding]:
    findings: List[Finding] = []
    for src in project.iter_files(list(prefixes)):
        tree = src.tree
        if tree is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(_check_class(node, src))
    return findings
