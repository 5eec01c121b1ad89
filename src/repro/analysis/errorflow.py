"""Error-contract rules (family ``errorflow``).

``repro.serve`` promises clients that every failure arrives as a
*structured* wire error: ``error_payload`` in :mod:`repro.serve.jobs`
maps the exception hierarchy to ``{code, retry_after, ...}`` payloads.
An exception type the mapping has never heard of collapses to the
catch-all ``internal`` code — the client loses the ability to decide
retry vs. give-up, and the admission/poison machinery loses its signal.

Like VIA100 cross-checks the cache-key builders, this family
cross-checks the serve layer against its own boundary function:

* ``VIA601`` (error) — a ``raise`` in ``repro/serve/`` or in the worker
  pool serving shares with sweeps (``repro/eval/supervisor.py``) whose
  exception type is resolvable but **not** mapped by ``error_payload``
  (directly or via a subclass of a mapped type).  Raise helpers
  (``raise _bad_spec(...)``) are resolved one level deep, ``raise exc``
  resolves through ``except X as exc`` bindings and local
  ``exc = Cls(...)`` assignments; anything unresolvable is skipped —
  the rule flags only provable contract breaks;
* ``VIA602`` (warning) — a broad handler (bare ``except``,
  ``except Exception``/``BaseException``) that swallows: its body
  neither re-raises, nor references the bound exception, nor logs.
  Crash evidence silently discarded is how poison jobs become
  heisenbugs;
* ``VIA603`` (error) — the anchor itself is broken: ``error_payload``
  exists but its ``isinstance`` mapping cannot be extracted, so the
  whole contract is unverifiable.

The family is *reachability-approximate*: intraprocedurally, every
``raise`` in serve modules is treated as reachable from the
executor/scheduler entry points.  That over-approximates (helpers only
called from tests count too) but never under-approximates, and the
suppression machinery covers the deliberate exceptions.  When the
project under analysis has no ``repro/serve/jobs.py`` the family skips
silently — same behaviour as the keys family when a binding's module is
absent from the file set.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    Project,
    SourceFile,
    family_checker,
    make_finding,
    rule,
)

VIA601 = rule(
    "VIA601",
    "errorflow",
    "raise of an exception type unmapped by error_payload",
)
VIA602 = rule(
    "VIA602",
    "errorflow",
    "broad except swallows the exception without re-raise, use, or logging",
    severity="warning",
)
VIA603 = rule(
    "VIA603",
    "errorflow",
    "error_payload anchor exists but its mapping cannot be extracted",
)

#: path fragments this family scans: the serve tier and the worker pool
#: whose errors it hands to clients
ERRORFLOW_PREFIXES: Tuple[str, ...] = ("repro/serve/", "repro/eval/supervisor.py")

#: the module holding the boundary mapping
ANCHOR_MODULE = "repro.serve.jobs"
ANCHOR_FUNCTION = "error_payload"

#: exception leaves that never cross the wire as job errors — control
#: flow (generators/cancellation), interpreter shutdown, and assertions,
#: which the supervisor layer converts to crash evidence itself; plus
#: transport teardown: when the peer socket is already gone there is no
#: client left to deliver a payload to, so mapping the type is moot
_EXEMPT_LEAVES = frozenset(
    {
        "StopIteration",
        "StopAsyncIteration",
        "GeneratorExit",
        "KeyboardInterrupt",
        "SystemExit",
        "CancelledError",
        "AssertionError",
        "NotImplementedError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionAbortedError",
        "BrokenPipeError",
    }
)

_BROAD = ("Exception", "BaseException")

_LOG_LEAVES = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log", "print"}
)


def _class_leaf(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _mapped_classes(anchor: SourceFile) -> Optional[Set[str]]:
    """Class leaves ``error_payload`` maps, or None when unextractable."""
    tree = anchor.tree
    if tree is None:
        return None
    func: Optional[ast.FunctionDef] = None
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == ANCHOR_FUNCTION:
            func = node
            break
    if func is None:
        return None
    mapped: Set[str] = set()
    for node in ast.walk(func):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        spec = node.args[1]
        types = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for t in types:
            leaf = _class_leaf(t)
            if leaf is not None:
                mapped.add(leaf)
    return mapped or None


def _subclass_closure(project: Project, mapped: Set[str]) -> Set[str]:
    """Add every project class transitively deriving from a mapped one."""
    bases_by_class: Dict[str, Set[str]] = {}
    for src in project.files:
        tree = src.tree
        if tree is None:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {
                    b for b in (_class_leaf(base) for base in node.bases)
                    if b is not None
                }
                bases_by_class.setdefault(node.name, set()).update(bases)
    closed = set(mapped)
    changed = True
    while changed:
        changed = False
        for cls, bases in bases_by_class.items():
            if cls not in closed and bases & closed:
                closed.add(cls)
                changed = True
    return closed


class _FunctionScanner:
    """Per-function raise resolution with handler/assignment bindings."""

    def __init__(
        self,
        src: SourceFile,
        helpers: Dict[str, Optional[str]],
        mapped: Set[str],
        findings: List[Finding],
    ):
        self.src = src
        self.helpers = helpers
        self.mapped = mapped
        self.findings = findings

    def scan(self, func: ast.AST) -> None:
        #: name -> exception-class leaves it may hold (None = unknown)
        bound: Dict[str, Optional[Tuple[str, ...]]] = {}
        self._visit_body(list(ast.iter_child_nodes(func)), bound)

    def _visit_body(
        self,
        nodes: Sequence[ast.AST],
        bound: Dict[str, Optional[Tuple[str, ...]]],
    ) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested scopes get their own scan
            if isinstance(node, ast.ExceptHandler):
                inner = dict(bound)
                if node.name is not None:
                    inner[node.name] = self._handler_types(node)
                self._visit_body(list(ast.iter_child_nodes(node)), inner)
                continue
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                name = node.targets[0].id
                if isinstance(node.value, ast.Call):
                    leaf = _class_leaf(node.value.func)
                    bound[name] = (leaf,) if leaf is not None else None
                else:
                    bound[name] = None
            if isinstance(node, ast.Raise):
                self._check_raise(node, bound)
            self._visit_body(list(ast.iter_child_nodes(node)), bound)

    @staticmethod
    def _handler_types(handler: ast.ExceptHandler) -> Optional[Tuple[str, ...]]:
        if handler.type is None:
            return None
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        leaves = [_class_leaf(t) for t in types]
        if any(leaf is None for leaf in leaves):
            return None
        return tuple(leaf for leaf in leaves if leaf is not None)

    def _check_raise(
        self,
        node: ast.Raise,
        bound: Dict[str, Optional[Tuple[str, ...]]],
    ) -> None:
        if node.exc is None:
            return  # bare re-raise: the original type is someone else's
        leaves = self._resolve(node.exc, bound)
        if leaves is None:
            return  # unresolvable: flag only provable breaks
        unmapped = [
            leaf
            for leaf in leaves
            if leaf not in self.mapped and leaf not in _EXEMPT_LEAVES
        ]
        if unmapped:
            names = ", ".join(sorted(set(unmapped)))
            self.findings.append(
                make_finding(
                    VIA601, self.src.rel, node.lineno,
                    f"raises {names}, which error_payload() does not map; "
                    "clients see the catch-all 'internal' code and cannot "
                    "make a retry decision — raise a mapped type (ServeError "
                    "and friends) or extend the mapping",
                )
            )

    def _resolve(
        self,
        exc: ast.expr,
        bound: Dict[str, Optional[Tuple[str, ...]]],
    ) -> Optional[Tuple[str, ...]]:
        if isinstance(exc, ast.Call):
            leaf = _class_leaf(exc.func)
            if leaf is None:
                return None
            if leaf in self.helpers:
                helper_cls = self.helpers[leaf]
                return (helper_cls,) if helper_cls is not None else None
            if leaf[:1].isupper():
                return (leaf,)
            return None  # lowercase non-helper callee: unknown factory
        if isinstance(exc, ast.Name):
            if exc.id in bound:
                return bound[exc.id]
            if exc.id[:1].isupper():
                return (exc.id,)  # raise Cls (no call) — still the type
            return None
        return None


def _raise_helpers(tree: ast.Module) -> Dict[str, Optional[str]]:
    """Module functions that *return* an exception to be raised.

    ``def _bad_spec(reason): return ServeError(...)`` makes
    ``raise _bad_spec(...)`` resolvable.  A helper whose returns are not
    all one constructor maps to ``None`` (unknown, skipped).
    """
    helpers: Dict[str, Optional[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        returned: Set[Optional[str]] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and sub.value is not None:
                if isinstance(sub.value, ast.Call):
                    returned.add(_class_leaf(sub.value.func))
                else:
                    returned.add(None)
        concrete = {r for r in returned if r is not None and r[:1].isupper()}
        if len(returned) == 1 and len(concrete) == 1:
            helpers[node.name] = next(iter(concrete))
    return helpers


def _swallowing_handlers(src: SourceFile, findings: List[Finding]) -> None:
    tree = src.tree
    if tree is None:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node):
            continue
        if _handler_engages(node):
            continue
        findings.append(
            make_finding(
                VIA602, src.rel, node.lineno,
                "broad except swallows the exception without re-raising, "
                "using, or logging it; crash evidence disappears — bind it "
                "(`except Exception as exc:`) and log or wrap it, or narrow "
                "the except to the types this code expects",
            )
        )


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return any(_class_leaf(t) in _BROAD for t in types)


def _handler_engages(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises, uses the exception, or logs."""
    name = handler.name
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if name is not None and isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Call):
            leaf = _class_leaf(node.func)
            if leaf in _LOG_LEAVES:
                return True
    return False


@family_checker("errorflow")
def check_errorflow(
    project: Project,
    prefixes: Sequence[str] = ERRORFLOW_PREFIXES,
) -> List[Finding]:
    anchor = project.module(ANCHOR_MODULE)
    if anchor is None:
        # the boundary isn't part of this file set (fixture projects,
        # partial runs): nothing to cross-check against
        return []
    findings: List[Finding] = []
    mapped = _mapped_classes(anchor)
    if mapped is None:
        findings.append(
            make_finding(
                VIA603, anchor.rel, 1,
                f"{ANCHOR_FUNCTION}() in {ANCHOR_MODULE} exists but its "
                "isinstance mapping could not be extracted; the error "
                "contract is unverifiable — keep the mapping a plain "
                "isinstance chain",
            )
        )
        return findings
    closure = _subclass_closure(project, mapped)

    for src in project.iter_files(list(prefixes)):
        tree = src.tree
        if tree is None:
            continue
        helpers = _raise_helpers(tree)
        scanner_targets: List[ast.AST] = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for func in scanner_targets:
            _FunctionScanner(src, helpers, closure, findings).scan(func)
        _swallowing_handlers(src, findings)
    return findings
