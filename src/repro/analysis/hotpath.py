"""Hot-path narration rules (family ``hotpath``).

The batched narration pipeline exists so that the record path never pays
a per-op Python object: :class:`~repro.sim.core.Core` buffers narration
in a :class:`~repro.sim.columnar.ColumnarBuilder` and prices whole
flushes vectorised.  That win evaporates the moment someone reintroduces
per-op ``Op`` construction on a hot path — one innocent-looking
``GatherOp(...)`` inside a kernel loop silently restores the old
allocation-per-element cost *and* bypasses the builder's flush
accounting.  These rules turn the convention into a checkable gate:

* ``VIA401`` (error) — an :mod:`repro.sim.ops` op class is constructed
  inside a ``for``/``while`` loop in a hot-path module
  (``repro.sim.core`` and everything under ``repro.kernels``).  Loops
  are where per-op costs multiply; narrate through the ``Core`` methods
  (which append builder rows) instead.
* ``VIA402`` (error) — a kernel module, or ``repro.sim.core`` itself,
  constructs an op class *at all*.  Kernels narrate exclusively through
  the ``Core`` API, and ``Core`` buffers every narration call as a
  builder row; building IR objects directly skips validation, the
  builder, and the backend seam.  Op records are materialized only off
  the hot path, from finished columns (execution traces, the test
  oracle).

A justified exception is silenced with ``# via: ignore[VIA401]`` next to
the call, where the reviewer can see the reasoning.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence

from repro.analysis.core import (
    Finding,
    Project,
    SourceFile,
    family_checker,
    import_aliases,
    make_finding,
    resolve_call_name,
    rule,
)

VIA401 = rule(
    "VIA401",
    "hotpath",
    "per-op Op construction inside a hot-path loop; narrate through the builder",
)
VIA402 = rule(
    "VIA402",
    "hotpath",
    "hot-path module constructs an op object directly; use the Core "
    "narration API",
)

#: the module whose classes are the narration IR
OP_MODULE = "repro.sim.ops"

#: hot-path scopes where loops must not build per-op objects (VIA401)
LOOP_SCOPES: Sequence[str] = ("repro/sim/core.py", "repro/kernels/")

#: scopes where op construction is banned outright (VIA402)
KERNEL_SCOPES: Sequence[str] = ("repro/sim/core.py", "repro/kernels/")


def _is_op_class(dotted: str) -> bool:
    """True for ``repro.sim.ops.<OpClass>`` (``Op``, ``*Op``, ``*OpRecord``)."""
    prefix = OP_MODULE + "."
    if not dotted.startswith(prefix):
        return False
    leaf = dotted[len(prefix):]
    if "." in leaf or not leaf[:1].isupper():
        return False
    return leaf == "Op" or leaf.endswith("Op") or leaf.endswith("OpRecord")


def _op_calls(
    tree: ast.Module, aliases: Dict[str, str], *, loops_only: bool
) -> List[ast.Call]:
    """Op-class constructor calls, optionally only those inside loops."""

    calls: List[ast.Call] = []

    def visit(node: ast.AST, in_loop: bool) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            in_loop = True
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # a nested function body runs when *called*, not where it is
            # defined — its loop context starts fresh
            in_loop = False
        if isinstance(node, ast.Call):
            name = resolve_call_name(node.func, aliases)
            if name is not None and _is_op_class(name):
                if in_loop or not loops_only:
                    calls.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop)

    visit(tree, False)
    return calls


def _leaf(dotted: Optional[str]) -> str:
    return (dotted or "?").rsplit(".", 1)[-1]


def _scan_file(
    src: SourceFile, *, loop_rule: bool, kernel_rule: bool
) -> List[Finding]:
    tree = src.tree
    if tree is None:
        return []
    aliases = import_aliases(tree)
    findings: List[Finding] = []
    if kernel_rule:
        for call in _op_calls(tree, aliases, loops_only=False):
            name = _leaf(resolve_call_name(call.func, aliases))
            findings.append(
                make_finding(
                    VIA402,
                    src.rel,
                    call.lineno,
                    f"hot path constructs {name} directly; narrate through "
                    f"the Core methods so the builder prices it",
                )
            )
    if loop_rule:
        for call in _op_calls(tree, aliases, loops_only=True):
            name = _leaf(resolve_call_name(call.func, aliases))
            findings.append(
                make_finding(
                    VIA401,
                    src.rel,
                    call.lineno,
                    f"{name} constructed inside a loop on the hot path; "
                    f"per-op objects defeat batched narration — use the "
                    f"ColumnarBuilder append methods",
                )
            )
    return findings


@family_checker("hotpath")
def check_hotpath(
    project: Project,
    loop_scopes: Sequence[str] = LOOP_SCOPES,
    kernel_scopes: Sequence[str] = KERNEL_SCOPES,
) -> List[Finding]:
    findings: List[Finding] = []
    for src in project.iter_files(list(loop_scopes) + list(kernel_scopes)):
        kernel = any(p in src.rel for p in kernel_scopes)
        loop = any(p in src.rel for p in loop_scopes)
        findings.extend(_scan_file(src, loop_rule=loop, kernel_rule=kernel))
    return findings
