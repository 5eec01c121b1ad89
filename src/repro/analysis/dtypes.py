"""Dtype-hygiene rules (family ``dtypes``).

The columnar pricing engine's contract is *bit-identity*: replay through
:mod:`repro.sim.columnar` must produce exactly the cycle counts that the
per-op reference pricer under ``tests/`` produces, across interpreter
versions and numpy builds.
Integer cycle arithmetic is what makes that promise cheap to keep —
int64 adds are associative and exact, float64 adds are neither.  One
``/`` where ``//`` was meant, one ``np.mean`` (which always promotes to
float64), one ``* 1.5`` folded into a cycle column, and the engine's
results start depending on summation order.

This family runs a forward **must**-analysis (intersection at joins)
over each pricing-kernel function in ``sim/columnar.py`` and
``sim/hierarchy.py``, tracking which locals are provably integer numpy
arrays, and flags the three promotion shapes:

* ``VIA701`` (error) — true division ``/`` with a must-int operand
  (promotes to float64; integer cycle math wants ``//``);
* ``VIA702`` (error) — ``np.mean(x)`` / ``x.mean()`` on a must-int
  array without an explicit ``dtype=`` (silently accumulates in
  float64; passing ``dtype`` states the promotion is intended);
* ``VIA703`` (error) — a float literal folded into ``+``/``-``/``*``
  arithmetic with a must-int operand.

Only explicit integer evidence seeds the analysis (``dtype=np.int64``
array constructors, ``.astype(int...)``, integer scalar constructors,
``searchsorted`` results) — plain python ints and ambient lists never
do, so an array that is float on purpose, such as the hierarchy's
cumulative level latencies (``np.cumsum(..., dtype=np.float64)``),
stays out of scope.  Intended promotions are annotated with an explicit
``dtype=`` or a ``# via: ignore[VIA70x]`` beside the arithmetic.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Block,
    Finding,
    Project,
    SourceFile,
    family_checker,
    function_cfgs,
    make_finding,
    rule,
    solve_forward,
)

VIA701 = rule(
    "VIA701",
    "dtypes",
    "true division on an integer array promotes cycle math to float",
)
VIA702 = rule(
    "VIA702",
    "dtypes",
    "mean() on an integer array accumulates in float64 without saying so",
)
VIA703 = rule(
    "VIA703",
    "dtypes",
    "float literal folded into integer cycle arithmetic",
)

#: files this family scans — the pricing kernels under the bit-identity
#: contract
DTYPE_SCOPES: Tuple[str, ...] = (
    "repro/sim/columnar.py",
    "repro/sim/hierarchy.py",
)

#: dtype spellings that prove integerness
_INT_DTYPE_LEAVES = frozenset(
    {
        "int", "int_", "intp", "intc",
        "int8", "int16", "int32", "int64",
        "uint", "uint8", "uint16", "uint32", "uint64",
    }
)

#: numpy constructors that yield an int array when dtype= is int
_ARRAY_CTORS = frozenset(
    {
        "zeros", "ones", "empty", "full", "arange", "array", "asarray",
        "zeros_like", "ones_like", "empty_like", "full_like", "fromiter",
    }
)

#: calls whose result is int whenever their (first) array argument is
_INT_PRESERVING_CALLS = frozenset(
    {
        "cumsum", "sum", "clip", "abs", "absolute", "maximum", "minimum",
        "where", "concatenate", "repeat", "take", "roll", "sort", "copy",
        "reshape", "ravel", "flatten", "diff",
    }
)

#: calls returning integer indices regardless of input dtype
_ALWAYS_INT_CALLS = frozenset(
    {"searchsorted", "argsort", "argmax", "argmin", "count_nonzero", "nonzero"}
)

#: binary ops that keep integer arrays integer
_INT_PRESERVING_OPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.FloorDiv,
    ast.LShift, ast.RShift, ast.BitOr, ast.BitAnd, ast.BitXor,
)

_State = Optional[FrozenSet[str]]


def _call_leaf(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _is_int_dtype_expr(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in _INT_DTYPE_LEAVES
    if isinstance(expr, ast.Attribute):
        return expr.attr in _INT_DTYPE_LEAVES
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value.lstrip("<>=|").startswith(("int", "uint"))
    return False


def _dtype_kw(call: ast.Call) -> Optional[ast.expr]:
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    return None


class _IntTracker:
    """Decides integerness of expressions under a must-int var set."""

    def __init__(self, ints: FrozenSet[str]):
        self.ints = ints

    def is_int(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.ints
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, int) and not isinstance(
                expr.value, bool
            )
        if isinstance(expr, ast.Subscript):
            return self.is_int(expr.value)
        if isinstance(expr, ast.UnaryOp):
            return self.is_int(expr.operand)
        if isinstance(expr, ast.BinOp):
            return (
                isinstance(expr.op, _INT_PRESERVING_OPS)
                and self.is_int(expr.left)
                and self.is_int(expr.right)
            )
        if isinstance(expr, ast.Call):
            return self._call_is_int(expr)
        return False

    def _call_is_int(self, call: ast.Call) -> bool:
        leaf = _call_leaf(call)
        if leaf is None:
            return False
        if leaf in _INT_DTYPE_LEAVES:
            return True  # np.int64(x), int(x): integer scalar constructors
        if leaf in _ALWAYS_INT_CALLS:
            return True
        if leaf == "astype":
            return bool(call.args) and _is_int_dtype_expr(call.args[0])
        dtype = _dtype_kw(call)
        if leaf in _ARRAY_CTORS:
            return dtype is not None and _is_int_dtype_expr(dtype)
        if leaf in _INT_PRESERVING_CALLS:
            if dtype is not None:
                return _is_int_dtype_expr(dtype)
            operands: List[ast.expr] = list(call.args)
            if isinstance(call.func, ast.Attribute) and not isinstance(
                call.func.value, ast.Attribute
            ):
                # x.cumsum(): the receiver is the array operand
                operands.append(call.func.value)
            array_ish = [
                op
                for op in operands
                if not (isinstance(op, ast.Constant))
            ]
            return bool(array_ish) and all(self.is_int(op) for op in array_ish)
        return False


class _FunctionDtypes:
    """Forward must-int analysis + promotion reporting for one function."""

    def __init__(self, src: SourceFile, qualname: str):
        self.src = src
        self.qualname = qualname

    # -- transfer ------------------------------------------------------
    def transfer(self, block: Block, state: FrozenSet[str]) -> Tuple[_State, _State]:
        out = self._apply(block, state)
        # types do not change when a statement raises: the handler sees
        # the pre-statement bindings
        return out, state

    def _apply(self, block: Block, state: FrozenSet[str]) -> FrozenSet[str]:
        stmt = block.stmt
        if stmt is None:
            return state
        tracker = _IntTracker(state)
        if block.kind == "loop" and isinstance(stmt, (ast.For, ast.AsyncFor)):
            # `for v in arr:` binds int elements from an int array
            if isinstance(stmt.target, ast.Name):
                if tracker.is_int(stmt.iter):
                    return state | {stmt.target.id}
                return state - {stmt.target.id}
            return state
        if block.kind != "stmt":
            return state
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                if tracker.is_int(stmt.value):
                    return state | {target.id}
                return state - {target.id}
            if isinstance(target, ast.Tuple):
                names = {e.id for e in target.elts if isinstance(e, ast.Name)}
                return state - frozenset(names)
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.value is not None and tracker.is_int(stmt.value):
                return state | {stmt.target.id}
            return state - {stmt.target.id}
        if isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            if name in state:
                keeps = isinstance(
                    stmt.op, _INT_PRESERVING_OPS
                ) and tracker.is_int(stmt.value)
                return state if keeps else state - {name}
        return state

    # -- reporting -----------------------------------------------------
    def report(self, block: Block, state: FrozenSet[str]) -> List[Finding]:
        stmt = block.stmt
        if stmt is None or block.kind in ("with-exit", "handler"):
            return []
        tracker = _IntTracker(state)
        findings: List[Finding] = []
        for node in self._payload_exprs(block):
            for sub in ast.walk(node):
                if isinstance(sub, ast.BinOp):
                    findings.extend(self._check_binop(sub, tracker))
                elif isinstance(sub, ast.Call):
                    findings.extend(self._check_call(sub, tracker))
        if (
            isinstance(stmt, ast.AugAssign)
            and isinstance(stmt.op, ast.Div)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id in state
        ):
            findings.append(self._div_finding(stmt.lineno))
        return findings

    def _payload_exprs(self, block: Block) -> List[ast.expr]:
        stmt = block.stmt
        assert stmt is not None
        if block.kind == "branch":
            if isinstance(stmt, (ast.If, ast.While)):
                return [stmt.test]
            subject = getattr(stmt, "subject", None)
            return [subject] if subject is not None else []
        if block.kind == "loop" and isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if block.kind == "with-enter" and isinstance(
            stmt, (ast.With, ast.AsyncWith)
        ):
            return [item.context_expr for item in stmt.items]
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return []
        return [n for n in ast.iter_child_nodes(stmt) if isinstance(n, ast.expr)]

    def _check_binop(
        self, node: ast.BinOp, tracker: _IntTracker
    ) -> List[Finding]:
        out: List[Finding] = []
        # bare int literals propagate intness (`arr + 1`) but must not
        # *trigger* findings — `total / 2` on a float total is fine
        left_int = tracker.is_int(node.left) and not isinstance(
            node.left, ast.Constant
        )
        right_int = tracker.is_int(node.right) and not isinstance(
            node.right, ast.Constant
        )
        if isinstance(node.op, ast.Div) and (left_int or right_int):
            out.append(self._div_finding(node.lineno))
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if (
                    isinstance(a, ast.Constant)
                    and isinstance(a.value, float)
                    and not isinstance(b, ast.Constant)
                    and tracker.is_int(b)
                ):
                    out.append(
                        make_finding(
                            VIA703, self.src.rel, node.lineno,
                            f"float literal {a.value!r} folded into integer "
                            f"cycle arithmetic in {self.qualname}(); the "
                            "result silently becomes float64 and the "
                            "bit-identity contract now depends on summation "
                            "order — keep cycle math integral or make the "
                            "promotion explicit with astype/dtype",
                        )
                    )
                    break
        return out

    def _check_call(self, call: ast.Call, tracker: _IntTracker) -> List[Finding]:
        if _call_leaf(call) != "mean" or _dtype_kw(call) is not None:
            return []
        operand: Optional[ast.expr] = None
        if call.args:
            operand = call.args[0]
        elif isinstance(call.func, ast.Attribute):
            operand = call.func.value
        if operand is None or not tracker.is_int(operand):
            return []
        return [
            make_finding(
                VIA702, self.src.rel, call.lineno,
                f"mean() of an integer array in {self.qualname}() "
                "accumulates in float64; pass an explicit dtype= to state "
                "the promotion is intended (or keep a summed int and divide "
                "at the edge)",
            )
        ]

    def _div_finding(self, line: int) -> Finding:
        return make_finding(
            VIA701, self.src.rel, line,
            f"true division on an integer operand in {self.qualname}() "
            "promotes cycle math to float64, breaking exactness; use // "
            "for integer cycles or astype(float) to make the promotion "
            "explicit",
        )


def _scan_file(src: SourceFile) -> List[Finding]:
    tree = src.tree
    if tree is None:
        return []
    findings: List[Finding] = []
    for qualname, cfg in function_cfgs(tree):
        analysis = _FunctionDtypes(src, qualname)
        init: FrozenSet[str] = frozenset()
        solution = solve_forward(
            cfg,
            init=init,
            bottom=None,
            join=lambda a, b: a & b,
            transfer=analysis.transfer,
        )
        seen: Set[Tuple[str, int, str]] = set()
        for bid in cfg.reachable():
            state = solution.in_states[bid]
            if state is None:
                continue
            for finding in analysis.report(cfg.blocks[bid], state):
                key = (finding.rule, finding.line, finding.message)
                if key not in seen:
                    seen.add(key)
                    findings.append(finding)
    return findings


@family_checker("dtypes")
def check_dtypes(
    project: Project,
    scopes: Sequence[str] = DTYPE_SCOPES,
) -> List[Finding]:
    findings: List[Finding] = []
    for src in project.iter_files(list(scopes)):
        findings.extend(_scan_file(src))
    return findings
