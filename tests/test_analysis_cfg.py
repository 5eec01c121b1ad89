"""CFG builder and fixpoint solver, tested structurally.

The rule families assert over program *paths*; these tests pin the path
structure itself — which edges exist, where jumps route, how exception
state is kept apart from normal state — plus the generic solvers on toy
lattices, so a regression here is caught before it surfaces as a
mysterious lifecycle false positive.
"""

import ast
import textwrap

import pytest

from repro.analysis.cfg import function_cfgs
from repro.analysis.dataflow import (
    FixpointDiverged,
    solve_backward,
    solve_forward,
)


def cfg_of(source, name="f"):
    tree = ast.parse(textwrap.dedent(source))
    for qualname, cfg in function_cfgs(tree):
        if qualname == name:
            return cfg
    raise AssertionError(f"no function {name!r} in fixture")


def kinds(cfg):
    return {bid: cfg.blocks[bid].kind for bid in cfg.blocks}


def edges(cfg):
    return {
        (e.src, e.dst, e.kind)
        for b in cfg.blocks.values()
        for e in b.succs
    }


def blocks_of_kind(cfg, kind):
    return [bid for bid, b in sorted(cfg.blocks.items()) if b.kind == kind]


class TestBuilder:
    def test_if_merges_and_both_arms_reach_exit(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        reach = set(cfg.reachable())
        assert cfg.exit in reach
        stmt_blocks = [b for b in blocks_of_kind(cfg, "stmt") if b in reach]
        assert len(stmt_blocks) == 3  # a=1, a=2, return

    def test_every_payload_block_has_an_exc_edge(self):
        cfg = cfg_of(
            """
            def f(x):
                a = g(x)
                b = h(a)
                return b
            """
        )
        for bid in blocks_of_kind(cfg, "stmt"):
            exc = [e for e in cfg.blocks[bid].succs if e.kind == "exc"]
            assert exc == [
                e for e in cfg.blocks[bid].succs if e.dst == cfg.raise_exit
            ]
            assert len(exc) == 1

    def test_while_has_back_edge_and_break_targets_after(self):
        cfg = cfg_of(
            """
            def f(x):
                while x:
                    if g(x):
                        break
                    x = h(x)
                return x
            """
        )
        (head,) = [
            bid
            for bid in blocks_of_kind(cfg, "branch")
            if isinstance(cfg.blocks[bid].stmt, ast.While)
        ]
        # the loop body feeds the head again (back edge)
        assert any(e.src != cfg.entry for e in cfg.blocks[head].preds
                   if e.src > head)
        # break reaches the return without re-entering the head
        reach = set(cfg.reachable())
        assert cfg.exit in reach

    def test_return_routes_through_finally(self):
        cfg = cfg_of(
            """
            def f(x):
                try:
                    return g(x)
                finally:
                    cleanup()
            """
        )
        (cleanup,) = [
            bid
            for bid in blocks_of_kind(cfg, "stmt")
            if isinstance(cfg.blocks[bid].stmt, ast.Expr)
        ]
        (ret,) = [
            bid
            for bid in blocks_of_kind(cfg, "stmt")
            if isinstance(cfg.blocks[bid].stmt, ast.Return)
        ]
        # the return must not reach exit directly — its continuation is
        # wired from the end of the finally body instead
        assert (ret, cfg.exit, "normal") not in edges(cfg)
        assert (cleanup, cfg.exit, "normal") in edges(cfg)

    def test_catch_all_handler_removes_escape_edge(self):
        caught = cfg_of(
            """
            def f(x):
                try:
                    g(x)
                except Exception:
                    h()
            """
        )
        escaped = cfg_of(
            """
            def f(x):
                try:
                    g(x)
                except OSError:
                    h()
            """
        )

        def dispatch_escapes(cfg):
            (dispatch,) = [
                bid
                for bid in blocks_of_kind(cfg, "join")
                if any(e.kind == "exc" for e in cfg.blocks[bid].preds)
            ]
            return any(
                e.dst == cfg.raise_exit for e in cfg.blocks[dispatch].succs
            )

        assert not dispatch_escapes(caught)
        assert dispatch_escapes(escaped)

    def test_handler_entry_has_no_exc_edge(self):
        # the entry executes no user code; an exc edge there would leak
        # the pre-handler state past whatever cleanup the body performs
        cfg = cfg_of(
            """
            def f(x):
                try:
                    g(x)
                except OSError:
                    h()
                    raise
            """
        )
        for bid in blocks_of_kind(cfg, "handler"):
            assert all(e.kind == "normal" for e in cfg.blocks[bid].succs)

    def test_with_separates_exception_exit_from_jump_exit(self):
        cfg = cfg_of(
            """
            def f(x):
                with g(x):
                    if x:
                        return 1
                    h(x)
                return 0
            """
        )
        exits = blocks_of_kind(cfg, "with-exit")
        assert len(exits) == 3  # exceptional, jump-routing, normal
        # exactly one exit block propagates the exception and nothing else
        (exc_exit,) = [
            bid
            for bid in exits
            if all(e.kind == "exc" for e in cfg.blocks[bid].succs)
        ]
        # the block routing the early return must not be the one feeding
        # the raise exit, or exception state bleeds into the normal exit
        (jump_exit,) = [
            bid
            for bid in exits
            if any(
                e.dst == cfg.exit and e.kind == "normal"
                for e in cfg.blocks[bid].succs
            )
            and bid != exc_exit
        ]
        assert all(e.kind == "normal" for e in cfg.blocks[jump_exit].succs)

    def test_function_cfgs_yields_dotted_qualnames(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def top():
                    pass

                class C:
                    def method(self):
                        def inner():
                            pass
                """
            )
        )
        names = [qualname for qualname, _ in function_cfgs(tree)]
        assert names == ["top", "C.method", "C.method.inner"]


class TestForwardSolver:
    def assigned_names(self, cfg):
        """Toy gen-only analysis: which names may be bound at each block."""

        def transfer(block, state):
            stmt = block.stmt
            if isinstance(stmt, ast.Assign):
                out = state | {
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                }
                return out, state  # the binding is absent on the exc edge
            if block.kind == "stmt":
                return state, None  # only assignments raise in this toy
            return state, state

        return solve_forward(
            cfg,
            init=frozenset(),
            bottom=None,
            join=lambda a, b: a | b,
            transfer=transfer,
        )

    def test_branch_states_join_at_exit(self):
        cfg = cfg_of(
            """
            def f(x):
                if x:
                    a = g()
                else:
                    b = g()
                return x
            """
        )
        sol = self.assigned_names(cfg)
        assert sol.in_states[cfg.exit] == {"a", "b"}

    def test_exception_edge_carries_pre_statement_state(self):
        cfg = cfg_of(
            """
            def f(x):
                a = g(x)
                b = g(a)
                return b
            """
        )
        sol = self.assigned_names(cfg)
        # b = g(a) raising means 'b' was never bound; 'a' may be
        assert sol.in_states[cfg.raise_exit] == {"a"}

    def test_bottom_blocks_stay_unreached(self):
        cfg = cfg_of(
            """
            def f(x):
                return x
                a = dead()
            """
        )
        sol = self.assigned_names(cfg)
        dead = [
            bid
            for bid in cfg.blocks
            if isinstance(cfg.blocks[bid].stmt, ast.Assign)
        ]
        assert all(sol.in_states[bid] is None for bid in dead)

    def test_loop_reaches_fixpoint(self):
        cfg = cfg_of(
            """
            def f(n):
                while n:
                    a = g(n)
                return n
            """
        )
        sol = self.assigned_names(cfg)
        assert sol.in_states[cfg.exit] == {"a"}

    def test_non_monotone_transfer_raises(self):
        cfg = cfg_of(
            """
            def f(n):
                while n:
                    a = g(n)
                return n
            """
        )
        counter = {"n": 0}

        def transfer(block, state):
            counter["n"] += 1
            return frozenset({counter["n"]}), None

        with pytest.raises(FixpointDiverged):
            solve_forward(
                cfg,
                init=frozenset(),
                bottom=None,
                join=lambda a, b: a | b,
                transfer=transfer,
                max_steps=50,
            )


class TestBackwardSolver:
    def test_toy_liveness(self):
        cfg = cfg_of(
            """
            def f(x):
                a = g()
                b = g()
                return a
            """
        )

        def transfer(block, state):
            stmt = block.stmt
            live = set(state)
            if isinstance(stmt, ast.Assign):
                live -= {
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                }
            for node in ast.walk(stmt) if stmt is not None else ():
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Load
                ):
                    live.add(node.id)
            return frozenset(live)

        sol = solve_backward(
            cfg,
            init=frozenset(),
            bottom=None,
            join=lambda a, b: a | b,
            transfer=transfer,
        )
        # at entry only the global 'g' is live ('a' is defined before its
        # use; 'b' is dead)
        assert sol.out_states[cfg.entry] == {"g"}
        (ret,) = [
            bid
            for bid in cfg.blocks
            if isinstance(cfg.blocks[bid].stmt, ast.Return)
        ]
        assert "a" in sol.out_states[ret]
