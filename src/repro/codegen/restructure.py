"""The SPMD restructuring transformation (paper §3, last paragraph).

Takes the sequential AST plus a :class:`repro.codegen.plan.ParallelPlan`
and produces the parallel SPMD program:

1. **communication statements** — ``call acfd_exchange(k, arrays...)`` at
   every combined synchronization point; ``call acfd_pipe_recv/send``
   around pipelined self-dependent loops; ``x = acfd_allreduce_max(x)``
   after reduction loops;
2. **loop indices** — field-loop bounds clamped to the rank's owned range
   (``do i = max0(2, acfd_lo(1)), min0(n-1, acfd_hi(1))``);
3. **array sizes** — status arrays re-declared over the local owned block
   plus ghost layers (``v(acfd_lb('v', 1):acfd_ub('v', 1), ...)``), still
   indexed in global coordinates;
4. **read statements** — rank 0 reads, then broadcasts
   (``x = acfd_bcast(x)``); writes execute on rank 0 only;
5. **boundary code** — constant-subscript writes guarded by ownership
   tests (``if (acfd_owns(1, 1)) ...``).

All rank-dependent values flow through ``acfd_*`` runtime calls, so one
transformed program serves every rank (SPMD), exactly like the paper's
generated PVM/MPI Fortran.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.analysis.field_loops import classify_unit
from repro.analysis.stencil import SubscriptKind, analyze_subscript
from repro.codegen.plan import OverlapDecision, ParallelPlan, PlannedSync
from repro.errors import CodegenError
from repro.fortran import ast as A
from repro.fortran.symbols import SymbolTable, resolve_compilation_unit


def _call(name: str, *args: A.Expr) -> A.CallStmt:
    return A.CallStmt(name=name, args=list(args))


def _fn(name: str, *args: A.Expr) -> A.FuncCall:
    return A.FuncCall(name, list(args))


def _int(v: int) -> A.IntLit:
    return A.IntLit(v)


@dataclass
class _InsertOp:
    unit: str
    path: tuple
    mode: str  # before | after | append | prepend | append_body | append_arm
    stmts: list[A.Stmt]
    priority: int  # ordering among ops at the same position


class Restructurer:
    """Applies the plan to a deep copy of the sequential program."""

    def __init__(self, plan: ParallelPlan) -> None:
        self.plan = plan
        self.cu = copy.deepcopy(plan.cu)
        resolve_compilation_unit(self.cu)
        self.directives = plan.directives
        self.partition = plan.partition
        self.cut = set(plan.partition.cut_dims)
        self.ops: list[_InsertOp] = []
        self._probe_counter = 0

    # -- public -------------------------------------------------------------------

    def run(self) -> A.CompilationUnit:
        self._plan_frame_insertions()
        self._plan_sync_insertions()
        self._plan_pipe_insertions()
        self._plan_reduction_insertions()
        self._apply_insertions()
        for unit in self.cu.units:
            self._rewrite_declarations(unit)
            self._transform_unit_body(unit)
            self._transform_io(unit)
        self._apply_overlap()
        # re-resolve: new statements reference acfd_* externals
        resolve_compilation_unit(self.cu)
        return self.cu

    # -- insertion collection -----------------------------------------------------

    def _sync_call(self, sync_id: int) -> A.CallStmt:
        sync = self.plan.syncs[sync_id - 1]
        args: list[A.Expr] = [_int(sync_id)]
        args.extend(A.Var(name) for name, _d in sync.arrays)
        return _call("acfd_exchange", *args)

    def _plan_frame_insertions(self) -> None:
        """Plant the frame-boundary hook at the top of the time loop.

        ``if (acfd_frame(it, arrays...) .ne. 0) cycle`` gives the runtime
        one call per frame to checkpoint, restore, or inject faults; a
        nonzero return fast-forwards the frame during recovery.  On a real
        cluster the Fortran stub returns 0 and the statement is inert.
        Priority 10 "before" the first body statement keeps it above any
        exchange (priority 2) inserted at the same position.
        """
        from repro.codegen.schedule import _frame_loop_node
        node = _frame_loop_node(self.plan)
        if node is None:
            return
        try:
            table = self.plan.cu.unit(node.unit_name).symbols
        except KeyError:
            return
        args: list[A.Expr] = [A.Var(self.directives.frame_var)]
        for name in self.plan.arrays:
            sym = table.get(name)
            if sym is not None and sym.is_array:
                args.append(A.Var(name))
        hook = A.LogicalIf(cond=A.BinOp(".ne.", _fn("acfd_frame", *args),
                                        _int(0)),
                           stmt=A.CycleStmt())
        self.ops.append(_InsertOp(node.unit_name,
                                  node.path + (("body", 0),),
                                  "before", [hook], priority=10))

    def _plan_sync_insertions(self) -> None:
        for sync in self.plan.syncs:
            unit, path, mode = sync.insertion
            self.ops.append(_InsertOp(unit, path, mode,
                                      [self._sync_call(sync.sync_id)],
                                      priority=2))

    def _plan_pipe_insertions(self) -> None:
        for pipe in self.plan.pipes:
            args: list[A.Expr] = [_int(pipe.pipe_id)]
            args.extend(A.Var(name) for name in pipe.arrays)
            self.ops.append(_InsertOp(pipe.unit, pipe.path, "before",
                                      [_call("acfd_pipe_recv", *args)],
                                      priority=0))
            self.ops.append(_InsertOp(pipe.unit, pipe.path, "after",
                                      [_call("acfd_pipe_send", *args)],
                                      priority=0))

    def _plan_reduction_insertions(self) -> None:
        for plan in self.plan.reductions:
            stmts: list[A.Stmt] = []
            for red in plan.reductions:
                stmts.append(A.Assign(
                    target=A.Var(red.var),
                    value=_fn(f"acfd_allreduce_{red.op}", A.Var(red.var))))
            self.ops.append(_InsertOp(plan.unit, plan.path, "after",
                                      stmts, priority=1))

    # -- insertion application -----------------------------------------------------

    def _resolve_list(self, unit: A.ProgramUnit,
                      path: tuple) -> tuple[list[A.Stmt], int]:
        """The statement list owning the final path step, plus the index."""
        steps = list(path)
        cur_list: list[A.Stmt] = unit.body
        stmt: A.Stmt | None = None
        for kind, idx in steps[:-1]:
            if kind == "body":
                stmt = cur_list[idx]
                if isinstance(stmt, (A.DoLoop, A.DoWhile)):
                    cur_list = stmt.body
            elif kind == "arm":
                assert isinstance(stmt, A.IfBlock)
                cur_list = stmt.arms[idx][1]
            else:
                raise CodegenError(f"unknown path step {kind!r}")
        if not steps:
            return cur_list, 0
        kind, idx = steps[-1]
        if kind != "body":
            raise CodegenError(f"path must end in a body step, got {kind!r}")
        return cur_list, idx

    def _apply_insertions(self) -> None:
        # Insertions are applied in reverse document order: an insertion
        # never shifts the paths of positions before it, so every later
        # op's path stays valid.  At one position, priorities order the
        # inserted statements: lower priority hugs the target statement
        # (pipe_recv/send sit immediately around their loop, exchanges
        # and reductions outside them).
        _BIG = 1 << 30

        def position(op: _InsertOp) -> tuple:
            flat: list[int] = [idx for _kind, idx in op.path]
            if op.mode == "before":
                pass  # exactly at the final index
            elif op.mode == "after":
                flat.append(_BIG)
            elif op.mode in ("append_body", "append_arm"):
                flat.append(_BIG - 1)  # inside the statement, at its end
            elif op.mode == "append":
                flat = [_BIG]
            elif op.mode == "prepend":
                flat = [-1]
            return tuple(flat)

        def sort_key(op: _InsertOp):
            # reverse=True: larger position first; for ties, "before" ops
            # want ascending priority applied first (so use -priority),
            # "after"-style ops want descending (use +priority).
            tie = op.priority if op.mode != "before" else -op.priority
            return (op.unit, position(op), tie)

        for op in sorted(self.ops, key=sort_key, reverse=True):
            self._apply_one(op)

    def _locate(self, op: _InsertOp) -> tuple[list[A.Stmt], int]:
        unit = self.cu.unit(op.unit)
        if op.mode in ("append", "prepend"):
            return unit.body, 0 if op.mode == "prepend" else len(unit.body)
        if op.mode in ("append_body", "append_arm"):
            if op.mode == "append_arm":
                body_path, arm = op.path[:-1], op.path[-1][1]
                stmts, idx = self._resolve_list(unit, body_path)
                target = stmts[idx]
                assert isinstance(target, A.IfBlock)
                return target.arms[arm][1], len(target.arms[arm][1])
            stmts, idx = self._resolve_list(unit, op.path)
            target = stmts[idx]
            assert isinstance(target, (A.DoLoop, A.DoWhile))
            return target.body, len(target.body)
        return self._resolve_list(unit, op.path)

    def _apply_one(self, op: _InsertOp) -> None:
        stmts, index = self._locate(op)
        if op.mode == "after":
            index += 1
        elif op.mode in ("append", "append_body", "append_arm"):
            index = len(stmts)
        for offset, stmt in enumerate(op.stmts):
            stmts.insert(index + offset, stmt)

    # -- declarations ------------------------------------------------------------

    def _rewrite_declarations(self, unit: A.ProgramUnit) -> None:
        def rewrite_entities(entities: list[tuple[str, list[A.Expr]]]) -> None:
            for pos, (name, dims) in enumerate(entities):
                ap = self.plan.arrays.get(name)
                if ap is None or not dims:
                    continue
                new_dims: list[A.Expr] = []
                for adim, dim in enumerate(dims):
                    g = ap.dim_map[adim] if adim < len(ap.dim_map) else None
                    if g is None or g not in self.cut:
                        new_dims.append(dim)
                        continue
                    lo = _fn("acfd_lb", A.StringLit(name), _int(adim + 1))
                    hi = _fn("acfd_ub", A.StringLit(name), _int(adim + 1))
                    new_dims.append(A.RangeExpr(lo, hi))
                entities[pos] = (name, new_dims)

        for stmt in unit.decls:
            if isinstance(stmt, (A.Declaration, A.DimensionStmt,
                                 A.CommonStmt)):
                rewrite_entities(stmt.entities)

    # -- loop bounds, ownership guards ----------------------------------------------

    def _transform_unit_body(self, unit: A.ProgramUnit) -> None:
        classification = classify_unit(unit, self.directives)
        # loop-variable -> grid-dim map, per field loop nest
        clamp_map: dict[int, dict[str, int]] = {}
        for fl in classification.field_loops:
            var_to_dim = {var: g for g, var in fl.sweeps.items()
                          if g in self.cut}
            loop_ids = {id(fl.loop.stmt)}
            loop_ids.update(id(d.stmt) for d in fl.loop.descendants)
            for lid in loop_ids:
                clamp_map[lid] = var_to_dim
        table: SymbolTable = unit.symbols  # type: ignore[assignment]
        self._walk_body(unit.body, clamp_map, {}, table, unit.name)

    def _walk_body(self, body: list[A.Stmt], clamp_map: dict,
                   env: dict[str, int], table: SymbolTable,
                   unit_name: str) -> None:
        for i, stmt in enumerate(body):
            if isinstance(stmt, A.DoLoop):
                var_to_dim = clamp_map.get(id(stmt), {})
                g = var_to_dim.get(stmt.var)
                new_env = dict(env)
                if g is not None:
                    stmt.start = _fn("max0", stmt.start,
                                     _fn("acfd_lo", _int(g + 1)))
                    stmt.stop = _fn("min0", stmt.stop,
                                    _fn("acfd_hi", _int(g + 1)))
                    new_env[stmt.var] = g
                else:
                    new_env.pop(stmt.var, None)
                self._walk_body(stmt.body, clamp_map, new_env, table,
                                unit_name)
            elif isinstance(stmt, A.DoWhile):
                self._walk_body(stmt.body, clamp_map, env, table, unit_name)
            elif isinstance(stmt, A.IfBlock):
                for _cond, arm_body in stmt.arms:
                    self._walk_body(arm_body, clamp_map, env, table,
                                    unit_name)
            elif isinstance(stmt, A.Assign):
                guard, guarded_dims = self._ownership_guard(
                    stmt, env, table, unit_name)
                self._check_global_reads(stmt.value, env, table, unit_name,
                                         guarded_dims, stmt.line)
                if guard is not None:
                    body[i] = A.IfBlock(arms=[(guard, [stmt])],
                                        line=stmt.line, label=stmt.label)
                    stmt.label = None

    def _ownership_guard(self, stmt: A.Assign, env: dict[str, int],
                         table: SymbolTable, unit_name: str
                         ) -> tuple[A.Expr | None, dict[int, A.Expr]]:
        """Guard condition for boundary (constant-subscript) writes.

        Returns (guard expression or None, guarded dims with their
        guarded subscript expressions).
        """
        if not isinstance(stmt.target, A.ArrayRef):
            return None, {}
        name = stmt.target.name
        ap = self.plan.arrays.get(name)
        if ap is None:
            return None, {}
        loop_vars = set(env)
        invariants = {s.name: int(s.param_value)
                      for s in table.symbols.values()
                      if s.is_parameter and isinstance(s.param_value, int)}
        conds: list[A.Expr] = []
        guarded_dims: dict[int, A.Expr] = {}
        for adim, sub in enumerate(stmt.target.subs):
            g = ap.dim_map[adim]
            if g is None or g not in self.cut:
                continue
            info = analyze_subscript(sub, loop_vars, invariants)
            if info.kind is SubscriptKind.INDUCTION and info.var in env \
                    and env[info.var] == g:
                continue  # covered by the clamped loop bounds
            if info.kind is SubscriptKind.CONSTANT:
                conds.append(_fn("acfd_owns", _int(g + 1), sub))
                guarded_dims[g] = sub
                continue
            raise CodegenError(
                f"unsupported subscript on cut dimension {g} of status "
                f"array {name!r} in unit {unit_name!r} "
                f"(line {stmt.line}): only induction and constant "
                f"subscripts can be partitioned")
        if not conds:
            return None, guarded_dims
        guard = conds[0]
        for extra in conds[1:]:
            guard = A.BinOp(".and.", guard, extra)
        return guard, guarded_dims

    def _check_global_reads(self, expr: A.Expr, env: dict[str, int],
                            table: SymbolTable, unit_name: str,
                            guarded_dims: dict[int, A.Expr],
                            line: int) -> None:
        """Reject reads that would need data from a non-neighbor rank.

        A fixed-subscript read on a cut dimension is only legal when the
        statement's write guard pins execution to a rank owning a nearby
        coordinate (e.g. ``v(n, j) = v(n - 1, j)``): the read must sit
        within the dependency distance of the guarded coordinate, so it
        is locally owned or halo-covered.
        """
        loop_vars = set(env)
        invariants = {s.name: int(s.param_value)
                      for s in table.symbols.values()
                      if s.is_parameter and isinstance(s.param_value, int)}
        max_dist = max(1, self.directives.max_distance)
        for node in A.walk(expr):
            if not isinstance(node, A.ArrayRef):
                continue
            ap = self.plan.arrays.get(node.name)
            if ap is None:
                continue
            for adim, sub in enumerate(node.subs):
                g = ap.dim_map[adim]
                if g is None or g not in self.cut:
                    continue
                info = analyze_subscript(sub, loop_vars, invariants)
                if info.kind is not SubscriptKind.CONSTANT:
                    continue
                anchor = guarded_dims.get(g)
                if anchor is not None and self._near(anchor, sub,
                                                     invariants, max_dist):
                    continue
                raise CodegenError(
                    f"status array {node.name!r} is read at a fixed "
                    f"subscript on cut dimension {g} in unit "
                    f"{unit_name!r} (line {line}); such global reads "
                    f"need the owning rank's data everywhere — leave "
                    f"dimension {g} uncut or restructure the code")

    @staticmethod
    def _near(anchor: A.Expr, read: A.Expr,
              invariants: dict[str, int], max_dist: int) -> bool:
        """Is *read* within *max_dist* of the guarded *anchor* subscript?"""
        from repro.fortran.printer import print_expr

        def const_value(e: A.Expr) -> int | None:
            info = analyze_subscript(e, set(), invariants)
            return info.const if info.kind is SubscriptKind.CONSTANT \
                else None

        a, r = const_value(anchor), const_value(read)
        if a is not None and r is not None:
            return abs(a - r) <= max_dist
        if print_expr(anchor) == print_expr(read):
            return True
        # symbolic anchor ± small literal, e.g. anchor `n`, read `n - 1`
        if isinstance(read, A.BinOp) and read.op in ("+", "-") \
                and isinstance(read.right, A.IntLit) \
                and read.right.value <= max_dist \
                and print_expr(read.left) == print_expr(anchor):
            return True
        return False

    # -- halo overlap: interior/boundary loop splitting ---------------------------
    #
    # Each blocking ``call acfd_exchange(k, ...)`` directly followed by a
    # provably order-independent field-loop nest is rewritten as::
    #
    #     call acfd_exchange_begin(k, ...)   ! post isend/irecv, pack faces
    #     do <interior nest>                 ! no ghost reads: runs in flight
    #     call acfd_exchange_finish(k, ...)  ! wait + unpack all faces
    #     do <boundary strips>               ! the peeled ghost-reading rim
    #
    # The boundary strip along each cut dimension is as wide as the
    # combined point's merged ghost footprint (``PlannedSync.dim_distances``),
    # so interior iterations can never read a ghost cell that is still in
    # flight.  Safety follows the vectorizer's ``Fallback`` discipline:
    # any nest outside the provable subset refuses with a recorded reason
    # and keeps the blocking exchange.

    def _apply_overlap(self) -> None:
        from repro.interp.vectorize import goto_targets
        self.plan.overlap_decisions = []
        if self.plan.overlap == "off":
            self.plan.overlap_decisions = [
                OverlapDecision(s.sync_id, False,
                                "overlap disabled (mode off)")
                for s in self.plan.syncs]
            return
        if not self.plan.syncs:
            return
        classifications = {u.name: classify_unit(u, self.directives)
                           for u in self.cu.units}
        self._diag_arrays = self._diagonal_readers(classifications)
        self._unit_names = {u.name for u in self.cu.units}
        syncs_by_id = {s.sync_id: s for s in self.plan.syncs}
        decided: dict[int, OverlapDecision] = {}
        # pass 1: intra-unit splits (exchange directly followed by a
        # nest in the same unit); syncs followed by a call to a unit in
        # this file are left undecided for the interprocedural pass, so
        # a callee containing its own sync is rewritten before its body
        # is summarized and copied into the boundary specialization.
        for unit in list(self.cu.units):
            targets = frozenset(goto_targets(unit))
            self._overlap_walk(unit, unit.body, [],
                               classifications[unit.name], targets,
                               syncs_by_id, decided)
        # pass 2: interprocedural splits around call boundaries
        from repro.analysis.callgraph import build_call_graph
        self._graph = build_call_graph(self.cu)
        self._summaries = {}
        for unit in list(self.cu.units):
            self._interproc_walk(unit, unit.body, classifications,
                                 syncs_by_id, decided)
        for sync in self.plan.syncs:
            self.plan.overlap_decisions.append(decided.get(
                sync.sync_id,
                OverlapDecision(sync.sync_id, False,
                                "no loop nest follows the exchange")))

    def _diagonal_readers(self, classifications) -> set[str]:
        """Status arrays some nest reads diagonally across >= 2 cut dims.

        The blocking exchange propagates corner ghosts by ordering the
        dimensions (later faces carry earlier dims' fresh ghosts);
        ``begin()`` packs every face at once and ships stale corners, so
        a combined point covering such an array on >= 2 cut dimensions
        must stay blocking.
        """
        out: set[str] = set()
        for cls in classifications.values():
            table: SymbolTable = cls.unit.symbols  # type: ignore[assignment]
            for fl in cls.field_loops:
                for use in fl.uses.values():
                    if use.irregular:
                        out.add(use.array)
                        continue
                    sym = table.get(use.array)
                    if sym is None or sym.array is None:
                        continue
                    dim_map = self.directives.status_dims(
                        use.array, sym.array.rank)
                    for ap in use.reads:
                        hot = 0
                        for adim, sub in enumerate(ap.subs):
                            g = dim_map[adim] if adim < len(dim_map) \
                                else None
                            if g is None or g not in self.cut:
                                continue
                            if sub.kind is SubscriptKind.INDUCTION:
                                if sub.offset != 0:
                                    hot += 1
                            elif sub.kind is SubscriptKind.CONSTANT:
                                pass
                            elif sub.kind is SubscriptKind.STRIDED \
                                    and sub.distance == 0:
                                pass
                            else:  # strided with reach, or irregular
                                hot += 2
                        if hot >= 2:
                            out.add(use.array)
                            break
        return out

    def _overlap_walk(self, unit: A.ProgramUnit, body: list[A.Stmt],
                      tails: list[list[A.Stmt]], cls, targets: frozenset,
                      syncs_by_id: dict, decided: dict) -> None:
        i = 0
        while i < len(body):
            stmt = body[i]
            if (isinstance(stmt, A.CallStmt)
                    and stmt.name == "acfd_exchange" and stmt.args
                    and isinstance(stmt.args[0], A.IntLit)):
                sid = stmt.args[0].value
                sync = syncs_by_id.get(sid)
                nxt = body[i + 1] if i + 1 < len(body) else None
                if sync is not None and sid not in decided:
                    if isinstance(nxt, A.DoLoop):
                        verdict, splits, facts = self._overlap_verdict(
                            unit, cls, targets, sync, nxt,
                            [body[i + 2:]] + tails)
                        decided[sid] = verdict
                        if verdict.enabled:
                            repl = self._split_nest(sync, nxt, facts,
                                                    splits)
                            body[i:i + 2] = repl
                            i += len(repl)
                            continue
                    elif (isinstance(nxt, A.CallStmt)
                          and nxt.name == "acfd_pipe_recv"):
                        decided[sid] = OverlapDecision(
                            sid, False,
                            "consumer loop is pipelined (self-dependent): "
                            "its wavefront needs the ghosts immediately")
                    elif (isinstance(nxt, A.CallStmt)
                          and nxt.name in self._unit_names):
                        pass  # decided by the interprocedural pass
                    else:
                        decided[sid] = OverlapDecision(
                            sid, False, "no loop nest follows the exchange")
            elif isinstance(stmt, (A.DoLoop, A.DoWhile)):
                self._overlap_walk(unit, stmt.body,
                                   [body[i + 1:], stmt.body] + tails,
                                   cls, targets, syncs_by_id, decided)
            elif isinstance(stmt, A.IfBlock):
                for _cond, arm in stmt.arms:
                    self._overlap_walk(unit, arm, [body[i + 1:]] + tails,
                                       cls, targets, syncs_by_id, decided)
            i += 1

    def _overlap_verdict(self, unit: A.ProgramUnit, cls, targets: frozenset,
                         sync: PlannedSync, loop: A.DoLoop,
                         tails: list[list[A.Stmt]]):
        from repro.analysis.vecsafety import analyze_nest
        sid = sync.sync_id

        def refuse(reason: str):
            return OverlapDecision(sid, False, reason), None, None

        fl = cls.by_loop.get(id(loop))
        if fl is None:
            return refuse("the loop after the exchange is not a "
                          "field-loop nest")
        facts = analyze_nest(loop, unit.symbols, targets)
        # ``ok`` means fully order-independent; a partly vectorizable
        # sweep (``facts.carried``) still orders its carried levels
        if not facts.ok:
            return refuse(f"consumer nest is not provably "
                          f"order-independent: {facts.reason}")
        labels = set()
        for s in A.walk_statements([loop]):
            if s.label is not None:
                labels.add(s.label)
            if isinstance(s, A.DoLoop) and s.end_label is not None:
                labels.add(s.end_label)
        if labels & targets:
            return refuse("a label inside the nest is a goto target")
        active = [(g, sync.dim_distances[g]) for g in sorted(self.cut)
                  if sync.dim_distances.get(g, (0, 0)) != (0, 0)]
        if not active:
            return refuse("exchange has no ghost footprint on a cut "
                          "dimension")
        splits: list[tuple[int, int, int, int]] = []
        for g, (dm, dp) in active:
            var = fl.sweeps.get(g)
            if var is None or var not in facts.nest_vars:
                return refuse(f"nest does not sweep grid dimension "
                              f"{g + 1} that the exchange ships ghosts "
                              f"for")
            level = facts.nest_vars.index(var)
            lv = facts.levels[level]
            if lv.step is not None and not (
                    isinstance(lv.step, A.IntLit) and lv.step.value == 1):
                return refuse(f"non-unit stride on the loop over grid "
                              f"dimension {g + 1}")
            splits.append((level, g, dm, dp))
        if len(active) >= 2:
            hot = {name for name, _d in sync.arrays} & self._diag_arrays
            if hot:
                return refuse(
                    f"diagonal (corner) reads of {sorted(hot)} need the "
                    f"ordered two-phase exchange")
        names = (set(facts.temps) | set(facts.nest_vars)) \
            - set(facts.reductions)
        for seg in tails:
            hit = self._scan_reads(seg, set(names))
            if hit is not None:
                return refuse(f"scalar {hit!r} may be read after the "
                              f"nest (splitting changes its exit value)")
        splits.sort()
        return OverlapDecision(sid, True, ""), splits, facts

    # -- liveness scan: is a nest-local scalar read after the nest? ---------------

    def _scan_reads(self, stmts: list[A.Stmt],
                    live: set[str]) -> str | None:
        """First name in *live* read before re-assignment, else None.

        Kills persist along one statement list; kills inside nested
        (conditionally executed) bodies do not escape them.  A DO kills
        its variable even on zero trips (Fortran assigns it on entry).
        """
        for stmt in stmts:
            if not live:
                return None
            hit = self._scan_stmt(stmt, live)
            if hit is not None:
                return hit
        return None

    def _scan_stmt(self, stmt: A.Stmt, live: set[str]) -> str | None:
        def reads(expr) -> str | None:
            if expr is None:
                return None
            for node in A.walk(expr):
                if isinstance(node, A.Var) and node.name in live:
                    return node.name
            return None

        if isinstance(stmt, A.Assign):
            hit = reads(stmt.value)
            if hit is None and isinstance(stmt.target, A.ArrayRef):
                for sub in stmt.target.subs:
                    hit = hit or reads(sub)
            if hit is not None:
                return hit
            if isinstance(stmt.target, A.Var):
                live.discard(stmt.target.name)
            return None
        if isinstance(stmt, A.DoLoop):
            for e in (stmt.start, stmt.stop, stmt.step):
                hit = reads(e)
                if hit is not None:
                    return hit
            inner = set(live)
            inner.discard(stmt.var)
            hit = self._scan_reads(stmt.body, inner)
            if hit is not None:
                return hit
            live.discard(stmt.var)
            return None
        if isinstance(stmt, A.DoWhile):
            hit = reads(stmt.cond)
            return hit if hit is not None \
                else self._scan_reads(stmt.body, set(live))
        if isinstance(stmt, A.IfBlock):
            for cond, arm in stmt.arms:
                hit = reads(cond)
                if hit is None:
                    hit = self._scan_reads(arm, set(live))
                if hit is not None:
                    return hit
            return None
        if isinstance(stmt, A.LogicalIf):
            hit = reads(stmt.cond)
            return hit if hit is not None \
                else self._scan_stmt(stmt.stmt, set(live))
        # anything else (calls, I/O, exits): every Var counts as a read
        for node in A.walk(stmt):
            if isinstance(node, A.Var) and node.name in live:
                return node.name
        return None

    # -- split emission ------------------------------------------------------------

    def _split_nest(self, sync: PlannedSync, loop: A.DoLoop, facts,
                    splits: list[tuple[int, int, int, int]]) -> list[A.Stmt]:
        def args() -> list[A.Expr]:
            out: list[A.Expr] = [_int(sync.sync_id)]
            out.extend(A.Var(name) for name, _d in sync.arrays)
            return out

        begin = _call("acfd_exchange_begin", *args())
        finish = _call("acfd_exchange_finish", *args())
        interior = self._nest_copy(
            loop, facts,
            {lvl: ("interior", g, dm, dp) for lvl, g, dm, dp in splits})
        return [begin, interior, finish] \
            + self._boundary_strips(loop, facts, splits)

    def _boundary_strips(self, loop: A.DoLoop, facts,
                         splits: list[tuple[int, int, int, int]]
                         ) -> list[A.DoLoop]:
        # Boundary strips peel outermost-first: strip k covers the rim
        # along its own dimension restricted to the interior of every
        # dimension peeled before it, so the strips and the interior
        # tile the clamped iteration box exactly once (no iteration runs
        # twice — reductions stay exact).
        out: list[A.DoLoop] = []
        for k, (lvl, g, dm, dp) in enumerate(splits):
            base = {lv: ("interior", gg, dmm, dpp)
                    for lv, gg, dmm, dpp in splits[:k]}
            if dm > 0:
                out.append(self._nest_copy(
                    loop, facts, {**base, lvl: ("low", g, dm, dp)}))
            if dp > 0:
                out.append(self._nest_copy(
                    loop, facts, {**base, lvl: ("high", g, dm, dp)}))
        return out

    def _nest_copy(self, loop: A.DoLoop, facts,
                   overrides: dict[int, tuple]) -> A.DoLoop:
        """Deep copy of the nest with strip/interior bounds at levels.

        For a level with clamped bounds [cs, ce], owned range
        [lo, hi] = [acfd_lo(g), acfd_hi(g)] and footprint (dm, dp):

        * interior: [max0(cs, lo + dm), min0(ce, hi - dp)]
        * low strip: [cs, min0(ce, lo + dm - 1)]
        * high strip: [max0(interior start, interior stop + 1), ce]

        The high strip starting after the (possibly empty) interior
        keeps the three ranges an exact disjoint cover of [cs, ce] even
        on owned blocks thinner than dm + dp.
        """
        new = copy.deepcopy(loop)
        for s in A.walk_statements([new]):
            s.label = None
            if isinstance(s, A.DoLoop):
                s.end_label = None
        cur: A.DoLoop = new
        for depth in range(len(facts.levels)):
            ov = overrides.get(depth)
            if ov is not None:
                mode, g, dm, dp = ov
                lo = _fn("acfd_lo", _int(g + 1))
                hi = _fn("acfd_hi", _int(g + 1))

                def plus(e: A.Expr, k: int) -> A.Expr:
                    return e if k == 0 else A.BinOp("+", e, _int(k))

                def minus(e: A.Expr, k: int) -> A.Expr:
                    return e if k == 0 else A.BinOp("-", e, _int(k))

                if mode == "interior":
                    if dm:
                        cur.start = _fn("max0", cur.start, plus(lo, dm))
                    if dp:
                        cur.stop = _fn("min0", cur.stop, minus(hi, dp))
                elif mode == "low":
                    cur.stop = _fn("min0", cur.stop, plus(lo, dm - 1))
                else:  # high
                    i_start = _fn("max0", copy.deepcopy(cur.start),
                                  plus(lo, dm)) if dm \
                        else copy.deepcopy(cur.start)
                    i_stop = _fn("min0", copy.deepcopy(cur.stop),
                                 minus(copy.deepcopy(hi), dp))
                    cur.start = _fn("max0", i_start, plus(i_stop, 1))
            if depth + 1 < len(facts.levels):
                nxt = cur.body[0]
                assert isinstance(nxt, A.DoLoop)
                cur = nxt
        return new

    # -- interprocedural overlap: splitting around call boundaries ----------------
    #
    # Both paper apps keep their stencils in subroutines, so a combined
    # sync is followed by ``call momentum0()`` rather than a nest.  When
    # the callee summarizes to ``<scalar assignments>; <consumer nest>;
    # <tail>`` and the nest passes the same safety gate as the intra-unit
    # split, the call site is rewritten as::
    #
    #     call acfd_exchange_begin(k, ...)
    #     call momentum0_acfd_int()          ! interior strip of nest 1
    #     call acfd_exchange_finish(k, ...)
    #     call momentum0_acfd_bnd()          ! boundary strips + tail
    #
    # The two specializations are new program units sharing the callee's
    # declarations (COMMON blocks bind them to the same storage), so the
    # pyback interpreter and the printed MPI Fortran both pick them up
    # with no further plumbing.  Anything outside the provable subset —
    # multi-site callees, recursion, aliased actuals, goto-entangled
    # bodies, escaping scalars — refuses with a recorded reason and
    # keeps the blocking exchange.

    def _interproc_walk(self, unit: A.ProgramUnit, body: list[A.Stmt],
                        classifications: dict, syncs_by_id: dict,
                        decided: dict) -> None:
        i = 0
        while i < len(body):
            stmt = body[i]
            if (isinstance(stmt, A.CallStmt)
                    and stmt.name == "acfd_exchange" and stmt.args
                    and isinstance(stmt.args[0], A.IntLit)):
                sid = stmt.args[0].value
                sync = syncs_by_id.get(sid)
                nxt = body[i + 1] if i + 1 < len(body) else None
                if (sync is not None and sid not in decided
                        and isinstance(nxt, A.CallStmt)
                        and nxt.name in self._unit_names):
                    verdict, repl, new_units = self._interproc_overlap(
                        unit, sync, nxt, classifications)
                    decided[sid] = verdict
                    if verdict.enabled:
                        body[i:i + 2] = repl
                        self.cu.units.extend(new_units)
                        i += len(repl)
                        continue
            elif isinstance(stmt, (A.DoLoop, A.DoWhile)):
                self._interproc_walk(unit, stmt.body, classifications,
                                     syncs_by_id, decided)
            elif isinstance(stmt, A.IfBlock):
                for _cond, arm in stmt.arms:
                    self._interproc_walk(unit, arm, classifications,
                                         syncs_by_id, decided)
            i += 1

    def _callee_summary(self, name: str):
        from repro.analysis.callgraph import summarize_callee
        summary = self._summaries.get(name)
        if summary is None:
            summary = summarize_callee(self._graph, name)
            self._summaries[name] = summary
        return summary

    def _interproc_overlap(self, caller: A.ProgramUnit, sync: PlannedSync,
                           call: A.CallStmt, classifications: dict):
        from repro.fortran.intrinsics_table import is_intrinsic
        from repro.interp.vectorize import goto_targets
        sid = sync.sync_id
        name = call.name

        def refuse(reason: str):
            return OverlapDecision(sid, False, reason, callee=name), \
                None, None

        summary = self._callee_summary(name)
        if summary.refusal is not None:
            return refuse(f"in callee {name!r}: {summary.refusal}")
        if call.label is not None:
            return refuse("the consumer call carries a statement label")
        hit = self._aliased_actual(caller, call)
        if hit is not None:
            return refuse(f"call to {name!r}: {hit}")
        callee = summary.unit
        loop = summary.first_nest
        cls = classifications.get(name)
        targets = frozenset(goto_targets(callee))
        verdict, splits, facts = self._overlap_verdict(
            callee, cls, targets, sync, loop, [summary.tail])
        if not verdict.enabled:
            return refuse(f"in callee {name!r}: {verdict.reason}")
        table: SymbolTable = callee.symbols  # type: ignore[assignment]
        # nest-assigned scalars must die inside the callee: a dummy or
        # COMMON member would carry a different exit value to the caller
        # once the nest runs as two strip-bounded invocations
        for nm in sorted((set(facts.temps) | set(facts.nest_vars))
                         - set(facts.reductions)):
            sym = table.get(nm)
            if sym is not None and (sym.is_dummy
                                    or sym.common_block is not None):
                return refuse(
                    f"in callee {name!r}: nest scalar {nm!r} is a dummy "
                    f"or COMMON member, so its exit value escapes the "
                    f"split call")
        # a reduction accumulator must persist from the interior call to
        # the boundary call: callee-local storage vanishes at return
        for nm in sorted(facts.reductions):
            sym = table.get(nm)
            if sym is None or sym.common_block is None:
                return refuse(
                    f"in callee {name!r}: reduction accumulator {nm!r} "
                    f"is callee-local and cannot carry from the interior "
                    f"call to the boundary call")
        # leading scalar assignments re-execute in the boundary
        # specialization (reduction inits run in the interior one only),
        # so their values must be reproducible at both call times
        banned = set(facts.temps) | set(facts.nest_vars) \
            | set(facts.reductions)
        for st in summary.leading:
            tgt = st.target.name
            for node in A.walk(st.value):
                if isinstance(node, A.ArrayRef):
                    return refuse(
                        f"in callee {name!r}: assignment to {tgt!r} "
                        f"before the nest reads an array element")
                if isinstance(node, A.FuncCall) \
                        and not is_intrinsic(node.name):
                    return refuse(
                        f"in callee {name!r}: assignment to {tgt!r} "
                        f"before the nest calls a function")
                if isinstance(node, A.Var) and node.name in banned:
                    return refuse(
                        f"in callee {name!r}: assignment to {tgt!r} "
                        f"before the nest reads nest-modified scalar "
                        f"{node.name!r}")
        int_name, bnd_name = f"{name}_acfd_int", f"{name}_acfd_bnd"
        if int_name in self._unit_names or bnd_name in self._unit_names:
            return refuse(f"specialization names {int_name!r}/"
                          f"{bnd_name!r} are already taken")
        repl, units = self._split_call(sync, call, callee, summary,
                                       facts, splits, int_name, bnd_name)
        self._unit_names.update((int_name, bnd_name))
        return OverlapDecision(sid, True, "", callee=name), repl, units

    def _aliased_actual(self, caller: A.ProgramUnit,
                        call: A.CallStmt) -> str | None:
        """Refusal reason when an actual argument may alias distributed
        data (or other actuals), else None.

        Scalar locals pass cleanly; whole status arrays, status-array
        element reads (their value would be taken before ``finish``
        refreshes the ghosts), COMMON scalars (two names for one cell)
        and repeated names all refuse.
        """
        table: SymbolTable | None = caller.symbols
        seen: set[str] = set()
        for arg in call.args:
            if isinstance(arg, A.Var):
                nm = arg.name
                if nm in seen:
                    return f"actual argument {nm!r} is passed twice"
                seen.add(nm)
                if nm in self.plan.arrays:
                    return (f"status array {nm!r} is passed as an "
                            f"actual argument")
                sym = table.get(nm) if table is not None else None
                if sym is not None and sym.common_block is not None:
                    return (f"actual argument {nm!r} lives in COMMON "
                            f"/{sym.common_block}/ (aliases the "
                            f"callee's view)")
                continue
            for node in A.walk(arg):
                if isinstance(node, A.ArrayRef) \
                        and node.name in self.plan.arrays:
                    return (f"actual argument reads status array "
                            f"{node.name!r} (evaluated before the "
                            f"exchange finishes)")
        return None

    def _split_call(self, sync: PlannedSync, call: A.CallStmt,
                    callee: A.ProgramUnit, summary, facts,
                    splits: list[tuple[int, int, int, int]],
                    int_name: str, bnd_name: str):
        def args() -> list[A.Expr]:
            out: list[A.Expr] = [_int(sync.sync_id)]
            out.extend(A.Var(name) for name, _d in sync.arrays)
            return out

        loop = summary.first_nest
        interior = self._nest_copy(
            loop, facts,
            {lvl: ("interior", g, dm, dp) for lvl, g, dm, dp in splits})
        strips = self._boundary_strips(loop, facts, splits)
        lead_all = [copy.deepcopy(s) for s in summary.leading]
        lead_rerun = [copy.deepcopy(s) for s in summary.leading
                      if s.target.name not in facts.reductions]
        int_unit = self._specialized_unit(
            callee, int_name, lead_all + [interior])
        bnd_unit = self._specialized_unit(
            callee, bnd_name,
            lead_rerun + list(strips)
            + [copy.deepcopy(s) for s in summary.tail])
        repl: list[A.Stmt] = [
            _call("acfd_exchange_begin", *args()),
            A.CallStmt(name=int_name, args=copy.deepcopy(call.args)),
            _call("acfd_exchange_finish", *args()),
            A.CallStmt(name=bnd_name, args=copy.deepcopy(call.args)),
        ]
        return repl, [int_unit, bnd_unit]

    @staticmethod
    def _specialized_unit(callee: A.ProgramUnit, name: str,
                          body: list[A.Stmt]) -> A.ProgramUnit:
        return A.ProgramUnit(kind=callee.kind, name=name,
                             args=list(callee.args),
                             decls=copy.deepcopy(callee.decls), body=body)

    # -- I/O ------------------------------------------------------------------------

    def _transform_io(self, unit: A.ProgramUnit) -> None:
        self._transform_io_body(unit.body, unit.name)

    def _transform_io_body(self, body: list[A.Stmt], unit_name: str) -> None:
        i = 0
        while i < len(body):
            stmt = body[i]
            if isinstance(stmt, (A.DoLoop, A.DoWhile)):
                self._transform_io_body(stmt.body, unit_name)
            elif isinstance(stmt, A.IfBlock):
                for _cond, arm_body in stmt.arms:
                    self._transform_io_body(arm_body, unit_name)
            elif isinstance(stmt, A.ReadStmt):
                replacement = self._transform_read(stmt, unit_name)
                body[i:i + 1] = replacement
                i += len(replacement)
                continue
            elif isinstance(stmt, A.WriteStmt):
                fetches = self._extract_probe_fetches(stmt, unit_name)
                guard = A.BinOp(".eq.", _fn("acfd_rank"), _int(0))
                wrapped = A.IfBlock(arms=[(guard, [stmt])], line=stmt.line,
                                    label=stmt.label)
                stmt.label = None
                body[i:i + 1] = fetches + [wrapped]
                i += len(fetches)
            elif isinstance(stmt, (A.OpenStmt, A.CloseStmt)):
                guard = A.BinOp(".eq.", _fn("acfd_rank"), _int(0))
                body[i] = A.IfBlock(arms=[(guard, [stmt])], line=stmt.line,
                                    label=stmt.label)
                stmt.label = None
            i += 1

    def _extract_probe_fetches(self, stmt: A.WriteStmt,
                               unit_name: str) -> list[A.Stmt]:
        """Distributed-array probes in WRITE lists.

        ``write (6,*) v(n/2, m/2)`` would read a possibly-remote element
        on rank 0; the element is fetched collectively first (the owner
        broadcasts it via ``acfd_get``) and the write prints the local
        temporary.
        """
        fetches: list[A.Stmt] = []
        for pos, item in enumerate(stmt.items):
            if not isinstance(item, A.ArrayRef):
                continue
            if item.name not in self.plan.arrays:
                continue
            self._probe_counter += 1
            tmp = A.Var(f"acfd_probe{self._probe_counter}")
            fetches.append(A.Assign(
                target=tmp,
                value=_fn("acfd_get", A.Var(item.name), *item.subs),
                line=stmt.line))
            stmt.items[pos] = tmp
        return fetches

    def _transform_read(self, stmt: A.ReadStmt,
                        unit_name: str) -> list[A.Stmt]:
        """rank 0 reads; values broadcast to every rank."""
        for item in stmt.items:
            if not isinstance(item, A.Var):
                raise CodegenError(
                    f"READ of non-scalar item in unit {unit_name!r} "
                    f"(line {stmt.line}) is not supported by the "
                    f"restructurer; read scalars and fill status arrays "
                    f"in field loops")
        guard = A.BinOp(".eq.", _fn("acfd_rank"), _int(0))
        out: list[A.Stmt] = [A.IfBlock(arms=[(guard, [stmt])],
                                       line=stmt.line, label=stmt.label)]
        stmt.label = None
        for item in stmt.items:
            out.append(A.Assign(target=A.Var(item.name),
                                value=_fn("acfd_bcast", A.Var(item.name))))
        return out


def restructure(plan: ParallelPlan) -> A.CompilationUnit:
    """Produce the SPMD program for *plan* (the input AST is not touched)."""
    return Restructurer(plan).run()
