"""Vectorizing translation mode for the Python backend.

For each DO nest that :func:`repro.analysis.vecsafety.analyze_nest`
proves dependence-free (Jacobi-type A-loops, red-black sweeps behind
parity masks, max/min/integer-sum reductions), :func:`try_emit_nest`
emits whole-array numpy slice statements over the ``OffsetArray``
buffers instead of the scalar ``for`` nest — typically a 10-100x speedup
on field loops.  A nest whose dependences are carried by some of its
levels only (``NestFacts.carried``: direction-split sweeps) becomes
scalar loops over those levels around slice statements over the rest.
:func:`try_emit_nest` returns ``False`` for anything outside the
provable subset so :mod:`repro.interp.pyback` keeps its scalar
translation (Gauss–Seidel sweeps carried on every level, GOTO-carrying
nests, subroutine calls).

Emission contract (why this is bitwise-safe):

* statements execute *one at a time* over the whole iteration box, in
  statement order, so every intra-statement read sees exactly the values
  the scalar order would have seen once the analysis has ruled out
  loop-carried dependences;
* array reads/writes become slices over the canonical axis order
  (outermost loop = axis 0); Fortran's column-major nests make the store
  target a transposed view, which numpy assigns without a copy;
* IF arms guarded by iteration-dependent conditions become boolean
  masks; array stores select per lane with ``np.where``, reductions
  compress with boolean indexing, and each arm's condition is evaluated
  *after* the preceding arms' stores (per lane that matches the scalar
  order, because arms are exclusive);
* scalar temporaries become box-shaped arrays (copied, so later stores
  to a source array cannot retroactively change them) and their
  last-executed-iteration value is restored after the nest;
* carried levels run as Python loops inside every level's trip-count
  guard, outermost and in their original order and direction; the slice
  statements then see a carried variable as an invariant scalar, and
  temporaries are extracted after every slab (the analysis refuses the
  one case where that would pick a different last iteration);
* DO-variable exit values are reproduced exactly, including the
  zero-trip-count case where inner loop variables stay untouched;
* SPMD programs work unchanged: halo regions are excluded by the loop
  bounds the restructurer already emitted, and ``acfd_*`` queries in
  bounds evaluate through ``ctx.rt`` exactly as in scalar mode.

The generated code calls the ``_vsl``/``_vidiv``/``_vin_*`` helpers
below, which :func:`repro.interp.pyback.compile_unit` injects into the
execution namespace.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodegenError
from repro.fortran import ast as A
from repro.analysis.stencil import SubscriptKind, analyze_subscript
from repro.analysis.vecsafety import (NestFacts, VArrayAssign, VIf, VReduce,
                                      VSkip, VTempAssign, analyze_nest)

_I8 = np.int64
_F8 = np.float64


def _vsl(start: int, n: int, step: int) -> slice:
    """Slice covering ``start, start+step, ...`` (*n* elements), handling
    the negative-step case where the exclusive stop would wrap around."""
    stop = start + n * step
    if step < 0 and stop < 0:
        stop = None
    return slice(start, stop, step)


def _vidiv(a, b):
    """Elementwise Fortran integer division (truncates toward zero)."""
    a = np.asarray(a)
    b = np.asarray(b)
    q = np.abs(a) // np.abs(b)
    return np.where((a >= 0) == (b >= 0), q, -q)


def _vfold(f, cast=None):
    def impl(*args):
        out = args[0]
        for x in args[1:]:
            out = f(out, x)
        out = np.asarray(out)
        return out.astype(cast) if cast is not None else out
    return impl


def _vsign(a, b):
    return np.where(np.asarray(b) >= 0, np.abs(a), -np.abs(a))


def _to_i8(a):
    return np.asarray(a).astype(_I8)  # truncates toward zero, like int()


def _to_f8(a):
    return np.asarray(a).astype(_F8)


#: elementwise implementations for every intrinsic in
#: ``vecsafety.VECTOR_SAFE_INTRINSICS`` — all bitwise-identical to the
#: scalar fold (IEEE-exact ops only; verified: ``np.fmod`` keeps int64
#: and the dividend's sign like Fortran MOD, ``np.rint`` rounds
#: half-to-even like Python ``round``, ``astype(int64)`` truncates
#: toward zero like ``int()``)
VECTOR_INTRINSIC_IMPLS = {
    "abs": np.abs, "dabs": np.abs, "iabs": np.abs,
    "sqrt": np.sqrt, "dsqrt": np.sqrt,
    "max": _vfold(np.maximum), "min": _vfold(np.minimum),
    "amax1": _vfold(np.maximum, _F8), "dmax1": _vfold(np.maximum, _F8),
    "amin1": _vfold(np.minimum, _F8), "dmin1": _vfold(np.minimum, _F8),
    "max0": _vfold(np.maximum, _I8), "min0": _vfold(np.minimum, _I8),
    "mod": np.fmod, "amod": np.fmod, "dmod": np.fmod,
    "sign": _vsign, "dsign": _vsign, "isign": _vsign,
    "int": _to_i8, "ifix": _to_i8, "idint": _to_i8,
    "nint": lambda a: np.rint(a).astype(_I8),
    "anint": lambda a: np.asarray(np.rint(a), _F8),
    "real": _to_f8, "float": _to_f8, "sngl": _to_f8,
    "dble": _to_f8, "dfloat": _to_f8,
    "aint": np.trunc, "dint": np.trunc,
}

_TYPE_CODE = {"integer": "i", "real": "r", "doubleprecision": "r",
              "logical": "l", "character": "s"}
_SCALAR_CAST = {"i": "int", "r": "float", "l": "bool"}


def try_emit_nest(comp, loop: A.DoLoop) -> bool:
    """Emit *loop* as numpy slice statements into *comp* if provably safe.

    A nest whose dependences are carried by some of its levels is emitted
    partly vectorized: scalar loops over the carried levels around slice
    statements over the free ones.  Returns True on success; on False the
    caller must emit the scalar translation (its recursion retries inner
    nests on their own, which also handles triangular nests whose inner
    bounds depend on the outer variable).  Updates ``comp.stats`` either
    way.
    """
    facts = analyze_nest(loop, comp.table,
                         frozenset(comp.targeted_labels))
    if not (facts.ok or facts.carried):
        comp.stats["fallback"] += 1
        comp.stats["reasons"].append(
            (comp.unit.name, loop.line, facts.reason))
        return False
    _NestEmitter(comp, facts).emit()
    comp.stats["vectorized"] += 1
    return True


class _NestEmitter:
    """Writes the slice translation of one proven nest through the unit
    compiler's line buffer (sharing its indentation and name supply).

    Header names (``{base}s{h}``, ``d``, ``n``) are indexed by the level's
    position ``h`` in the DO chain; slice axes and grids by its position
    among the free levels (``facts.nest_vars``).
    """

    def __init__(self, comp, facts: NestFacts) -> None:
        self.c = comp
        self.f = facts
        self.L = len(facts.nest_vars)
        self.base = comp.fresh("vz")
        self.level_of = {v: k for k, v in enumerate(facts.nest_vars)}
        self.hdr = {lv.var: h for h, lv in enumerate(facts.levels)}
        self.invariants = {
            sym.name: int(sym.param_value)
            for sym in comp.table.symbols.values()
            if sym.is_parameter and isinstance(sym.param_value, int)}

    def emit(self) -> None:
        c, b = self.c, self.base
        for h, lv in enumerate(self.f.levels):
            start = c.expr(lv.start)
            stop = c.expr(lv.stop)
            step = c.expr(lv.step) if lv.step is not None else "1"
            c.w(f"{b}s{h} = int({start})")
            c.w(f"{b}d{h} = int({step})")
            c.w(f"{b}n{h} = _do_trips({b}s{h}, int({stop}), {b}d{h})")
            # DO-variable exit value; inner levels stay inside the outer
            # guard so they remain untouched when the outer nest is empty
            c.w(f"f_{lv.var} = {b}s{h} + {b}n{h} * {b}d{h}")
            c.w(f"if {b}n{h} > 0:")
            c.depth += 1
        counts = ", ".join(f"{b}n{self.hdr[v]}" for v in self.f.nest_vars)
        c.w(f"{b}bx = ({counts},)")
        for v in sorted(self.f.var_values, key=self.level_of.get):
            k, h = self.level_of[v], self.hdr[v]
            grid = f"({b}s{h} + {b}d{h} * _np.arange({b}n{h}))"
            if self.L > 1:
                shape = ", ".join(f"{b}n{h}" if j == k else "1"
                                  for j in range(self.L))
                grid += f".reshape({shape})"
            c.w(f"{b}g{k} = {grid}")
        # carried levels: scalar loops, outermost, in their original order
        # and direction; every trip count is known positive here
        for v in self.f.carried:
            h = self.hdr[v]
            c.w(f"for {b}k{h} in range({b}n{h}):")
            c.depth += 1
            c.w(f"f_{v} = {b}s{h} + {b}k{h} * {b}d{h}")
        for name in self.f.temps:
            c.w(f"{b}t_{name} = None")
            c.w(f"{b}tm_{name} = None")
        self._body(self.f.body, None)
        self._extract_temps()
        c.w("pass")
        for v in reversed(self.f.carried):
            h = self.hdr[v]
            c.depth -= 1
            c.w(f"f_{v} = {b}s{h} + {b}n{h} * {b}d{h}")
        c.depth -= len(self.f.levels)

    # -- statement emission ----------------------------------------------------

    def _body(self, items: list, mask: str | None) -> None:
        for it in items:
            if isinstance(it, VSkip):
                continue
            if isinstance(it, VArrayAssign):
                self._array_assign(it.stmt, mask)
            elif isinstance(it, VTempAssign):
                self._temp_assign(it, mask)
            elif isinstance(it, VReduce):
                self._reduce(it, mask)
            elif isinstance(it, VIf):
                if it.uniform:
                    self._uniform_if(it, mask)
                else:
                    self._varying_if(it, mask)
            else:  # pragma: no cover - analysis guarantees coverage
                raise CodegenError(f"unclassified nest statement {it!r}")

    def _array_assign(self, s: A.Assign, mask: str | None) -> None:
        rhs = self._vexpr(s.value)
        tview = self._target_view(s.target)
        if mask is None:
            self.c.w(f"{tview}[...] = {rhs}")
        else:
            # np.where materializes the full RHS before the store, so a
            # delta-0 self-read (prn(i,j) = 0.5*prn(i,j) + ...) is safe
            self.c.w(f"{tview}[...] = _np.where({mask}, {rhs}, {tview})")

    def _temp_assign(self, it: VTempAssign, mask: str | None) -> None:
        c, b = self.c, self.base
        sym = c.table.get(it.name)
        tn = sym.type_name if sym else "real"
        rhs = self._vexpr(it.stmt.value)
        # np.array (not asarray): the temp must be a *copy*, or a later
        # store to the source array would change it retroactively
        c.w(f"{b}t_{it.name} = _np.broadcast_to("
            f"_np.array({rhs}, _DT[{tn!r}]), {b}bx)")
        c.w(f"{b}tm_{it.name} = {mask if mask is not None else 'None'}")

    def _reduce(self, it: VReduce, mask: str | None) -> None:
        c, b = self.c, self.base
        cur = c.var_read(it.name)
        sv = c.fresh("vr")
        rhs = self._vexpr(it.operand)
        if mask is None:
            c.w(f"{sv} = _np.broadcast_to(_np.asarray({rhs}), {b}bx)")
            self._commit_reduce(it, cur, sv)
        else:
            c.w(f"{sv} = _np.broadcast_to(_np.asarray({rhs}), {b}bx)"
                f"[_np.broadcast_to({mask}, {b}bx)]")
            c.w(f"if {sv}.size:")
            c.depth += 1
            self._commit_reduce(it, cur, sv)
            c.depth -= 1

    def _commit_reduce(self, it: VReduce, cur: str, sv: str) -> None:
        if it.op == "isum":
            # object-dtype sum: exact arbitrary-precision Python ints,
            # matching the unbounded scalar accumulation
            val = f"{cur} + {sv}.sum(dtype=object)"
        elif it.op == "max":
            val = f"_in_{it.intrin}({cur}, {sv}.max())"
        else:
            val = f"_in_{it.intrin}({cur}, {sv}.min())"
        self._store_scalar(it.name, val)

    def _uniform_if(self, it: VIf, mask: str | None) -> None:
        c = self.c
        for i, (cond, body) in enumerate(it.arms):
            if cond is None:
                c.w("else:")
            else:
                c.w(f"{'if' if i == 0 else 'elif'} {c.expr(cond)}:")
            c.depth += 1
            before = len(c.lines)
            self._body(body, mask)
            if len(c.lines) == before:
                c.w("pass")
            c.depth -= 1

    def _varying_if(self, it: VIf, mask: str | None) -> None:
        c = self.c
        rest = mask
        for cond, body in it.arms:
            if cond is not None:
                cv = c.fresh("vc")
                # evaluated after the previous arms' stores: per lane
                # this matches the scalar order, because a lane that took
                # an earlier (exclusive) arm has its result masked out
                c.w(f"{cv} = {self._vexpr(cond)}")
                mv = c.fresh("vm")
                nr = c.fresh("vm")
                if rest is None:
                    c.w(f"{mv} = {cv}")
                    c.w(f"{nr} = _np.logical_not({cv})")
                else:
                    c.w(f"{mv} = _np.logical_and({rest}, {cv})")
                    c.w(f"{nr} = _np.logical_and({rest}, "
                        f"_np.logical_not({cv}))")
                rest = nr
            else:
                mv = rest
            self._body(body, mv)

    def _extract_temps(self) -> None:
        c, b = self.c, self.base
        for name in self.f.temps:
            last = "[" + ", ".join("-1" for _ in range(self.L)) + "]"
            c.w(f"if {b}t_{name} is not None:")
            c.depth += 1
            c.w(f"if {b}tm_{name} is None:")
            c.depth += 1
            self._store_scalar(name, f"{b}t_{name}{last}")
            c.depth -= 1
            c.w("else:")
            c.depth += 1
            q = c.fresh("vq")
            # C-order ravel == iteration order (axes are outer->inner),
            # so the last True lane is the last iteration that assigned
            c.w(f"{q} = _np.flatnonzero("
                f"_np.broadcast_to({b}tm_{name}, {b}bx).ravel())")
            c.w(f"if {q}.size:")
            c.depth += 1
            self._store_scalar(name, f"{b}t_{name}.ravel()[{q}[-1]]")
            c.depth -= 3

    def _store_scalar(self, name: str, val: str) -> None:
        c = self.c
        sym = c.table.get(name)
        tcode = _TYPE_CODE.get(sym.type_name if sym else "real", "r")
        val = f"{_SCALAR_CAST[tcode]}({val})"
        if name in c.common_pos and not (sym and sym.is_array):
            block, pos = c.common_pos[name]
            c.w(f"_c_{block if block else 'blank'}[{pos}] = {val}")
        else:
            c.w(f"f_{name} = {val}")

    # -- references ------------------------------------------------------------

    def _target_view(self, ref: A.ArrayRef) -> str:
        """Assignable view of the write target with canonical axes."""
        text, axes_levels = self._ref_slices(ref)
        if axes_levels != sorted(axes_levels):
            inv = tuple(axes_levels.index(i) for i in range(self.L))
            text = f"{text}.transpose({inv})"
        return text

    def _vec_ref(self, ref: A.ArrayRef) -> str:
        """Read reference, transposed/broadcast to canonical axes."""
        text, axes_levels = self._ref_slices(ref)
        if not axes_levels:
            return text  # all-constant subscripts: plain scalar element
        if axes_levels != sorted(axes_levels):
            order = tuple(sorted(range(len(axes_levels)),
                                 key=axes_levels.__getitem__))
            text = f"{text}.transpose({order})"
        if len(axes_levels) < self.L:
            present = set(axes_levels)
            parts = ", ".join(":" if k in present else "None"
                              for k in range(self.L))
            text = f"{text}[{parts}]"
        return text

    def _ref_slices(self, ref: A.ArrayRef) -> tuple[str, list[int]]:
        b = self.base
        parts = []
        axes_levels: list[int] = []
        for d, sub in enumerate(ref.subs):
            info = analyze_subscript(sub, set(self.f.nest_vars),
                                     self.invariants)
            lb = f"f_{ref.name}_l{d}"
            if info.kind is SubscriptKind.INDUCTION:
                h = self.hdr[info.var]
                parts.append(f"_vsl({b}s{h} + {info.offset} - {lb}, "
                             f"{b}n{h}, {b}d{h})")
                axes_levels.append(self.level_of[info.var])
            elif info.kind is SubscriptKind.STRIDED:
                h = self.hdr[info.var]
                a = info.coeff
                parts.append(f"_vsl({a} * {b}s{h} + {info.offset} - {lb}, "
                             f"{b}n{h}, {a} * {b}d{h})")
                axes_levels.append(self.level_of[info.var])
            else:
                parts.append(f"{self.c.expr(sub)} - {lb}")
        return f"f_{ref.name}_d[{', '.join(parts)}]", axes_levels

    # -- expressions -----------------------------------------------------------

    def _vexpr(self, e: A.Expr) -> str:
        c, b = self.c, self.base
        if isinstance(e, A.IntLit):
            return str(e.value)
        if isinstance(e, A.RealLit):
            return repr(e.value)
        if isinstance(e, A.LogicalLit):
            return "True" if e.value else "False"
        if isinstance(e, A.Var):
            if e.name in self.level_of and e.name in self.f.var_values:
                return f"{b}g{self.level_of[e.name]}"
            if e.name in self.f.temps:
                return f"{b}t_{e.name}"
            return c.var_read(e.name)
        if isinstance(e, A.ArrayRef):
            return self._vec_ref(e)
        if isinstance(e, A.UnOp):
            if e.op == ".not.":
                return f"_np.logical_not({self._vexpr(e.operand)})"
            return f"({e.op}{self._vexpr(e.operand)})"
        if isinstance(e, A.BinOp):
            return self._vbinop(e)
        if isinstance(e, A.FuncCall):
            if e.name.startswith("acfd_"):
                args = ", ".join(c.expr(a) for a in e.args)
                return f"ctx.rt.{e.name[5:]}({args})"
            args = ", ".join(self._vexpr(a) for a in e.args)
            return f"_vin_{e.name}({args})"
        raise CodegenError(  # pragma: no cover - analysis guarantees
            f"cannot vectorize expression {type(e).__name__}")

    def _vbinop(self, e: A.BinOp) -> str:
        op_map = {"+": "+", "-": "-", "*": "*",
                  ".lt.": "<", ".le.": "<=", ".gt.": ">", ".ge.": ">=",
                  ".eq.": "==", ".ne.": "!="}
        left = self._vexpr(e.left)
        right = self._vexpr(e.right)
        if e.op in op_map:
            return f"({left} {op_map[e.op]} {right})"
        if e.op == "/":
            lt = self.c.expr_type(e.left)
            rt = self.c.expr_type(e.right)
            if lt == "i" and rt == "i":
                return f"_vidiv({left}, {right})"
            return f"({left} / {right})"
        if e.op == ".and.":
            return f"_np.logical_and({left}, {right})"
        if e.op == ".or.":
            return f"_np.logical_or({left}, {right})"
        raise CodegenError(  # pragma: no cover - analysis guarantees
            f"cannot vectorize operator {e.op!r}")


def _goto_targets(unit: A.ProgramUnit) -> set[int]:
    targets: set[int] = set()
    for stmt in A.walk_statements(unit.body):
        if isinstance(stmt, A.Goto):
            targets.add(stmt.target)
        elif isinstance(stmt, A.ComputedGoto):
            targets.update(stmt.targets)
    return targets


def goto_targets(unit: A.ProgramUnit) -> set[int]:
    """Labels any GOTO in *unit* may jump to.

    Shared with the overlap restructurer: both the vectorizer and the
    interior/boundary splitter must refuse nests whose labels are jump
    targets, since re-emitting (or duplicating) such a nest breaks the
    unit's control flow.  The split nests this produces stay inside the
    vectorizer's provable subset — their adjusted bounds only add
    ``max0``/``min0`` over ``acfd_lo``/``acfd_hi``, which are invariant
    rank-local queries — so split programs keep their slice frames.
    """
    return _goto_targets(unit)


def survey(cu: A.CompilationUnit) -> tuple[int, int, list]:
    """Count (vectorized, fallback) nests and collect fallback reasons.

    Mirrors the backend's translation walk exactly: a proven chain is
    one vectorized nest (inner levels are consumed by it), and so is a
    partly vectorized one (its carried levels are not fallbacks); a failed
    loop
    counts as one fallback and its body is searched for inner nests the
    scalar recursion would retry.
    """
    from repro.fortran.symbols import resolve_compilation_unit
    for unit in cu.units:
        if unit.symbols is None:
            resolve_compilation_unit(cu)
            break
    vec = 0
    fallback = 0
    reasons: list[tuple[str, int, str]] = []

    def visit(unit: A.ProgramUnit, targeted: frozenset,
              stmts: list[A.Stmt]) -> None:
        nonlocal vec, fallback
        for s in stmts:
            if isinstance(s, A.DoLoop):
                facts = analyze_nest(s, unit.symbols, targeted)
                if facts.ok or facts.carried:
                    vec += 1
                else:
                    fallback += 1
                    reasons.append((unit.name, s.line, facts.reason))
                    visit(unit, targeted, s.body)
            elif isinstance(s, A.DoWhile):
                visit(unit, targeted, s.body)
            elif isinstance(s, A.IfBlock):
                for _, body in s.arms:
                    visit(unit, targeted, body)
            elif isinstance(s, A.LogicalIf):
                visit(unit, targeted, [s.stmt])

    for unit in cu.units:
        visit(unit, frozenset(_goto_targets(unit)), unit.body)
    return vec, fallback, reasons
