"""The whole-grid fused-numpy execution backend.

The blocked tier (:mod:`repro.opencl.simt` / ``simt_compile``) executes
one block of work-groups at a time and pays, per element, a handful of
numpy passes for dynamic race detection and fancy-indexed memory
traffic.  This backend executes the **entire launch as one block** —
one ``(num_groups, lanes_per_group)`` axis, flattened — and compiles
barrier-delimited straight-line segments into *fused numpy array
programs* that eliminate those passes where a static proof replaces the
dynamic machinery:

* **lazy affine values** — ``get_global_id(0)`` and integer arithmetic
  on it stay a symbolic ``base + g*group + l*lane`` descriptor
  (:class:`Aff`) instead of a materialized lane array;
* **slice memory traffic** — a load/store whose address is affine in
  the flat lane index with non-zero stride becomes a numpy slice (a
  view for loads from read-only buffers: zero passes) instead of a
  gather/scatter through an index array;
* **proof-carrying stores** — a buffer whose *only* access in the whole
  kernel is a single store through pairwise-distinct (affine,
  stride != 0) addresses is race-free by construction, so the store
  skips the hazard detector entirely (unaliased at launch time, checked
  O(1));
* **prefix masks** — a branch condition comparing an increasing affine
  value against a grid-uniform bound (``if (i < n)``) becomes a prefix
  of the lane axis: the active count is computed arithmetically and the
  guarded body runs on length-``k`` array prefixes, never materializing
  a boolean mask;
* **closed-form load accounting** — the cached-load log stores affine
  chunk descriptors and settles ``events - distinct (lane, address)``
  pairs arithmetically when the access pattern allows, instead of
  sorting address arrays.

Anything outside this algebra degrades gracefully, never incorrectly:

* an *expression* that leaves the algebra materializes into the exact
  lane arrays the blocked engine would hold and continues through the
  shared :class:`~repro.opencl.simt._Block` helpers (same counters,
  same hazard bookkeeping — bitwise-identical by construction);
* a *segment* the fuser cannot compile at all runs the corresponding
  closure segment of the shared :class:`~repro.opencl.simt_compile`
  pipeline, over the same whole-grid block (this is how barrier-heavy
  kernels like the gemv reference run here: still zero per-work-group
  Python loop iterations, every statement executes once for the whole
  grid);
* a *kernel* the static analysis refuses (or a launch beyond the
  whole-grid lane cap) raises
  :class:`~repro.backend.base.CompileUnsupported` and the engine chain
  moves on to the next backend;
* a *dynamic* bail-out (a cross-lane race) restores the written
  buffers from a snapshot and re-raises the ``VectorUnsupported`` whose
  message the chain ledgers before it continues — the whole-grid race
  detector is more conservative
  than the blocked one (it sees cross-group conflicts blocks order by
  construction), which is safe: the fallback reproduces the scalar
  result bit for bit.

Like every backend, the contract is bitwise-identical buffers and
identical :class:`~repro.opencl.interp.Counters` against the scalar
reference for every launch it completes.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from repro.compiler import cast as c
from repro.obs import profile as _obs_profile
from repro.backend.base import Backend, CompileUnsupported, ExecutionRequest
from repro.backend.registry import register_backend, register_engine
from repro.opencl import simt, simt_compile
from repro.opencl.cparser import ParsedProgram
from repro.opencl.interp import (
    Counters,
    ExecError,
    Pointer,
    _MATH_BUILTINS,
    array_dtype,
    binop_type,
    typed_zero,
)
from repro.opencl.simt import (
    RowPtr,
    VPtr,
    VectorUnsupported,
    _Block,
    _Frame,
    _LoadLog,
    _VMATH,
    _convert,
    _is_uniform,
    _release_hazards,
    _pool_tls,
    analyze_kernel,
    written_pointer_roots,
)

__all__ = ["Aff", "FusedBackend", "FusedKernel", "FUSED_MAX_LANES"]

#: Launches with more work-items than this refuse the whole-grid layout
#: (CompileUnsupported -> the chain falls back to the blocked compiled
#: tier, which caps memory at MAX_LANES per block).
FUSED_MAX_LANES = 1 << 21


class _Unfusable(Exception):
    """Compile-time: this segment runs the generic closure instead."""


_INT_UNIFORM = (int, np.integer)


def _is_int_uniform(v) -> bool:
    return isinstance(v, _INT_UNIFORM) and not isinstance(v, (bool, np.bool_))


# ---------------------------------------------------------------------------
# lazy affine lane values
# ---------------------------------------------------------------------------

class Aff:
    """Lazy integer lane vector ``base + gs*group + ls*lane_in_group``
    over the whole grid (``group`` = work-group ordinal, ``lane_in_group``
    = in-group lane ordinal, both in the scalar scheduler's order).

    ``flat_stride(Lc)`` is the stride over the *flat* lane index when
    the descriptor is expressible as ``base + s*flat`` (i.e. when
    ``gs == ls * Lc``), else ``None`` — the form slice accesses and
    prefix masks require.
    """

    __slots__ = ("base", "gs", "ls")

    def __init__(self, base: int, gs: int, ls: int):
        self.base = base
        self.gs = gs
        self.ls = ls

    def flat_stride(self, lanes_per_group: int) -> Optional[int]:
        if self.gs == self.ls * lanes_per_group:
            return self.ls
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Aff({self.base} + {self.gs}*g + {self.ls}*l)"


def _aff_binop(op: str, l, r):
    """Affine-preserving integer arithmetic; ``None`` = not representable."""
    la, ra = isinstance(l, Aff), isinstance(r, Aff)
    if op == "+":
        if la and ra:
            return Aff(l.base + r.base, l.gs + r.gs, l.ls + r.ls)
        if la and _is_int_uniform(r):
            return Aff(l.base + int(r), l.gs, l.ls)
        if ra and _is_int_uniform(l):
            return Aff(r.base + int(l), r.gs, r.ls)
    elif op == "-":
        if la and ra:
            return Aff(l.base - r.base, l.gs - r.gs, l.ls - r.ls)
        if la and _is_int_uniform(r):
            return Aff(l.base - int(r), l.gs, l.ls)
        if ra and _is_int_uniform(l):
            return Aff(int(l) - r.base, -r.gs, -r.ls)
    elif op == "*":
        if la and _is_int_uniform(r):
            u = int(r)
            return Aff(l.base * u, l.gs * u, l.ls * u)
        if ra and _is_int_uniform(l):
            u = int(l)
            return Aff(r.base * u, r.gs * u, r.ls * u)
    return None


# ---------------------------------------------------------------------------
# symbolic load accounting
# ---------------------------------------------------------------------------

class _SymChunks:
    """Per-buffer symbolic load chunks (fused fast-path gathers).

    Each chunk is ``(stride, base, k)`` for an affine access over the
    first ``k`` lanes (``stride None`` = grid-uniform address ``base``).
    ``settle`` computes ``(events, distinct (lane, address) pairs)`` in
    closed form when the chunk set provably cannot collide across
    descriptors — all-affine with one common stride (same stride +
    different base never share an address for the same lane; same
    descriptor trivially overlaps) or all-uniform (distinct addresses
    are disjoint pair sets).  Mixed or multi-stride sets materialize
    into the standard :class:`~repro.opencl.simt._LoadLog` arrays
    instead — exact, just not O(1).
    """

    __slots__ = ("array", "space", "chunks", "events")

    def __init__(self, array: np.ndarray, space: str):
        self.array = array  # keep the buffer alive while its id is a key
        self.space = space
        self.chunks: list = []  # (stride | None, base, k)
        self.events = 0

    def add(self, stride: Optional[int], base: int, k: int) -> None:
        self.chunks.append((stride, base, k))
        self.events += k

    def settle(self) -> Optional[tuple]:
        """(events, distinct) in closed form, or ``None``."""
        strides = {s for s, _, _ in self.chunks}
        if len(strides) != 1:
            return None  # mixed descriptors may collide: materialize
        per_base: dict = {}
        for _, base, k in self.chunks:
            per_base[base] = max(per_base.get(base, 0), k)
        return self.events, sum(per_base.values())

    def materialize_into(self, log: _LoadLog, lane_ids: np.ndarray) -> None:
        """Replay the chunks as the lane arrays the blocked engine would
        have logged (same (lane, address) pairs)."""
        for stride, base, k in self.chunks:
            lanes = lane_ids[:k]
            if stride is None:
                aa = np.broadcast_to(np.int64(base), (k,))
            else:
                aa = base + stride * lanes
            log.add(aa, lanes, k)


# ---------------------------------------------------------------------------
# whole-grid block
# ---------------------------------------------------------------------------

class _GridBlock(_Block):
    """One :class:`~repro.opencl.simt._Block` covering the entire launch,
    extended with the fused fast paths (affine values, slice memory
    traffic, proof-carrying stores, symbolic load log)."""

    def __init__(self, *args, sole_ids=None, one_d=False, **kwargs):
        super().__init__(*args, **kwargs)
        #: Arrays whose single kernel-wide access is one proven store.
        self._sole_ids = sole_ids or frozenset()
        #: Effectively 1-D launch: geometry builtins yield Aff values.
        self._one_d = one_d
        self._sym_log: dict = {}

    # -- affine helpers --------------------------------------------------
    def aff_values(self, v: Aff, k: int) -> np.ndarray:
        """Materialize the first ``k`` lanes of an affine descriptor."""
        s = v.flat_stride(self._lanes_per_group)
        lanes = self._lane_ids if k == self.L else self._lane_ids[:k]
        if s is not None:
            if s == 0:
                return np.broadcast_to(np.int64(v.base), (k,))
            return v.base + s * lanes
        out = v.base + v.gs * (
            self.group_row if k == self.L else self.group_row[:k]
        )
        if v.ls:
            out = out + v.ls * (self.lid[0] if k == self.L else self.lid[0][:k])
        return out

    def lanes_k(self, v, k: int):
        """Materialize ``v`` for the active prefix; uniforms stay scalar
        (exactly the blocked engine's value discipline)."""
        if isinstance(v, Aff):
            return self.aff_values(v, k)
        if isinstance(v, np.ndarray) and v.ndim == 1 and v.shape[0] != k:
            return v[:k]
        return v

    def materialize_env(self) -> None:
        """Collapse affine descriptors before generic closures run."""
        env = self.env
        for name, v in env.items():
            if isinstance(v, Aff):
                env[name] = self.aff_values(v, self.L)

    def prefix_mask(self, k: int) -> np.ndarray:
        if k == self.L:
            return self._full
        m = np.zeros(self.L, dtype=bool)
        m[:k] = True
        return m

    # -- symbolic load log ----------------------------------------------
    def log_sym(self, ptr, stride: Optional[int], base: int, k: int) -> None:
        key = (id(ptr.array), 0)
        sym = self._sym_log.get(key)
        if sym is None:
            sym = _SymChunks(ptr.array, ptr.space)
            self._sym_log[key] = sym
        sym.add(stride, base, k)

    def _obs_load_events(self) -> int:
        """Running load-event total including the symbolic log (the
        closed-form chunks count element events as they are added)."""
        return super()._obs_load_events() + sum(
            sym.events for sym in self._sym_log.values()
        )

    def _flush_load_log(self) -> None:
        counters = self.counters
        prof = _obs_profile.ACTIVE
        for key, sym in self._sym_log.items():
            log = self._load_log.get(key)
            if log is None:
                closed = sym.settle()
                if closed is not None:
                    events, distinct = closed
                    counters.cached_loads += events - distinct
                    if sym.space == "global":
                        counters.global_loads += distinct
                    else:
                        counters.local_loads += distinct
                    if prof is not None:
                        prof.record_loads(
                            sym.array, sym.space, distinct, events - distinct
                        )
                    continue
                log = _LoadLog(sym.array, sym.space, 0, self.L)
                self._load_log[key] = log
            sym.materialize_into(log, self._lane_ids)
        self._sym_log.clear()
        super()._flush_load_log()

    # -- fused memory traffic --------------------------------------------
    def _flat_ptr(self, ptr, addr):
        """(flat array, flat affine address) for a shared-buffer access,
        folding a RowPtr's per-group row into the descriptor; ``None``
        when not representable."""
        if not isinstance(addr, Aff):
            return None
        offset = ptr.offset
        if not (type(offset) is int):
            return None
        if type(ptr) is VPtr:
            aff = Aff(addr.base + offset, addr.gs, addr.ls)
            return ptr.array, aff
        # Local buffers: one row per work-group, rows == group ordinal.
        if ptr.rows is not self.group_row:
            return None
        width = ptr.array.shape[1]
        aff = Aff(addr.base + offset, addr.gs + width, addr.ls)
        return ptr.array.reshape(-1), aff

    def fused_gather(self, ptr, index, k: int):
        off = ptr.offset
        addr = index if type(off) is int and off == 0 else _addr_add(off, index)
        if ptr.space == "private":
            self.counters.private_loads += k
            aa = self.lanes_k(addr, k)
            if type(ptr) is RowPtr:
                rows = ptr.rows if k == self.L else ptr.rows[:k]
                if _is_uniform(aa):
                    return ptr.array[rows, int(aa)]
                return ptr.array[rows, aa]
            if _is_uniform(aa):
                return ptr.array[int(aa)]
            return ptr.array[aa]
        tracked = self._needs_hazard(ptr)
        if not tracked:
            if isinstance(addr, Aff):
                flat = self._flat_ptr(ptr, addr)
                if flat is not None:
                    arr, aff = flat
                    s = aff.flat_stride(self._lanes_per_group)
                    if s is not None and s >= 0:
                        base = aff.base
                        last = base + s * (k - 1)
                        if 0 <= base and last < arr.shape[0]:
                            if s == 0:
                                self.log_sym(ptr, None, base, k)
                                return arr[base]
                            self.log_sym(ptr, s, base, k)
                            # Read-only view: nothing writes this buffer
                            # (untracked), so aliasing cannot bite.
                            return arr[base : base + k] if s == 1 else (
                                arr[base : last + 1 : s]
                            )
            elif _is_uniform(addr) and type(ptr) is VPtr:
                self.log_sym(ptr, None, int(addr), k)
                return ptr.array[int(addr)]
        # Generic: materialize and mirror the blocked engine's exact
        # path (same logged pairs, same hazard notes, same values).
        aa = self.lanes_k(addr, k)
        arr = ptr.array
        lanes = self._lane_ids if k == self.L else self._lane_ids[:k]
        if type(ptr) is RowPtr:
            rows = ptr.rows if k == self.L else ptr.rows[:k]
            flat = rows * arr.shape[1] + aa  # broadcasts a uniform addr
            self._log_load(ptr, flat, lanes, 0, k)
            if tracked:
                self._hazard(ptr).note_read(
                    flat, lanes, self._segment, self._seg_base
                )
            if _is_uniform(aa):
                return arr[rows, int(aa)]
            return arr.reshape(-1)[flat]
        if _is_uniform(aa):
            logged = np.broadcast_to(np.asarray(aa), (k,))
        else:
            logged = aa
        self._log_load(ptr, logged, lanes, 0, k)
        if tracked:
            self._hazard(ptr).note_read(
                logged, lanes, self._segment, self._seg_base
            )
        if _is_uniform(aa):
            return arr[int(aa)]
        return arr[aa]

    def fused_scatter(self, ptr, index, value, k: int, sole_site: bool) -> None:
        off = ptr.offset
        addr = index if type(off) is int and off == 0 else _addr_add(off, index)
        if ptr.space == "private":
            vals = self.lanes_k(value, k)
            aa = self.lanes_k(addr, k)
            if type(ptr) is RowPtr:
                rows = ptr.rows if k == self.L else ptr.rows[:k]
                ptr.array[rows, aa] = vals
            else:
                ptr.array[aa] = vals
            self._count_stores(ptr, "private", k)
            return
        if not self._needs_hazard(ptr):
            raise VectorUnsupported(
                "store through a buffer the write analysis missed"
            )
        if sole_site and id(ptr.array) in self._sole_ids:
            flat = self._flat_ptr(ptr, addr)
            if flat is not None:
                arr, aff = flat
                s = aff.flat_stride(self._lanes_per_group)
                if s is not None and s > 0:
                    base = aff.base
                    last = base + s * (k - 1)
                    if 0 <= base and last < arr.shape[0]:
                        vals = self.lanes_k(value, k)
                        # Pairwise-distinct addresses + sole kernel-wide
                        # access + unaliased at launch: race-free by
                        # construction, no hazard bookkeeping.
                        if s == 1:
                            arr[base : base + k] = vals
                        else:
                            arr[base : last + 1 : s] = vals
                        self._count_stores(ptr, ptr.space, k)
                        return
        # Generic: the blocked engine's scatter (hazard + fancy store;
        # ascending lane order resolves duplicate addresses).
        aa = self.lanes_k(addr, k)
        if _is_uniform(aa):
            aa = np.broadcast_to(np.asarray(aa, dtype=np.int64), (k,))
        vals = self.lanes_k(value, k)
        arr = ptr.array
        if type(ptr) is RowPtr:
            rows = ptr.rows if k == self.L else ptr.rows[:k]
            aa = rows * arr.shape[1] + aa
        lanes = self._lane_ids if k == self.L else self._lane_ids[:k]
        self._hazard(ptr).note_write(aa, lanes, self._segment, self._seg_base)
        if not isinstance(vals, np.ndarray):
            vals = np.broadcast_to(np.asarray(vals), (k,))
        arr.reshape(-1)[aa] = vals
        self._count_stores(ptr, ptr.space, k)


def _addr_add(off, index):
    out = _aff_binop("+", off, index)
    if out is not None:
        return out
    return off + index


# ---------------------------------------------------------------------------
# grid-uniformity analysis (loop trip counts)
# ---------------------------------------------------------------------------
#
# A fused loop must have a *grid-uniform* trip count — every work-item
# of the whole launch agrees — so the loop can run as a plain Python
# loop over whole-grid closures.  This is the group-uniformity solver
# (``simt.uniform_names``) with one difference: ``get_group_id`` is
# *not* grid-uniform (only the size getters are).

_GEOM_GRID_UNIFORM = frozenset(("get_local_size", "get_global_size", "get_num_groups"))
_GRID_UNIFORM_CALLS = _GEOM_GRID_UNIFORM | frozenset(_MATH_BUILTINS)


def _guniform_expr(e, names: set) -> bool:
    return simt._expr_uniform(e, names, _GRID_UNIFORM_CALLS)


def _grid_uniform_names(kernel: c.CFunctionDef) -> frozenset:
    return frozenset(simt.uniform_names(kernel, _GRID_UNIFORM_CALLS))


# ---------------------------------------------------------------------------
# sole-store analysis (proof-carrying stores)
# ---------------------------------------------------------------------------

def _sole_store_sites(kernel: c.CFunctionDef) -> tuple:
    """``(qualified names, {id(store stmt)})`` for buffers whose only
    kernel-wide access is one loop-free store.

    A name qualifies when it has exactly one store site, zero load
    sites, appears nowhere else (any other occurrence — helper
    argument, pointer assignment, vload/vstore operand — poisons it),
    and the store is not inside any loop (a repeated affine store could
    collide with its own earlier executions at shifted bases).  Such a
    store with pairwise-distinct addresses is race-free however the
    launch is scheduled, so the fused backend skips hazard bookkeeping
    for it (after an O(1) aliasing check at launch time).
    """
    universe = {p.name for p in kernel.params if p.is_pointer}
    stores: dict = {}
    loads: dict = {}
    poison: set = set()

    def scan_expr(e) -> None:
        if isinstance(e, c.CIndex):
            if isinstance(e.base, c.CIdent):
                loads[e.base.name] = loads.get(e.base.name, 0) + 1
            else:
                scan_expr(e.base)
            scan_expr(e.index)
        elif isinstance(e, c.CIdent):
            poison.add(e.name)
        elif isinstance(e, c.CBinOp):
            scan_expr(e.lhs)
            scan_expr(e.rhs)
        elif isinstance(e, c.CUnOp):
            scan_expr(e.operand)
        elif isinstance(e, c.CTernary):
            scan_expr(e.cond)
            scan_expr(e.then)
            scan_expr(e.otherwise)
        elif isinstance(e, c.CMember):
            scan_expr(e.base)
        elif isinstance(e, c.CCast):
            scan_expr(e.operand)
        elif isinstance(e, c.CVectorLiteral):
            for item in e.items:
                scan_expr(item)
        elif isinstance(e, c.CCall):
            for a in e.args:
                scan_expr(a)

    def scan_stmt(s, in_loop: bool) -> None:
        if isinstance(s, c.CBlock):
            for sub in s.stmts:
                scan_stmt(sub, in_loop)
        elif isinstance(s, c.CDecl):
            if s.qualifier == "local" and s.array_size is not None:
                universe.add(s.name)
            if s.init is not None:
                scan_expr(s.init)
        elif isinstance(s, c.CAssign):
            target = s.target
            if isinstance(target, c.CIndex) and isinstance(
                target.base, c.CIdent
            ):
                stores.setdefault(target.base.name, []).append((s, in_loop))
                if s.op != "=":  # compound store re-loads the address
                    loads[target.base.name] = (
                        loads.get(target.base.name, 0) + 1
                    )
                scan_expr(target.index)
            else:
                scan_expr(target)
            scan_expr(s.value)
        elif isinstance(s, c.CFor):
            if s.init is not None:
                scan_stmt(s.init, in_loop)
            if s.cond is not None:
                scan_expr(s.cond)
            if s.step is not None:
                scan_stmt(s.step, True)
            scan_stmt(s.body, True)
        elif isinstance(s, c.CIf):
            scan_expr(s.cond)
            scan_stmt(s.then, in_loop)
            if s.otherwise is not None:
                scan_stmt(s.otherwise, in_loop)
        elif isinstance(s, c.CExprStmt):
            scan_expr(s.expr)
        elif isinstance(s, c.CReturn):
            if s.value is not None:
                scan_expr(s.value)

    scan_stmt(kernel.body, False)
    qualified = set()
    sole_sites = set()
    for name in universe:
        sites = stores.get(name, [])
        if (
            len(sites) == 1
            and not sites[0][1]
            and loads.get(name, 0) == 0
            and name not in poison
        ):
            qualified.add(name)
            sole_sites.add(id(sites[0][0]))
    return qualified, sole_sites


# ---------------------------------------------------------------------------
# fused segment compiler
# ---------------------------------------------------------------------------
#
# Fused closures take ``(block, k)``: the active lanes are always the
# *first k* of the whole grid (k == L at segment top level; a prefix
# under a fused branch).  Materialized arrays are length-k prefixes,
# which is what lets a guarded store slice-assign without ever building
# a boolean mask.  Statements that bind variables compile only in
# unmasked position (k == L by construction), so the environment never
# holds a compressed array.

_CMP_UFUNC = simt_compile._CMP_UFUNC
_align = _Block._align
_charge = simt_compile._charge


class _FCtx:
    """Per-kernel fuse-compilation state (over the static types of the
    pipeline it pairs with)."""

    def __init__(self, parsed: ParsedProgram, kernel: c.CFunctionDef, types):
        self.parsed = parsed
        self.sctx = simt_compile._Ctx(parsed, kernel, types)
        self.uniform_names = _grid_uniform_names(kernel)
        qualified, sole_sites = _sole_store_sites(kernel)
        self.sole_names = qualified
        self.sole_sites = sole_sites


def _fuse_expr(e, fc: _FCtx):
    t = type(e)
    if t is c.CInt or t is c.CFloat:
        value = e.value
        return lambda b, k: value
    if t is c.CIdent:
        name = e.name

        def load_ident(b, k):
            try:
                v = b.env[name]
            except KeyError:
                raise ExecError(f"undefined identifier {name!r}") from None
            if (
                k != b.L
                and isinstance(v, np.ndarray)
                and v.shape[0] == b.L
            ):
                return v[:k]
            return v

        return load_ident
    if t is c.CBinOp:
        return _fuse_binop(e, fc)
    if t is c.CUnOp:
        if e.op != "-":
            raise _Unfusable(f"fused: unary operator {e.op}")
        operand = _fuse_expr(e.operand, fc)

        def negate(b, k):
            v = operand(b, k)
            if isinstance(v, Aff):
                return Aff(-v.base, -v.gs, -v.ls)
            return -v

        return negate
    if t is c.CIndex:
        base_c = _fuse_expr(e.base, fc)
        index_c = _fuse_expr(e.index, fc)

        def gather(b, k):
            bv = base_c(b, k)
            iv = index_c(b, k)
            if isinstance(bv, (VPtr, RowPtr)):
                return b.fused_gather(bv, iv, k)
            raise VectorUnsupported(f"fused: cannot index {bv!r}")

        return gather
    if t is c.CCall:
        return _fuse_call(e, fc)
    if t is c.CCast:
        operand = _fuse_expr(e.operand, fc)
        if e.type_name in ("int", "uint", "long"):

            def to_int(b, k):
                v = operand(b, k)
                if isinstance(v, Aff):
                    return v  # affine descriptors are already integer
                if isinstance(v, np.ndarray):
                    return v.astype(np.int64)
                return int(v)

            return to_int
        if e.type_name in ("float", "double"):

            def to_float(b, k):
                v = operand(b, k)
                if isinstance(v, Aff):
                    v = b.aff_values(v, k)
                if isinstance(v, np.ndarray):
                    return v.astype(np.float64)
                return float(v)

            return to_float
        return operand
    raise _Unfusable(f"fused: cannot compile expression {e!r}")


def _fuse_binop(e: c.CBinOp, fc: _FCtx):
    op = e.op
    if op == "&&" or op == "||":
        raise _Unfusable("fused: short-circuit operator")
    lhs = _fuse_expr(e.lhs, fc)
    rhs = _fuse_expr(e.rhs, fc)
    cmp = _CMP_UFUNC.get(op)
    if cmp is not None:

        def compare(b, k):
            l = lhs(b, k)
            r = rhs(b, k)
            b.counters.iops += k
            l = b.lanes_k(l, k)
            r = b.lanes_k(r, k)
            l, r = _align(l, r)
            return cmp(l, r)

        return compare
    lt, rt = fc.sctx.type_of(e.lhs), fc.sctx.type_of(e.rhs)
    if not (simt_compile._known(lt) and simt_compile._known(rt)):
        raise _Unfusable("fused: an operand typed by the run")
    divisor = e.rhs.value if type(e.rhs) is c.CInt else None
    # An Aff is an integer lane vector: its static type is ``int``.
    value_of, field, units = simt_compile._binop_parts(op, lt, rt, divisor)

    def arith(b, k):
        l = lhs(b, k)
        r = rhs(b, k)
        _charge(b.counters, field, units * k)
        av = _aff_binop(op, l, r)
        if av is not None:
            return av
        return value_of(b.lanes_k(l, k), b.lanes_k(r, k), True)

    return arith


def _fuse_call(e: c.CCall, fc: _FCtx):
    name = e.func
    if name.startswith("get_"):
        field = simt_compile._GEOMETRY_FIELDS.get(name)
        if field is None:
            raise _Unfusable(f"fused: unknown geometry builtin {name!r}")
        if not e.args:
            dim = 0
        elif type(e.args[0]) is c.CInt:
            dim = e.args[0].value
        else:
            raise _Unfusable("fused: dynamic geometry dimension")
        if name in _GEOM_GRID_UNIFORM:
            return lambda b, k: getattr(b, field)[dim]

        kind = name

        def geometry(b, k):
            if b._one_d and dim == 0:
                if kind == "get_global_id":
                    return Aff(0, b._lanes_per_group, 1)
                if kind == "get_local_id":
                    return Aff(0, 0, 1)
                return Aff(0, 1, 0)  # get_group_id
            arr = getattr(b, field)[dim]
            return arr if k == b.L else arr[:k]

        return geometry
    builtin = _VMATH.get(name)
    if builtin is not None:
        cost, fn = builtin
        arg_cs = [_fuse_expr(a, fc) for a in e.args]
        width = simt_compile._builtin_width(fc.sctx, e)
        if width is None:
            raise _Unfusable("fused: a builtin argument typed by the run")
        flops = cost * width

        def call(b, k):
            args = [b.lanes_k(ac(b, k), k) for ac in arg_cs]
            b.counters.flops += flops * k
            return fn(*args)

        return call
    raise _Unfusable(f"fused: call to {name!r}")


# -- conditions --------------------------------------------------------------

def _fuse_cond(e, fc: _FCtx):
    """Compile a branch condition to ``(b, k) -> (kind, value)`` with
    kind ``"u"`` (grid-uniform bool), ``"p"`` (prefix count), or
    ``"a"`` (length-k boolean array)."""
    if isinstance(e, c.CBinOp):
        cmpfn = _CMP_UFUNC.get(e.op)
        if cmpfn is not None:
            op = e.op
            lhs = _fuse_expr(e.lhs, fc)
            rhs = _fuse_expr(e.rhs, fc)
            lt_like = op in ("<", "<=")

            def cond_cmp(b, k):
                l = lhs(b, k)
                r = rhs(b, k)
                b.counters.iops += k
                if isinstance(l, Aff) and _is_int_uniform(r) and lt_like:
                    s = l.flat_stride(b._lanes_per_group)
                    if s is not None and s > 0:
                        bound = int(r) + (1 if op == "<=" else 0)
                        kk = -(-(bound - l.base) // s)  # ceil, s > 0
                        return "p", min(max(kk, 0), k)
                l2 = b.lanes_k(l, k)
                r2 = b.lanes_k(r, k)
                if _is_uniform(l2) and _is_uniform(r2):
                    return "u", bool(cmpfn(l2, r2))
                l2, r2 = _align(l2, r2)
                return "a", cmpfn(l2, r2)

            return cond_cmp
    expr = _fuse_expr(e, fc)

    def cond_any(b, k):
        v = expr(b, k)
        if isinstance(v, Aff):
            v = b.aff_values(v, k)
        if _is_uniform(v):
            return "u", bool(v)
        if isinstance(v, np.ndarray):
            if v.ndim != 1:
                raise VectorUnsupported("vector used in a scalar condition")
            return "a", v if v.dtype.kind == "b" else v != 0
        raise VectorUnsupported(f"cannot use {v!r} as a condition")

    return cond_any


# -- statements --------------------------------------------------------------

def _fuse_stmt(s, fc: _FCtx, masked: bool):
    t = type(s)
    if t is c.CBlock:
        fns = []
        for sub in s.stmts:
            fn = _fuse_stmt(sub, fc, masked)
            if fn is not None:
                fns.append(fn)
        if len(fns) == 1:
            return fns[0]

        def run_block(b, k):
            for fn in fns:
                fn(b, k)

        return run_block
    if t is c.CComment:
        return None
    if t is c.CAssign:
        if isinstance(s.target, c.CIndex):
            return _fuse_store(s, fc)
        if masked:
            raise _Unfusable("fused: variable binding under a mask")
        if isinstance(s.target, c.CIdent):
            return _fuse_bind(s.target.name, _compound_value(s, fc), fc)
        raise _Unfusable(f"fused: cannot assign to {s.target!r}")
    if t is c.CExprStmt:
        expr = _fuse_expr(s.expr, fc)

        def run_expr(b, k):
            expr(b, k)

        return run_expr
    if masked:
        raise _Unfusable(f"fused: {type(s).__name__} under a mask")
    if t is c.CDecl:
        return _fuse_decl(s, fc)
    if t is c.CFor:
        return _fuse_for(s, fc)
    if t is c.CIf:
        return _fuse_if(s, fc)
    if t is c.CBarrier:
        return _barrier_closure
    raise _Unfusable(f"fused: cannot compile statement {s!r}")


def _compound_value(s: c.CAssign, fc: _FCtx):
    """RHS closure for an assignment, folding compound operators the
    way the closure compiler does (same evaluation and count order)."""
    value_c = _fuse_expr(s.value, fc)
    if s.op == "=":
        return value_c
    op = s.op[0]
    current_c = _fuse_expr(s.target, fc)
    ct, vt = fc.sctx.type_of(s.target), fc.sctx.type_of(s.value)
    rt = binop_type(op, ct, vt)
    if not all(simt_compile._known(t) for t in (ct, vt, rt)):
        raise _Unfusable("fused: an operand typed by the run")
    value_of, field, units = simt_compile._binop_parts(op, ct, vt, counted=rt)

    def compound(b, k):
        v = value_c(b, k)
        cur = current_c(b, k)
        _charge(b.counters, field, units * k)
        av = _aff_binop(op, cur, v)
        if av is not None:
            return av
        return value_of(b.lanes_k(cur, k), b.lanes_k(v, k), True)

    return compound


def _fuse_bind(name: str, value_c, fc: _FCtx):
    """The unmasked store ``name = value_c(...)`` (k == L by
    construction), converted to the declared kind of ``name`` —
    resolved at plan time, like ``simt_compile._Ctx.bind``."""
    kind = fc.sctx.kinds.get(name)

    def bind(b, k):
        v = value_c(b, k)
        if kind == "f" and type(v) is Aff:  # Aff: integer lane vector
            v = b.aff_values(v, k)
        b.env[name] = _convert(kind, v)

    return bind


def _fuse_store(s: c.CAssign, fc: _FCtx):
    value_c = _compound_value(s, fc)
    target = s.target
    base_c = _fuse_expr(target.base, fc)
    index_c = _fuse_expr(target.index, fc)
    sole = id(s) in fc.sole_sites

    def store(b, k):
        v = value_c(b, k)
        bv = base_c(b, k)
        iv = index_c(b, k)
        if not isinstance(bv, (VPtr, RowPtr)):
            raise ExecError(f"indexed store into non-pointer {bv!r}")
        b.fused_scatter(bv, iv, v, k, sole)

    return store


def _fuse_decl(decl: c.CDecl, fc: _FCtx):
    name = decl.name
    if decl.qualifier == "local" and decl.array_size is not None:

        def check_local(b, k):
            if name not in b.env:
                raise ExecError(f"local buffer {name} was not pre-allocated")

        return check_local
    if decl.array_size is not None:
        size, dtype = decl.array_size, array_dtype(decl.type_name)
        return lambda b, k: b._alloc_private(name, size, dtype)
    if decl.init is not None:
        return _fuse_bind(name, _fuse_expr(decl.init, fc), fc)
    zero = typed_zero(decl.type_name, fc.parsed.structs)
    if not isinstance(zero, (int, float)):
        raise _Unfusable("fused: struct or vector declaration")

    def declare_zero(b, k):  # unmasked: k == L by construction
        b.env[name] = zero

    return declare_zero


def _static_grid_uniform_stmt(s, names) -> bool:
    if s is None:
        return True
    if isinstance(s, c.CDecl):
        return s.init is None or _guniform_expr(s.init, names)
    if isinstance(s, c.CAssign) and isinstance(s.target, c.CIdent):
        return _guniform_expr(s.value, names) and (
            s.op == "=" or s.target.name in names
        )
    return False


def _fuse_for(s: c.CFor, fc: _FCtx):
    names = fc.uniform_names
    if not (
        _static_grid_uniform_stmt(s.init, names)
        and (s.cond is None or _guniform_expr(s.cond, names))
        and _static_grid_uniform_stmt(s.step, names)
    ):
        raise _Unfusable("fused: lane-varying loop")
    init_c = _fuse_stmt(s.init, fc, masked=False) if s.init is not None else None
    cond_c = _fuse_expr(s.cond, fc) if s.cond is not None else None
    step_c = _fuse_stmt(s.step, fc, masked=False) if s.step is not None else None
    body_c = _fuse_stmt(s.body, fc, masked=False)
    if body_c is None:
        body_c = lambda b, k: None  # noqa: E731 - comment-only body

    def run_for(b, k):
        if init_c is not None:
            init_c(b, k)
        counters = b.counters
        while True:
            if cond_c is not None:
                cv = cond_c(b, k)
                if not _is_uniform(cv):
                    raise VectorUnsupported(
                        "fused: loop condition became lane-varying"
                    )
                if not cv:
                    break
            counters.loop_iterations += k
            body_c(b, k)
            if step_c is not None:
                step_c(b, k)

    return run_for


def _fuse_if(s: c.CIf, fc: _FCtx):
    cond_c = _fuse_cond(s.cond, fc)
    try:
        then_f = _fuse_stmt(s.then, fc, masked=True)
    except _Unfusable:
        then_f = None
    try:
        else_f = (
            _fuse_stmt(s.otherwise, fc, masked=True)
            if s.otherwise is not None
            else None
        )
        have_else_f = s.otherwise is not None
    except _Unfusable:
        else_f = None
        have_else_f = False
    # Generic closures for the array-mask path (and fused-refused
    # branches); compiled through the shared closure compiler so counts
    # and semantics match the blocked engine exactly.
    then_g = simt_compile._compile_stmt(s.then, fc.sctx, has_returns=False)
    else_g = (
        simt_compile._compile_stmt(s.otherwise, fc.sctx, has_returns=False)
        if s.otherwise is not None
        else None
    )
    has_else = s.otherwise is not None

    def run_then(b, k):
        if then_f is not None:
            then_f(b, k)
        elif then_g is not None:
            b.materialize_env()
            then_g(b, b.prefix_mask(k), k, b._fused_frame)

    def run_else(b, k):
        if have_else_f and else_f is not None:
            else_f(b, k)
        elif else_g is not None:
            b.materialize_env()
            else_g(b, b.prefix_mask(k), k, b._fused_frame)

    def run_if(b, k):
        b.counters.branches += k
        kind, val = cond_c(b, k)
        if kind == "p" and has_else:
            # The complement of a prefix is a suffix; fall back to the
            # boolean-mask path for if/else.
            arr = np.zeros(k, dtype=bool)
            arr[:val] = True
            kind, val = "a", arr
        if kind == "u":
            if val:
                run_then(b, k)
            elif has_else:
                run_else(b, k)
        elif kind == "p":
            if val:
                run_then(b, val)
        else:
            cv = val
            if k == b.L:
                cv_full = cv
                m = b._full
            else:
                cv_full = np.zeros(b.L, dtype=bool)
                cv_full[:k] = cv
                m = b.prefix_mask(k)
            mt = m & cv_full
            nt = int(np.count_nonzero(mt))
            b.materialize_env()
            if nt and then_g is not None:
                then_g(b, mt, nt, b._fused_frame)
            if else_g is not None and nt < k:
                mf = m & ~cv_full
                else_g(b, mf, k - nt, b._fused_frame)

    return run_if


# ---------------------------------------------------------------------------
# fused kernels and the backend
# ---------------------------------------------------------------------------

def _wrap_fused(stmt_c):
    """Adapt a fused statement closure to the segment signature shared
    with the generic pipeline closures."""

    def segment(b, m, n, frame):
        if stmt_c is not None:
            stmt_c(b, n)

    return segment


def _barrier_closure(b, k):
    b.counters.barriers += k
    b._segment += 1


class FusedKernel:
    """A kernel compiled for whole-grid execution: fused segments where
    the algebra allows, the shared closure-pipeline segments elsewhere."""

    __slots__ = (
        "kernel_name", "segments", "has_returns", "sole_names",
        "fused_segment_count", "pipeline",
    )

    def __init__(self, kernel_name, segments, has_returns, sole_names,
                 fused_segment_count, pipeline):
        self.kernel_name = kernel_name
        #: The closure pipeline it pairs with (and whose types it uses).
        self.pipeline = pipeline
        self.segments = segments  # (kind, closure) per barrier segment
        self.has_returns = has_returns
        self.sole_names = sole_names
        self.fused_segment_count = fused_segment_count

    def execute(self, request: ExecutionRequest) -> None:
        gsize, lsize = request.gsize, request.lsize
        total = request.total_work_items
        if total > FUSED_MAX_LANES:
            raise CompileUnsupported(
                f"launch of {total} work-items exceeds the whole-grid cap "
                f"({FUSED_MAX_LANES})"
            )
        parsed, kernel = request.parsed, request.kernel
        geometry = simt._block_geometry(gsize, lsize, whole_grid=True)
        geo = geometry["blocks"][0]
        group_row = geo["group_row"]

        written = written_pointer_roots(parsed, kernel)
        base_env = request.base_env
        arg_ids: dict = {}
        for v in base_env.values():
            if isinstance(v, Pointer):
                arg_ids[id(v.array)] = arg_ids.get(id(v.array), 0) + 1
        tracked = {
            id(v.array)
            for name, v in base_env.items()
            if isinstance(v, Pointer) and name in written
        }
        env: dict = {}
        sole_ids: set = set()
        for name, v in base_env.items():
            if isinstance(v, Pointer):
                env[name] = VPtr(v.array, v.offset, v.space)
                if name in self.sole_names and arg_ids[id(v.array)] == 1:
                    sole_ids.add(id(v.array))
            else:
                env[name] = v
        for decl in request.local_decls:
            local_array = np.zeros(
                (geo["n_groups"], decl.array_size),
                dtype=array_dtype(decl.type_name),
            )
            env[decl.name] = RowPtr(local_array, group_row, 0, "local")
            if decl.name in written:
                tracked.add(id(local_array))
            if decl.name in self.sole_names:
                sole_ids.add(id(local_array))  # fresh array: never aliased

        staged = Counters()
        block = _GridBlock(
            staged, geo["lanes"], group_row, geo["lid"], geo["gid"],
            geo["group_ids"], gsize, lsize, geometry["num_groups"],
            seg_start=getattr(_pool_tls, "epoch", 0),
            tracked=tracked,
            lane_ids=geo["lane_ids"],
            full=geo["full"],
            sole_ids=frozenset(sole_ids),
            one_d=(
                lsize[1] == 1 and lsize[2] == 1
                and gsize[1] == 1 and gsize[2] == 1
            ),
        )
        block.env = env
        block._fused_frame = _Frame(block.L)

        prof = _obs_profile.ACTIVE
        if prof is not None:
            prof.begin_launch(kernel.name)
            for name, v in env.items():
                if isinstance(v, (VPtr, RowPtr)):
                    prof.map_buffer(v.array, name)

        snapshot: dict = {}
        for v in base_env.values():
            if isinstance(v, Pointer) and id(v.array) in tracked:
                if id(v.array) not in snapshot:
                    snapshot[id(v.array)] = (v.array, v.array.copy())
        try:
            with np.errstate(all="ignore"):
                frame = _Frame(block.L)
                m = block._full
                n = block.L
                for index, (kind, fn) in enumerate(self.segments):
                    if self.has_returns and frame.returned_any:
                        m = m & ~frame.ret_mask
                        n = int(np.count_nonzero(m))
                        if n == 0:
                            break
                    if kind == "generic":
                        block.materialize_env()
                    if prof is None:
                        fn(block, m, n, frame)
                    else:
                        simt_compile.run_segment_profiled(
                            prof, index, kind, fn, block, m, n, frame
                        )
                block._flush_load_log()
        except (VectorUnsupported, MemoryError) as exc:
            # MemoryError: the whole-grid layout multiplies per-lane
            # state (private arrays, temporaries) by the entire launch;
            # a failed allocation is a dynamic refusal like any other —
            # restore and let the blocked tier run it in cache-sized
            # blocks.
            for array, saved in snapshot.values():
                array[:] = saved
            if isinstance(exc, VectorUnsupported):
                raise
            raise VectorUnsupported(
                "whole-grid layout ran out of memory"
            ) from exc
        finally:
            _pool_tls.epoch = block._segment + 1
            _release_hazards(block._hazards)
        request.counters.merge_in(staged)
        request.counters.work_items += total


def _build_fused(
    parsed: ParsedProgram, kernel: c.CFunctionDef, pipeline
) -> FusedKernel:
    fc = _FCtx(parsed, kernel, pipeline.types)
    segments: list = []
    fused_count = 0
    # The same split the pipeline was built from pairs each region with
    # its generic closure.
    for region, generic in zip(
        simt_compile.split_at_barriers(kernel), pipeline.segments
    ):
        if type(region) is c.CBarrier:
            segments.append(("fused", _wrap_fused(_barrier_closure)))
        elif pipeline.has_returns:
            segments.append(("generic", generic))
        else:
            try:
                stmt_c = _fuse_stmt(region, fc, masked=False)
            except _Unfusable:
                segments.append(("generic", generic))
            else:
                segments.append(("fused", _wrap_fused(stmt_c)))
                fused_count += 1
    return FusedKernel(
        kernel.name, segments, pipeline.has_returns,
        frozenset(fc.sole_names), fused_count, pipeline,
    )


_fused_lock = threading.Lock()
_MISSING = object()


def get_fused_kernel(
    parsed: ParsedProgram, kernel: c.CFunctionDef,
    pointer_kinds: Optional[tuple] = None,
) -> Optional[FusedKernel]:
    """The whole-grid compilation of a kernel for pointer arguments of
    ``pointer_kinds`` (default: as declared), or ``None`` when
    :func:`~repro.opencl.simt.analyze_kernel` refuses it.  Cached on the
    parsed program like the closure pipelines."""
    key = (kernel.name, pointer_kinds)
    cache = getattr(parsed, "_fused_kernels", None)
    if cache is not None:
        entry = cache.get(key, _MISSING)
        if entry is not _MISSING:
            return entry
    with _fused_lock:
        cache = getattr(parsed, "_fused_kernels", None)
        if cache is None:
            cache = {}
            parsed._fused_kernels = cache
        entry = cache.get(key, _MISSING)
        if entry is not _MISSING:
            return entry
        pipeline = simt_compile.get_pipeline(parsed, kernel, pointer_kinds)
        fused = (
            _build_fused(parsed, kernel, pipeline)
            if pipeline is not None
            else None
        )
        cache[key] = fused
        return fused


class FusedBackend(Backend):
    """Whole-grid fused-numpy execution (see the module docstring)."""

    name = "fused"
    dynamic_class = "grid"
    description = "whole-grid fused numpy array programs"

    def plan(self, parsed, kernel):
        reason = analyze_kernel(parsed, kernel)
        if reason is not None:
            raise CompileUnsupported(reason)
        return get_fused_kernel(parsed, kernel)

    def run(self, plan: FusedKernel, request: ExecutionRequest) -> None:
        parsed, kernel = request.parsed, request.kernel
        pipeline = simt_compile.launch_pipeline(
            parsed, kernel, plan.pipeline, request.base_env
        )
        if pipeline is not plan.pipeline:
            plan = get_fused_kernel(parsed, kernel, pipeline.pointer_kinds)
        plan.execute(request)


register_backend(FusedBackend())
register_engine(
    "fused",
    ("fused", "compiled", "scalar"),
    description="whole-grid fused numpy -> compiled -> scalar",
)
