"""Lane-batched SIMT runtime for the OpenCL simulator.

The scalar interpreter in :mod:`repro.opencl.interp` walks the kernel AST
once per work-item.  The lane tiers execute the kernel body *once per
block of work-groups* instead, holding every scalar variable as a numpy
array over lanes (one lane per work-item) and turning control flow into
boolean lane masks.  This module is the runtime those tiers share: the
:class:`_Block` — lane values, masked binds and merges, memory traffic
under the access facts of :class:`Access` (slices, scalar reads,
closed-form accounting, end point bounds checks, proof-carrying
stores), the cross-lane race detector and cached-load accounting.  It
never reads the kernel AST: :mod:`repro.opencl.simt_compile` admits,
types and lowers a kernel once into a pipeline over a :class:`_Block`,
from one syntactic scan and one typing walk.  One launcher
(:func:`run_blocks`) runs that pipeline over blocks of whole
work-groups, at most :data:`MAX_LANES` lanes each; a batched loop runs
the part of its body that reads no carried value over a virtual block
of many iterations (:class:`_Chunk`).

* ``barrier`` is trivially satisfied: lanes execute in lock-step.  The
  plan only admits kernels whose barriers sit under *group-uniform*
  control flow, so within each work-group the mask at a barrier is
  all-or-nothing, which is exactly the OpenCL contract.
* loads/stores are gathers and scatters (`numpy` fancy indexing) or, under
  a fact, slices and scalar reads; scatter writes resolve duplicate
  addresses in ascending lane order, which is a conforming behaviour for
  data-race-free kernels (the only ones whose result OpenCL defines).
  An active lane's element outside its buffer raises
  :class:`~repro.opencl.interp.OutOfBounds`, as in the oracle.

The runtime is an exact stand-in for the scalar path: bitwise-identical
buffer contents *and* identical :class:`Counters` for every supported
kernel.  Cached-load accounting mirrors the per-work-item ``_touched``
set of the scalar interpreter with an order-independent log: per buffer,
the cached total equals load events minus distinct ``(lane, address)``
pairs, settled once per block (see :class:`_LoadLog`).

Refusals and races
------------------
A kernel the plan refuses statically does not run here:
:func:`repro.opencl.simt_compile.get_pipeline` gives the reason (the
forms are listed in ``ENGINES.md``, "Static refusals"), and the backend
raises it as :class:`~repro.backend.CompileUnsupported`
(``engine="scalar"`` runs the kernel).

One *dynamic* situation raises :class:`DataRace`: a cross-lane data
race (a store whose value another work-item could observe
order-dependently — see :class:`_Hazard`).  OpenCL leaves such a
kernel's result undefined; the launch stops, and its buffers and
counters are unspecified.

Variables are statically typed and scoped, as in C: every store into a
declared scalar converts to the declared kind (:func:`_convert`, the
lane-array twin of :func:`repro.opencl.interp.convert`), so one
variable never holds integer and floating-point lanes at once, and a
lane reads a name only after it declared it.
"""

from __future__ import annotations

import threading as _threading
from collections import OrderedDict
from typing import Any, Optional

import numpy as np

from repro.compiler import cast as c
from repro.obs import trace as _obs_trace
from repro.opencl.interp import (
    Counters,
    ExecError,
    OutOfBounds,
    Pointer,
    _MATH_BUILTINS,
    _c_int_div,
    _c_int_mod,
    array_dtype,
    convert,
    copied,
)

#: Lanes batched together (across whole work-groups) per executor block:
#: the smallest power of two at which a 65 536-item SAXPY and a
#: 16 384-item barrier reduction run within 10 % of one block over the
#: whole launch (ENGINES.md, "Block size").
MAX_LANES = 1 << 14


class DataRace(ExecError):
    """A cross-lane data race: work-items of a launch touch one address,
    at least one of them writing, in an order the result depends on."""


# ---------------------------------------------------------------------------
# lane-batched values
# ---------------------------------------------------------------------------

class VPtr:
    """Pointer into a shared 1-D buffer (global memory, flat local)."""

    __slots__ = ("array", "offset", "space")

    def __init__(self, array: np.ndarray, offset, space: str):
        self.array = array
        self.offset = offset  # python int or (L,) int64 lane array
        self.space = space

    def plus(self, delta) -> "VPtr":
        return VPtr(self.array, self.offset + delta, self.space)


class RowPtr:
    """Pointer into a 2-D row-partitioned buffer.

    ``rows`` maps each lane to its row: the lane index for private
    arrays (one row per work-item), the in-block group ordinal for local
    buffers (one row per work-group).
    """

    __slots__ = ("array", "rows", "offset", "space")

    def __init__(self, array: np.ndarray, rows: np.ndarray, offset, space: str):
        self.array = array
        self.rows = rows
        self.offset = offset
        self.space = space

    def plus(self, delta) -> "RowPtr":
        return RowPtr(self.array, self.rows, self.offset + delta, self.space)


class _Frame:
    """Per-function-body return state (lanes that hit ``return``)."""

    __slots__ = ("ret_mask", "ret_val", "returned_any")

    def __init__(self, lanes: int):
        self.ret_mask = np.zeros(lanes, dtype=bool)
        self.ret_val: Any = None
        self.returned_any = False


_UNIFORM_TYPES = (int, float, bool, np.integer, np.floating, np.bool_)


def _is_uniform(v) -> bool:
    return isinstance(v, _UNIFORM_TYPES)


#: Lane dtype per declared scalar kind (the kinds are numpy's own
#: ``dtype.kind`` letters, so "already converted" is one comparison).
_LANE_DTYPE = {"f": np.float64, "i": np.int64}


def _convert(kind, v):
    """Lane-array twin of :func:`repro.opencl.interp.convert`, called
    where the static types change a scalar's kind (``"f"`` or ``"i"``):
    ``astype(int64)`` truncates toward zero, like C."""
    if type(v) is np.ndarray:
        assert v.ndim == 1 and v.dtype.kind != kind, "the types convert scalars only"
        return v.astype(_LANE_DTYPE[kind])
    return convert(kind, v)


def _by_value(kind, a):
    """A helper argument as a parameter of declared ``kind`` receives
    it: structs and vectors (updated in place by member stores) are
    :func:`~repro.opencl.interp.copied`; scalar lane arrays are never
    mutated and are shared."""
    if type(a) is np.ndarray:
        return a.copy() if a.ndim == 2 else _convert(kind, a)
    return copied(a) if isinstance(a, dict) else convert(kind, a)


# ---------------------------------------------------------------------------
# access facts
# ---------------------------------------------------------------------------

#: The work-item ids an affine fact is linear in, in the order of a
#: fact's basis elements (``get_global_id(d)`` is ``get_group_id(d) *
#: get_local_size(d) + get_local_id(d)``).
BASIS = (
    ("get_local_id", 0), ("get_local_id", 1), ("get_local_id", 2),
    ("get_group_id", 0), ("get_group_id", 1), ("get_group_id", 2),
)

#: ``np.arange(width)`` per vector width: a vector access's slots.
_COLUMNS = {w: np.arange(w) for w in (2, 3, 4, 8, 16)}


class Access:
    """One load or store site, as the typing walk planned it: the pointer
    expression (printed, it is the buffer :class:`OutOfBounds` names) and
    the affine fact of its address — ``terms``, the nonzero ``(basis
    element, coefficient)`` pairs, or ``coefficients(block)`` computing
    them where a coefficient is a uniform name or a launch size, or
    neither (no fact).  ``sole`` marks the one store site of a buffer
    nothing else touches (see :func:`repro.opencl.simt_compile.
    scan_kernel`): at lane-injective addresses it skips the race
    detector."""

    __slots__ = ("pointer", "terms", "coefficients", "geometric", "cached", "sole")

    def __init__(self, pointer, terms=None, coefficients=None, sole=False):
        self.pointer = pointer
        self.terms = terms
        self.coefficients = coefficients
        #: Whether ``coefficients`` reads the launch's sizes only; then
        #: they are computed once per launch shape, kept in ``cached``
        #: as ``(the shape's geometry, terms)``.
        self.geometric = False
        self.cached = None
        self.sole = sole


def _flat_stride(terms: tuple, units: tuple) -> Optional[int]:
    """``s`` when ``sum(c * id)`` over a block is ``s`` times the flat
    lane index plus a constant (every varying basis element's
    coefficient is ``s`` times its digit's unit), else ``None``.  The
    first varying digit's unit is 1: every id before it is constant, so
    its local size is 1, or (a group id) its group count is, since two
    consecutive work-groups differ in the first group id whose count is
    above 1."""
    if not units:
        return 0
    coefficients = dict(terms)
    stride = coefficients.get(units[0][0], 0)
    for k, unit in units[1:]:
        if coefficients.get(k, 0) != stride * unit:
            return None
    return stride


# ---------------------------------------------------------------------------
# block executor
# ---------------------------------------------------------------------------

class _Block:
    """Executes one block of whole work-groups in lock-step."""

    def __init__(
        self,
        counters: Counters,
        geo: dict,
        global_size: tuple,
        local_size: tuple,
        num_groups: tuple,
        seg_start: int = 0,
        tracked: Optional[set] = None,
        sole_ids: frozenset = frozenset(),
        shape: Optional[dict] = None,
        names: Optional[dict] = None,
        traffic: Optional[dict] = None,
    ):
        """One block ``geo`` of the launch geometry ``shape`` (one of
        :func:`_block_geometry`'s ``blocks``).  While tracing, the
        launch's ``traffic`` rows ``{(buffer, space): [loads,
        cached_loads, stores]}`` take this block's, named by ``names``
        (``{id(array): name}``)."""
        self.counters = counters
        self.L = geo["lanes"]
        self.lid = geo["lid"]
        self.gid = geo["gid"]
        self.group_ids = geo["group_ids"]
        self.global_size = global_size
        self.local_size = local_size
        self.num_groups = num_groups
        self.env: dict = {}
        self._lane_ids = geo["lane_ids"]
        self._full = geo["full"]
        self._load_log: dict = {}  # (id(buffer), width) -> _LoadLog
        # Race detectors live for one block (blocks run in the scalar
        # engine's group order, so cross-block conflicts agree by
        # construction); the backing arrays are pooled across blocks and
        # launches, kept valid by the monotonic segment epoch.
        self._hazards: dict = {}
        # ``None`` tracks every shared buffer; a set restricts hazard
        # bookkeeping to the arrays some lane may write (the plan's
        # ``written`` buffers).
        self._tracked = tracked
        self._seg_base = seg_start
        self._segment = seg_start
        self._lanes_per_group = local_size[0] * local_size[1] * local_size[2]
        # What the access facts are evaluated against: the basis ids per
        # lane, at lane 0 and their ranges over the block, the flat lane
        # index's digits, and per-terms results shared by every block of
        # the launch shape.
        self._basis = geo["basis"]
        self._basis0 = geo["basis0"]
        self._lo = geo["lo"]
        self._hi = geo["hi"]
        self._units = geo["units"]
        self._shapes = geo["shapes"]
        self._injectives = geo["injectives"]
        self._shape = shape
        # Arrays whose one kernel-wide access is a proven store site, and
        # per array what its stores in this block were (``_sole_write``).
        self._sole_ids = sole_ids
        self._sole_writes: dict = {}
        self._names = names
        self._traffic = traffic
        # The slices a batched loop's carried statements read this
        # iteration, and the lane geometry of its virtual blocks
        # (:class:`_Chunk`).
        self._hoisted: Optional[list] = None
        self._chunks = geo["chunks"]

    def _set_return(self, frame, m, value) -> None:
        """Lanes ``m`` return ``value`` (``None``: nothing), already of
        the function's return type; its returns all return a value or
        all return nothing (the static types)."""
        if value is not None:
            frame.ret_val = (
                self._merge(frame.ret_val, value, m) if frame.returned_any
                else value
            )
        frame.ret_mask |= m
        frame.returned_any = True

    def _alloc_private(self, name, size, dtype) -> None:
        """``T name[size];`` — one zeroed row per work-item."""
        self.env[name] = RowPtr(
            np.zeros((self.L, size), dtype=dtype), self._lane_ids, 0, "private"
        )

    def _store_member(self, struct: dict, member, value, m, n) -> None:
        """``value``, already of the member's declared kind."""
        if n == self.L:
            struct[member] = value
        else:
            struct[member] = self._merge(struct[member], value, m)

    # -- merging ---------------------------------------------------------
    def _merge(self, old, new, m):
        """``new`` on the lanes of ``m``, ``old`` on the others: values of
        one static type (stores arrive converted to the declared kind),
        and pointers into one buffer (the typing walk refuses a merge of
        two), so a pointer merges its offsets."""
        if old is new:
            return old
        t = type(new)
        if t is dict:
            return {key: self._merge(old[key], new[key], m) for key in old}
        if t is VPtr:
            return VPtr(old.array, self._merge(old.offset, new.offset, m), old.space)
        if t is RowPtr:
            offset = self._merge(old.offset, new.offset, m)
            return RowPtr(old.array, old.rows, offset, old.space)
        if t is np.ndarray and new.ndim == 2:
            return np.where(m[:, None], new, old)
        if _is_uniform(old) and _is_uniform(new) and old == new:
            return old
        return np.where(m, new, old)

    # -- memory ----------------------------------------------------------
    #
    # Every load and store passes its site's :class:`Access`: the buffer
    # as the kernel spells it (what a bounds error names) and the affine
    # fact the typing walk derived for its index.  Under a fact the
    # active lanes' addresses are ``u + sum(c * id)`` over the basis ids
    # (:data:`BASIS`) for a block-uniform ``u``, so a bounds check
    # compares end points, the load log keeps one ``(terms, u)`` chunk
    # (:class:`_LoadLog`), a lane-uniform load is one scalar read and a
    # full-mask access whose address is linear in the flat lane index is
    # a slice.  What no fact covers takes the per-lane path.
    def _lanes(self, v) -> np.ndarray:
        """Materialize a lane view of ``v`` (read-only broadcast)."""
        if isinstance(v, np.ndarray) and v.ndim == 1:
            return v
        return np.broadcast_to(np.asarray(v), (self.L,))

    def _affine(self, addr, acc, m, n) -> Optional[tuple]:
        """``(terms, u, shape)`` of the addresses ``addr`` an access with
        a fact computed, or ``None``: ``terms`` are the nonzero ``(basis
        element, coefficient)`` pairs, ``u`` the uniform term, read off
        the first active lane (the fact holds on the active lanes), and
        ``shape`` the terms' :meth:`_shape_of`."""
        terms = acc.terms
        if terms is None:
            terms = self._terms(acc)
            if terms is None:
                return None
        shape = self._shapes.get(terms) or self._shape_of(terms)
        if type(addr) is not np.ndarray:
            # An address with an id term is computed from lane arrays.
            assert not terms, "a uniform address with id terms"
            return terms, int(addr), shape
        if not terms:  # a uniform name merged into lanes under a mask
            return None
        if n == self.L:
            return terms, int(addr[0]) - shape[0], shape
        lane = int(m.argmax())
        u = int(addr[lane])
        basis = self._basis
        for k, c in terms:
            u -= c * int(basis[k][lane])
        return terms, u, shape

    def _terms(self, acc) -> Optional[tuple]:
        """The nonzero ``(basis element, coefficient)`` pairs of an
        access's fact in this block, or ``None`` (no fact)."""
        if acc.terms is not None or acc.coefficients is None:
            return acc.terms
        if acc.geometric:  # the same for every block of the launch
            cached = acc.cached
            if cached is not None and cached[0] is self._shape:
                return cached[1]
            terms = acc.coefficients(self)
            acc.cached = (self._shape, terms)
            return terms
        return acc.coefficients(self)

    def _shape_of(self, terms: tuple) -> tuple:
        """What the block makes of ``sum(c * id)`` over ``terms``: its
        value at lane 0, its least and greatest value, and its stride
        along the flat lane index (``None``: not linear in it)."""
        at0 = lo = hi = 0
        for k, c in terms:
            at0 += c * self._basis0[k]
            low, high = c * self._lo[k], c * self._hi[k]
            lo += min(low, high)
            hi += max(low, high)
        shape = self._shapes[terms] = (at0, lo, hi, _flat_stride(terms, self._units))
        return shape

    def _address(self, ptr, index, acc, m, n, width=1) -> tuple:
        """``(addresses, fact)`` of an access through ``ptr`` (its offset
        included; a lane-varying pointer leaves the index's fact), once
        every active lane's ``width`` elements from its address are
        found in the buffer: from the end points of the block's id
        ranges under a fact, else over the active lanes."""
        off = ptr.offset
        if type(off) is not int:
            addr, aff = off + index, None
        else:
            addr = index if off == 0 else off + index
            aff = self._affine(addr, acc, m, n)
        size = ptr.array.shape[-1]
        if aff is None or aff[1] + aff[2][1] < 0 or aff[1] + aff[2][2] + width > size:
            self._check_bounds(addr, m, n, size, acc, width)
        return addr, aff

    def _check_bounds(self, addr, m, n, size, acc, width) -> None:
        """Raise :class:`OutOfBounds` unless every active lane's
        ``width`` elements from ``addr`` lie in ``[0, size)``."""
        if type(addr) is not np.ndarray:
            a = int(addr)
            if a < 0 or a + width > size:
                raise OutOfBounds(c.print_expr(acc.pointer), a, size)
            return
        active = addr if n == self.L else addr[m]
        if active.dtype != np.int64:
            active = active.astype(np.int64)
        # One pass: a negative address is a huge unsigned one.
        top = int(active.view(np.uint64).max())
        if top + width <= size:
            return
        bad = np.flatnonzero((active < 0) | (active > size - width))
        raise OutOfBounds(c.print_expr(acc.pointer), int(active[bad[0]]), size)

    def _injective(self, terms: tuple, rows: bool = False) -> bool:
        """Whether no two lanes of the block share an address with these
        terms: every id varying in the block has a coefficient, each
        larger than what the smaller ones reach together.  With ``rows``
        (a local array: each group stores to a row of its own) only the
        lanes of one group need telling apart, by their local ids."""
        key = (terms, rows)
        injective = self._injectives.get(key)
        if injective is None:
            coefficients = dict(terms)
            spans = []
            for k in range(3 if rows else len(BASIS)):
                span = self._hi[k] - self._lo[k]
                if span:
                    spans.append((abs(coefficients.get(k, 0)), span))
            reach = 0
            for c, span in sorted(spans):
                if c <= reach:
                    break
                reach += c * span
            else:
                injective = True
            injective = self._injectives[key] = bool(injective)
        return injective

    def _sole_write(self, ptr, aff, m) -> bool:
        """Whether a store of a buffer's sole store site needs no race
        detector: its addresses are lane-injective and every earlier
        execution in this block either stored at the same uniform term
        (each address from its own lane again) or at one farther than
        the addresses spread.  Otherwise the detector takes the buffer
        over, first noting the earlier executions as they happened."""
        key = id(ptr.array)
        terms, u, shape = aff
        sole = self._sole_writes.get(key)
        # A barrier orders a local buffer's accesses: its proof restarts.
        segment = self._segment if ptr.space == "local" else None
        if sole is None or sole[5] != segment:
            # [terms, uniform terms seen, least, greatest, executions,
            # segment]
            sole = self._sole_writes[key] = [terms, set(), u, u, [], segment]
        elif sole[1] is None:
            return False  # the detector has the buffer
        seen, history = sole[1], sole[4]
        spread = shape[2] - shape[1]
        if terms == sole[0] and self._injective(terms, type(ptr) is RowPtr) and (
            u in seen or not seen
            or u > sole[3] + spread or u < sole[2] - spread
        ):
            seen.add(u)
            sole[2], sole[3] = min(sole[2], u), max(sole[3], u)
            history.append((u, m, self._segment))
            return True
        self._sole_writes[key] = [None, None, 0, 0, None, segment]
        hazard = self._hazard(ptr)
        rows = ptr.rows if type(ptr) is RowPtr else None
        for u, m, segment in history:
            aa = self._values(sole[0], u)
            if rows is not None:
                aa = rows * ptr.array.shape[1] + aa
            lanes = self._lane_ids
            if m is not self._full:
                aa, lanes = aa[m], lanes[m]
            hazard.note_write(aa, lanes, segment, self._seg_base)
        return False

    def _values(self, terms: tuple, u: int):
        """The lane values ``u + sum(c * id)`` of a fact."""
        if not terms:
            return np.broadcast_to(np.int64(u), (self.L,))
        values = None
        for k, c in terms:
            term = c * self._basis[k]
            values = term if values is None else values + term
        return values + u

    def _log_load(self, ptr, aa, lanes, width, n) -> None:
        """Record a global/local load for deferred cached-load accounting.

        The scalar interpreter charges a load as *cached* when the same
        work-item already loaded the same address; the totals therefore
        equal ``events - distinct (lane, address) pairs`` — an
        order-independent quantity settled once per buffer at block end
        (see :class:`_LoadLog`), instead of a per-event bitmap.

        ``aa``/``lanes`` are the flattened active addresses from
        :meth:`_flat_addr` — shared with the race detector, and
        equivalent for counting distinct pairs because each lane's
        row is a function of the lane.
        """
        self._load_log_of(ptr, width).add(aa, lanes, n)

    def _log_affine(self, ptr, width, aff, m, n, flat=None) -> None:
        """Record a load with a fact as its ``(terms, u)`` chunk, with
        its ``(flat addresses, lanes)`` where they were computed."""
        log = self._load_log.get((id(ptr.array), width)) or self._load_log_of(ptr, width)
        log.add_affine(
            aff, None if n == self.L else m,
            ptr.rows if type(ptr) is RowPtr else None, n, flat,
        )

    def _load_log_of(self, ptr, width) -> "_LoadLog":
        key = (id(ptr.array), width)
        log = self._load_log.get(key)
        if log is None:
            log = _LoadLog(ptr.array, ptr.space, width, self.L)
            self._load_log[key] = log
        return log

    def _flush_load_log(self) -> None:
        counters = self.counters
        traffic = self._traffic
        for log in self._load_log.values():
            events, distinct = log.totals(self)
            cached = (events - distinct) * log.width_units
            counters.cached_loads += cached
            fresh = distinct * log.width_units
            if log.space == "global":
                counters.global_loads += fresh
            else:
                counters.local_loads += fresh
            if traffic is not None:
                row = self._traffic_row(log.array, log.space)
                row[0] += fresh
                row[1] += cached
        self._load_log.clear()

    def _traffic_row(self, array, space) -> list:
        """The launch's traffic row of ``array`` in ``space``."""
        key = (self._names.get(id(array), "<anon>"), space)
        return self._traffic.setdefault(key, [0, 0, 0])

    def _obs_load_events(self) -> int:
        """Out-of-band running total of logged load events.

        Loads enter ``Counters`` only at block end (:meth:`
        _flush_load_log` settles the cached/fresh split), so a traced
        ``segment`` span reads this cheap running count instead.
        Events include would-be cache hits, making the per-segment
        figure total load *traffic*, not distinct addresses.  Tracing
        only: never feeds back into Counters."""
        return sum(
            log.events * log.width_units
            for log in self._load_log.values()
        )

    def _count_stores(self, ptr, space, count) -> None:
        """Count ``count`` store units against ``space``.

        ``ptr`` identifies the written buffer for the traced traffic
        rows (``None`` for register traffic); the in-band counters use
        only ``space``/``count``, so tracing cannot change them."""
        counters = self.counters
        if space == "global":
            counters.global_stores += count
        elif space == "local":
            counters.local_stores += count
        else:
            counters.private_stores += count
        if self._traffic is not None and ptr is not None:
            self._traffic_row(ptr.array, space)[2] += count

    def _hazard(self, ptr):
        key = id(ptr.array)
        entry = self._hazards.get(key)
        if entry is None:
            entry = _acquire_hazard(ptr.array.size).retarget(
                ptr.array, self._lanes_per_group, type(ptr) is not RowPtr
            )
            self._hazards[key] = entry
        return entry

    def _needs_hazard(self, ptr) -> bool:
        return self._tracked is None or id(ptr.array) in self._tracked

    def _flat_addr(self, ptr, addr, m, n):
        """(flat addresses, lanes) for the active lanes of an access."""
        if n == self.L:
            lanes = self._lane_ids
            aa = self._lanes(addr)
            rows = ptr.rows if isinstance(ptr, RowPtr) else None
        else:
            lanes = self._lane_ids[m]
            aa = self._lanes(addr)[m]
            rows = ptr.rows[m] if isinstance(ptr, RowPtr) else None
        if rows is not None:
            aa = rows * ptr.array.shape[1] + aa
        return aa, lanes

    def _gather(self, ptr, index, m, n, acc):
        arr = ptr.array
        addr, aff = self._address(ptr, index, acc, m, n)
        is_row = type(ptr) is RowPtr
        if ptr.space == "private":  # a row per work-item: a RowPtr
            self.counters.private_loads += n
            if _is_uniform(addr):
                return arr[ptr.rows, int(addr)]
            return arr[ptr.rows, addr if n == self.L else np.where(m, addr, 0)]
        tracked = self._tracked is None or id(arr) in self._tracked
        # Shared buffer: the flattened addresses are computed once and
        # shared between the load log, the race detector and the gather.
        flat = ptr.rows * arr.shape[1] + addr if is_row else addr
        if aff is not None and not tracked:
            self._log_affine(ptr, 0, aff, m, n)
            if not aff[0]:
                return arr[ptr.rows, aff[1]] if is_row else arr[aff[1]]
            if n == self.L and not is_row:
                stride = aff[2][3]
                if stride is not None and stride > 0:
                    # A view: nothing writes this buffer (untracked).
                    start = aff[1] + aff[2][0]
                    return arr[start : start + stride * (self.L - 1) + 1 : stride]
        else:
            if n == self.L:
                aa, lanes = self._lanes(flat), self._lane_ids
            else:
                aa, lanes = self._lanes(flat)[m], self._lane_ids[m]
            if aff is None:
                self._log_load(ptr, aa, lanes, 0, n)
            else:
                self._log_affine(ptr, 0, aff, m, n, (aa, lanes))
            if tracked:
                self._hazard(ptr).note_read(aa, lanes, self._segment, self._seg_base)
            if n < self.L and not _is_uniform(addr):
                # Inactive lanes read the buffer's first element.
                values = np.full(self.L, arr.reshape(-1)[0], dtype=arr.dtype)
                values[lanes] = arr.reshape(-1)[aa]
                return values
        if _is_uniform(addr):
            return arr[ptr.rows, int(addr)] if is_row else arr[int(addr)]
        # Inactive lanes read a safe dummy address; with a full mask the
        # addresses are already all valid.
        safe = flat if n == self.L else np.where(m, flat, 0)
        return arr.reshape(-1)[safe] if is_row else arr[safe]

    def _scatter(self, ptr, index, value, m, n, acc) -> None:
        arr = ptr.array
        addr, aff = self._address(ptr, index, acc, m, n)
        values = self._lanes(value)
        is_row = type(ptr) is RowPtr
        if ptr.space == "private":  # a row per work-item: a RowPtr
            addr = self._lanes(addr)
            if n == self.L:
                arr[ptr.rows, addr] = values
            else:
                arr[ptr.rows[m], addr[m]] = values[m]
            self._count_stores(ptr, ptr.space, n)
            return
        # The plan's ``written`` holds the root of every store site's
        # pointer, and every pointer value points into its root's buffer.
        assert self._tracked is None or id(arr) in self._tracked, "unwritten buffer"
        flat = None  # the active lanes' flat addresses
        if not (
            acc.sole and aff is not None and id(arr) in self._sole_ids
            and self._sole_write(ptr, aff, m)
        ):
            flat, lanes = self._flat_addr(ptr, addr, m, n)
            self._hazard(ptr).note_write(flat, lanes, self._segment, self._seg_base)
        if n == self.L and aff is not None and not is_row:
            stride = aff[2][3]
            if stride is not None and stride > 0:
                start = aff[1] + aff[2][0]
                arr[start : start + stride * (self.L - 1) + 1 : stride] = values
                self._count_stores(ptr, ptr.space, n)
                return
        # Duplicate addresses resolve in ascending lane order in a flat
        # fancy store.
        if flat is None:
            flat = self._flat_addr(ptr, addr, m, n)[0]
        arr.reshape(-1)[flat] = values if n == self.L else values[m]
        self._count_stores(ptr, ptr.space, n)

    def _vload(self, ptr, offset, width, m, n, acc):
        arr = ptr.array
        start, aff = self._address(ptr, offset * width, acc, m, n, width)
        cols = _COLUMNS[width]
        is_row = type(ptr) is RowPtr
        if ptr.space == "private":
            self.counters.private_loads += n * width
        else:
            tracked = self._needs_hazard(ptr)
            if aff is not None and not tracked:
                self._log_affine(ptr, width, aff, m, n)
            else:
                aa, lanes = self._flat_addr(ptr, start, m, n)
                if aff is None:
                    self._log_load(ptr, aa, lanes, width, n)
                else:
                    self._log_affine(ptr, width, aff, m, n, (aa, lanes))
                if tracked:
                    # 2-D (lane, slot) block: the detector broadcasts the
                    # lane ids itself — no per-access repeat/ravel copies.
                    self._hazard(ptr).note_read(
                        aa[:, None] + cols, lanes, self._segment, self._seg_base
                    )
        if _is_uniform(start):
            start = int(start)
            if not is_row:
                return np.tile(arr[start : start + width].astype(np.float64), (self.L, 1))
            return arr[ptr.rows, start : start + width].astype(np.float64)
        if n == self.L and aff is not None and not is_row and aff[2][3] == width:
            first = aff[1] + aff[2][0]
            return arr[first : first + width * self.L].reshape(self.L, width).astype(np.float64)
        idx2 = np.where(m, start, 0)[:, None] + cols
        if not is_row:
            return arr[idx2].astype(np.float64)
        return arr[ptr.rows[:, None], idx2].astype(np.float64)

    def _vstore(self, ptr, offset, width, value, m, n, acc) -> None:
        arr = ptr.array
        start, aff = self._address(ptr, offset * width, acc, m, n, width)
        start = self._lanes(start)
        cols = _COLUMNS[width]
        is_row = type(ptr) is RowPtr
        if ptr.space != "private":
            # As in :meth:`_scatter`: the buffer is one the plan writes.
            assert self._needs_hazard(ptr), "unwritten buffer"
            aa, lanes = self._flat_addr(ptr, start, m, n)
            self._hazard(ptr).note_write(
                aa[:, None] + cols, lanes, self._segment, self._seg_base
            )
        if n == self.L and aff is not None and not is_row and aff[2][3] == width:
            first = aff[1] + aff[2][0]
            arr[first : first + width * self.L] = value.ravel()
        else:
            rows = ptr.rows if is_row else None
            if n != self.L:
                start, value = start[m], value[m]
                rows = rows[m] if is_row else None
            # A 2-D fancy store broadcasts the row per vector slot; its
            # flat order (and duplicate-address resolution) is the flat
            # form's.
            if is_row:
                arr[rows[:, None], start[:, None] + cols] = value
            else:
                arr[(start[:, None] + cols).ravel()] = value.ravel()
        self._count_stores(ptr, ptr.space, n * width)

    # -- operators -------------------------------------------------------
    def _as_bool(self, v, m) -> np.ndarray:
        """A condition's lanes: the typing walk admits scalars only."""
        if type(v) is np.ndarray:
            return v if v.dtype.kind == "b" else v != 0
        return self._full if v else np.zeros(self.L, dtype=bool)

    @staticmethod
    def _align(lhs, rhs):
        if isinstance(lhs, np.ndarray) and lhs.ndim == 2:
            if isinstance(rhs, np.ndarray) and rhs.ndim == 1:
                rhs = rhs[:, None]
        elif isinstance(rhs, np.ndarray) and rhs.ndim == 2:
            if isinstance(lhs, np.ndarray) and lhs.ndim == 1:
                lhs = lhs[:, None]
        return lhs, rhs

    @staticmethod
    def _int_div(a, b, m, what: str = "division"):
        if _is_uniform(a) and _is_uniform(b):
            return _c_int_div(int(a), int(b))
        zero = np.equal(b, 0)
        if bool(np.any(zero & m)):
            raise ExecError(f"integer {what} by zero")
        safe = np.where(zero, 1, b)
        q = np.abs(a) // np.abs(safe)
        return np.where(np.greater_equal(a, 0) == np.greater_equal(safe, 0), q, -q)

    @staticmethod
    def _int_mod(a, b, m):
        if _is_uniform(a) and _is_uniform(b):
            return _c_int_mod(int(a), int(b))
        q = _Block._int_div(a, b, m, "modulo")
        safe = np.where(np.equal(b, 0), 1, b)
        return a - q * safe

    # -- batched loops ---------------------------------------------------
    def _chunk_geometry(self, count: int) -> dict:
        """What a :class:`_Chunk` of ``count`` iterations over this
        block's lanes shares with every other of the launch shape: the
        real lane ids in lane-major order, its full mask and each virtual
        lane's iteration (a few counts per shape are kept)."""
        geo = {
            "lane_ids": np.repeat(self._lane_ids, count),
            "full": np.ones(self.L * count, dtype=bool),
            "iteration": np.tile(np.arange(count), self.L),
        }
        for arr in geo.values():
            arr.setflags(write=False)
        if len(self._chunks) < 4:
            self._chunks[count] = geo
        return geo

    def _absorb(self, chunk: "_Chunk") -> None:
        """Log the loads of a batched loop's hoisted part."""
        logs = self._load_log
        for key, log in chunk._load_log.items():
            mine = logs.get(key)
            if mine is None:
                logs[key] = log
            else:
                mine.absorb(log)


class _Chunk(_Block):
    """``count`` iterations of a batched loop as one *virtual block*
    over the lanes of a real ``block`` (see ``simt_compile``, "batched
    loops"): ``count * L`` lanes in lane-major order, so that virtual
    lane ``l * count + j`` is iteration ``j`` on lane ``l`` and
    ``values[j::count]`` is iteration ``j``'s lane array.

    It runs the loop's hoisted part, which loads but never stores, and
    shares the real block's ``Counters``, race detectors and segment.
    Each load is checked and logged as the loop would log it: a read of
    a tracked buffer is noted once, for the real lane ids (ascending, as
    the detectors' duplicate-address scatters need), and the load log
    gets one chunk per iteration where the address has a fact, with that
    iteration's uniform term (its own log, which the real block takes
    once the hoisted part succeeded: :meth:`_Block._absorb`)."""

    def __init__(self, block: _Block, count: int):
        geo = block._chunks.get(count) or block._chunk_geometry(count)
        self.real = block
        self.count = count
        self.counters = block.counters
        self.L = block.L * count
        self.global_size = block.global_size
        self.local_size = block.local_size
        self.num_groups = block.num_groups
        self.env = {}
        self._geo = geo
        self._lane_ids = geo["lane_ids"]
        self._full = geo["full"]
        #: Each virtual lane's iteration, ``0`` to ``count - 1``.
        self.iteration = geo["iteration"]
        self._load_log = {}
        self._hazards = block._hazards
        self._tracked = block._tracked
        self._seg_base = block._seg_base
        self._segment = block._segment
        self._lanes_per_group = block._lanes_per_group
        self._hoisted = None
        self._traffic = None

    def _repeated(self, field: str) -> tuple:
        """The real block's tuple of lane arrays ``field``, each lane's
        value repeated for its iterations."""
        geo = self._geo
        value = geo.get(field)
        if value is None:
            value = geo[field] = tuple(
                np.repeat(a, self.count) for a in getattr(self.real, field)
            )
        return value

    lid = property(lambda self: self._repeated("lid"))
    gid = property(lambda self: self._repeated("gid"))
    group_ids = property(lambda self: self._repeated("group_ids"))
    _basis = property(lambda self: self._repeated("_basis"))

    def _load_log_of(self, ptr, width) -> "_LoadLog":
        key = (id(ptr.array), width)
        log = self._load_log.get(key)
        if log is None:
            log = self._load_log[key] = _LoadLog(ptr.array, ptr.space, width, self.real.L)
        return log

    def _address(self, ptr, index, acc, m, n, width=1) -> tuple:
        """``(addresses, facts)``: ``facts`` is :meth:`_iterations`'
        where the address has a fact (a lane-varying pointer leaves it,
        as in the real block).  The facts' end points bound the
        addresses, else every active lane is checked."""
        off = ptr.offset
        aff = None
        if type(off) is not int:
            addr = off + index
        else:
            addr = index if off == 0 else off + index
            terms = self.real._terms(acc)
            if terms is not None:
                aff = self._iterations(addr, terms, m, n)
        size = ptr.array.shape[-1]
        if aff is None or aff[3] < 0 or aff[4] + width > size:
            self._check_bounds(addr, m, n, size, acc, width)
        return addr, aff

    def _iterations(self, addr, terms: tuple, m, n) -> Optional[tuple]:
        """``(terms, us, shape, least, greatest, mask)`` of addresses
        with a fact: ``us`` holds each iteration's uniform term, read off
        its first active lane, ``shape`` is the real block's
        (:meth:`_Block._shape_of`), ``least`` / ``greatest`` bound every
        active address and ``mask`` is the ``(lane, iteration)`` view of
        ``m`` (``None`` with every lane active)."""
        real, count = self.real, self.count
        shape = real._shapes.get(terms) or real._shape_of(terms)
        mask = None if n == self.L else m.reshape(-1, count)
        if type(addr) is not np.ndarray:
            # An address with an id term is computed from lane arrays.
            assert not terms, "a uniform address with id terms"
            us = np.full(count, int(addr), dtype=np.int64)
            live = us
        elif mask is None:  # lane 0 is active in every iteration
            us = addr[:count] - sum(c * real._basis0[k] for k, c in terms)
            live = us
        else:
            iterations = np.arange(count)
            first = np.zeros(count, dtype=np.int64) if mask is None else mask.argmax(0)
            us = addr.reshape(-1, count)[first, iterations].astype(np.int64)
            for k, c in terms:
                us = us - c * real._basis[k][first]
            live = us if mask is None else us[mask.any(0)]
        return (terms, us, shape, int(live.min()) + shape[1],
                int(live.max()) + shape[2], mask)

    def _log(self, ptr, width: int, flat, aff, m, n) -> None:
        """Log a load of ``width`` (0: a scalar) at the flat addresses
        ``flat`` and note it to the race detector of a tracked buffer."""
        tracked = self._tracked is None or id(ptr.array) in self._tracked
        if aff is not None:
            self._log_iterations(ptr, width, aff, n)
        if aff is None or tracked:
            if n == self.L:
                aa, lanes = self._lanes(flat), self._lane_ids
            else:
                aa, lanes = self._lanes(flat)[m], self._lane_ids[m]
            if aff is None:
                self._load_log_of(ptr, width).add(aa, lanes, n, once=False)
            if tracked:
                if width:
                    aa = aa[:, None] + _COLUMNS[width]
                self._hazard(ptr).note_read(aa, lanes, self._segment, self._seg_base)

    def _log_iterations(self, ptr, width: int, aff: tuple, n) -> None:
        """One ``(terms, u)`` chunk per iteration with an active lane,
        as the loop logs it (:meth:`_Block._log_affine`)."""
        terms, us, shape, _, _, mask = aff
        log = self._load_log_of(ptr, width)
        lanes = self.real.L
        rows = ptr.rows[:: self.count] if type(ptr) is RowPtr else None
        if mask is None:
            for u in us.tolist():
                log.add_affine((terms, u, shape), None, rows, lanes)
            return
        counts = np.count_nonzero(mask, axis=0).tolist()
        for j, (u, k) in enumerate(zip(us.tolist(), counts)):
            if k:
                log.add_affine((terms, u, shape), None if k == lanes else mask[:, j], rows, k)

    @staticmethod
    def _each(aff, is_row: bool) -> bool:
        """Whether every lane of each iteration, all active, loads at
        that iteration's one address (``aff[1]``): the values are the
        iterations' ones, repeated per lane."""
        return aff is not None and not aff[0] and aff[5] is None and not is_row

    def _gather(self, ptr, index, m, n, acc):
        arr = ptr.array
        addr, aff = self._address(ptr, index, acc, m, n)
        is_row = type(ptr) is RowPtr
        if ptr.space == "private":
            self.counters.private_loads += n
            flat = None
        else:
            flat = ptr.rows * arr.shape[1] + addr if is_row else addr
            self._log(ptr, 0, flat, aff, m, n)
        if _is_uniform(addr):
            return arr[ptr.rows, int(addr)] if is_row else arr[int(addr)]
        if flat is not None and self._each(aff, is_row):
            return np.tile(arr[aff[1]], self.real.L)
        if flat is None:  # private: a RowPtr
            return arr[ptr.rows, addr if n == self.L else np.where(m, addr, 0)]
        # Inactive lanes read the buffer's first element, as in the
        # real block.
        safe = flat if n == self.L else np.where(m, flat, 0)
        return arr.reshape(-1)[safe] if is_row else arr[safe]

    def _vload(self, ptr, offset, width, m, n, acc):
        arr = ptr.array
        start, aff = self._address(ptr, offset * width, acc, m, n, width)
        is_row = type(ptr) is RowPtr
        flat = ptr.rows * arr.shape[1] + start if is_row else start
        if ptr.space == "private":
            self.counters.private_loads += n * width
        else:
            self._log(ptr, width, flat, aff, m, n)
        if _is_uniform(flat):
            start = int(start)
            return np.tile(arr[start : start + width].astype(np.float64), (self.L, 1))
        if self._each(aff, is_row):
            values = arr[aff[1][:, None] + _COLUMNS[width]].astype(np.float64)
            return np.tile(values, (self.real.L, 1))
        # Inactive lanes read the buffer's first elements.
        safe = flat if n == self.L else np.where(m, flat, 0)
        return arr.reshape(-1)[safe[:, None] + _COLUMNS[width]].astype(np.float64)


def _expand(value, count: int):
    """A real block's value as a :class:`_Chunk` of ``count``
    iterations reads it: each lane's value repeated for its iterations
    (lane-major); a uniform value as it is."""
    t = type(value)
    if t is np.ndarray:
        return np.repeat(value, count, axis=0)
    if t is VPtr:
        if type(value.offset) is not np.ndarray:
            return value
        return VPtr(value.array, np.repeat(value.offset, count), value.space)
    if t is RowPtr:
        return RowPtr(value.array, np.repeat(value.rows, count),
                      _expand(value.offset, count), value.space)
    if t is dict:
        return {key: _expand(v, count) for key, v in value.items()}
    return value


def _take(value, j: int, count: int):
    """Iteration ``j``'s part of a value a :class:`_Chunk` of
    ``count`` iterations computed (a uniform value as it is)."""
    t = type(value)
    if t is np.ndarray:
        return value[j::count]
    if t is VPtr:
        if type(value.offset) is not np.ndarray:
            return value
        return VPtr(value.array, value.offset[j::count], value.space)
    if t is RowPtr:
        return RowPtr(value.array, value.rows[j::count],
                      _take(value.offset, j, count), value.space)
    if t is dict:
        return {key: _take(v, j, count) for key, v in value.items()}
    return value


def _rev(a: np.ndarray) -> np.ndarray:
    """Reverse the flat (row-major) iteration order of a scatter index —
    for 2-D blocks that means reversing both axes."""
    return a[::-1] if a.ndim == 1 else a[::-1, ::-1]


class _Hazard:
    """Cross-lane data-race detector for one tracked buffer.

    The scalar interpreter runs the work-items of a barrier-free segment
    sequentially to completion, so a later item can observe an earlier
    item's writes; the lane-batched engine runs statement-by-statement
    across all lanes.  The two orders agree exactly for race-free
    kernels.  This detector flags the conflicts that could differ as a
    :class:`DataRace`, so a launch the engine completes reproduces the
    scalar result bit for bit.  Two accesses to one address, at least
    one a write, from different lanes conflict

    * within one barrier segment (the *segment* rule): the barrier
      orders the accesses of one work-group's segments in both engines,
      whatever its fence flags (the oracle, too, lets a barrier order
      every address space);
    * at any segment distance within the block when they come from
      different work-groups (the *group* rule): barriers do not order
      work-groups, and the scalar engine runs them one after another.
      Blocks run in the scalar engine's group order, so conflicts
      between blocks agree by construction.  A row-partitioned local
      array (``shared`` false) needs no group rule: its flat address
      embeds the group's row, so only one group reaches an address.

    Every entry packs an epoch above a lane or group index:
    ``segment * SCALE + lane`` for the latest writer (``w_pack``) and
    for the greatest reader of the latest segment (``r_hi``; ``r_lo``
    holds the least, lane-inverted as ``SCALE-1 - lane``, so that one
    ``np.maximum`` update serves both), and ``base * SCALE + group``
    for the greatest and least reading group of the block (``g_hi``,
    ``g_lo``; ``base`` is the block's first segment).  Segments
    increase across blocks *and launches* (``_pool_tls.epoch``), so the
    larger entry is always the later one and an entry below
    ``segment * SCALE`` (``base * SCALE``) is from an earlier segment
    (block): nothing is ever cleared, which is what lets
    :func:`_acquire_hazard` pool the arrays across blocks and launches.
    The latest writer suffices for the group rule: a write after
    another group's in the block has already raised.

    Within a single statement all lanes are simultaneous in both
    engines, so duplicates within one call are not conflicts: each
    check runs against the state before the call.  A read matters only
    to a later write, so reads wait (``pending``) until a write of
    their buffer, or until there are more than 16 of them; a read of a
    finished segment then only enters the group entries.
    """

    #: Above the largest lane index of any block a launch can build (a
    #: block holds a whole work-group, and ``2**32`` lanes would need
    #: tens of GB per lane array).
    SCALE = 1 << 32
    #: The epoch at which the launcher drops the pool and starts again
    #: from 0 (:func:`_epoch`): packed entries stay inside int64 for
    #: ``2**31`` segments, so a block would need ``2**30`` barriers to
    #: pass the bound.
    EPOCH_LIMIT = 1 << 30

    __slots__ = (
        "array", "lanes_per_group", "shared",
        "w_pack", "r_hi", "r_lo", "g_hi", "g_lo",
        "w_seg", "r_seg", "g_seg", "pending",
    )

    def __init__(self, size: int):
        self.array: Optional[np.ndarray] = None
        self.lanes_per_group = 1
        self.shared = True
        self.w_pack = np.full(size, -1, dtype=np.int64)
        self.r_hi = np.full(size, -1, dtype=np.int64)
        self.r_lo = np.full(size, -1, dtype=np.int64)
        self.g_hi = np.full(size, -1, dtype=np.int64)
        self.g_lo = np.full(size, -1, dtype=np.int64)
        # The latest segment with a write / a recorded read / a recorded
        # reading group: they gate the per-address scans below.
        self.w_seg = self.r_seg = self.g_seg = -1
        self.pending: list = []  # (addrs, lanes, segment) not recorded yet

    def retarget(self, array: np.ndarray, lanes_per_group: int, shared: bool) -> "_Hazard":
        """Bind a pooled detector to a buffer (``shared``: every group
        of the block reaches it).  Old entries are stale by the epoch,
        so the arrays keep whatever they contained."""
        self.array = array
        self.lanes_per_group = lanes_per_group
        self.shared = shared
        return self

    def _writers(self, addrs, lanes, seg: int, base: int):
        """Where a write of this block conflicts with an access of
        ``lanes`` (``None``: no write is in reach)."""
        shared = self.shared
        if self.w_seg != seg and not (shared and self.w_seg >= base):
            return None
        thr = seg * self.SCALE
        packed = self.w_pack[addrs]
        conflict = (packed >= thr) & (packed != lanes + thr)
        if shared:
            l0 = self.lanes_per_group
            conflict |= (packed >= base * self.SCALE) & (
                (packed & (self.SCALE - 1)) // l0 != lanes // l0
            )
        return conflict

    def note_read(
        self, addrs: np.ndarray, lanes: np.ndarray, seg: int, base: int
    ) -> None:
        """``addrs`` may be 1-D (one address per active lane) or 2-D
        ``(lane, vector-slot)`` for whole ``vloadN`` accesses; the 2-D
        form broadcasts the per-lane ids instead of ``np.repeat``-ing
        them per access (row-major flattening preserves the ascending
        lane order the duplicate-address scatters rely on)."""
        conflict = self._writers(
            addrs, lanes[:, None] if addrs.ndim == 2 else lanes, seg, base
        )
        if conflict is not None and conflict.any():
            raise DataRace(
                "cross-lane read of an address written by another "
                "work-item (order-dependent result)"
            )
        self.pending.append((addrs, lanes, seg))
        if len(self.pending) > 16:  # bounded: record them now
            self._record(seg, base)

    def _record(self, seg: int, base: int) -> None:
        for addrs, lanes, read_seg in self.pending:
            if addrs.ndim == 2:
                lanes = lanes[:, None]
            if read_seg == seg:
                self._widen(self.r_hi, self.r_lo, addrs, lanes, seg * self.SCALE)
                self.r_seg = seg
            if self.shared:
                self._widen(
                    self.g_hi, self.g_lo, addrs, lanes // self.lanes_per_group,
                    base * self.SCALE,
                )
                self.g_seg = seg
        self.pending = []

    @staticmethod
    def _widen(hi, lo, addrs, ids, floor: int) -> None:
        """Take ``ids`` into the greatest (``hi``) and least (``lo``,
        inverted) entries above ``floor``.  Duplicate addresses within
        one call: ids ascend, so the forward scatter keeps the largest
        packed hi and the reversed scatter the largest packed lo."""
        hi[addrs] = np.maximum(hi[addrs], ids + floor)
        least = np.maximum(lo[addrs], (floor + _Hazard.SCALE - 1) - ids)
        lo[_rev(addrs)] = _rev(least)

    def note_write(
        self, addrs: np.ndarray, lanes: np.ndarray, seg: int, base: int
    ) -> None:
        """1-D or 2-D ``addrs``; see :meth:`note_read`."""
        if self.pending:
            self._record(seg, base)
        if addrs.ndim == 2:
            lanes = lanes[:, None]
        scale = self.SCALE
        top = scale - 1
        thr = seg * scale
        conflict = self._writers(addrs, lanes, seg, base)
        readers = []
        if self.r_seg == seg:
            readers.append((self.r_hi, self.r_lo, thr, lanes))
        if self.shared and self.g_seg >= base:
            readers.append(
                (self.g_hi, self.g_lo, base * scale, lanes // self.lanes_per_group)
            )
        for hi, lo, floor, ids in readers:
            packed = hi[addrs]
            r_conflict = (packed >= floor) & (
                (packed != ids + floor) | (lo[addrs] != (floor + top) - ids)
            )
            conflict = r_conflict if conflict is None else conflict | r_conflict
        if conflict is not None and conflict.any():
            raise DataRace(
                "cross-lane write/read conflict (order-dependent result)"
            )
        self.w_pack[addrs] = lanes + thr
        self.w_seg = seg


# -- pooled per-thread runtime state ----------------------------------------
#
# The autotune and explore loops re-launch the same kernel hundreds of
# times; allocating fresh hazard arrays, geometry arrays and lane masks
# per launch dominates small launches.  All pools are thread-local
# (callers may launch from threads of their own) and bounded.

_pool_tls = _threading.local()

#: Hazard detectors above this buffer size are not pooled (their arrays
#: would pin too much memory between launches).
_HAZARD_POOL_MAX_SIZE = 1 << 20
_HAZARD_POOL_PER_SIZE = 8
#: Total bookkeeping bytes one thread's pool may pin between launches,
#: and what a detector pins per buffer element (five int64 arrays).
_HAZARD_POOL_MAX_BYTES = 64 << 20
_HAZARD_BYTES = 5 * 8

#: Launch geometries with more work-items than this are recomputed per
#: launch instead of cached.
_GEOMETRY_CACHE_MAX_ITEMS = 1 << 16
_GEOMETRY_CACHE_ENTRIES = 8


def _acquire_hazard(size: int) -> _Hazard:
    stack = getattr(_pool_tls, "hazards", {}).get(size)
    if stack:
        _pool_tls.hazard_bytes -= _HAZARD_BYTES * size
        return stack.pop()
    return _Hazard(size)


def _release_hazards(hazards: dict) -> None:
    pool = getattr(_pool_tls, "hazards", None)
    if pool is None:
        pool = _pool_tls.hazards = {}
    pooled_bytes = getattr(_pool_tls, "hazard_bytes", 0)
    for hz in hazards.values():
        size = hz.array.size
        hz.array, hz.pending = None, []  # pin neither the buffer nor its reads
        cost = _HAZARD_BYTES * size
        if size > _HAZARD_POOL_MAX_SIZE or pooled_bytes + cost > _HAZARD_POOL_MAX_BYTES:
            continue
        stack = pool.setdefault(size, [])
        if len(stack) < _HAZARD_POOL_PER_SIZE:
            stack.append(hz)
            pooled_bytes += cost
    _pool_tls.hazard_bytes = pooled_bytes
    hazards.clear()


def _epoch() -> int:
    """The first segment of the thread's next block.  Past
    :attr:`_Hazard.EPOCH_LIMIT` it restarts from 0 and the pool is
    dropped: a pooled entry would look later than every new one."""
    epoch = getattr(_pool_tls, "epoch", 0)
    if epoch > _Hazard.EPOCH_LIMIT:
        _pool_tls.hazards = {}
        _pool_tls.hazard_bytes = 0
        epoch = 0
    return epoch


class _LoadLog:
    """Deferred per-buffer load accounting (see ``_Block._log_load``).

    A load whose address has a fact is one ``((terms, u, shape), mask,
    rows, flat)`` chunk (``mask`` ``None`` for every lane of the block,
    ``flat`` the per-lane addresses where the race detector needed
    them).  For one
    lane, two chunks with equal terms load one address exactly when
    their uniform terms are equal, so while every chunk of the buffer
    has the same terms, the distinct ``(lane, address)`` pairs are
    counted in closed form: per uniform term, the lanes some chunk
    covered.  A buffer that meets two terms or a load without a fact
    materializes its chunks into per-lane codes.

    Those are stored as raw ``(addresses, lanes)`` pairs, encoded as
    ``addr * L + lane`` only when :meth:`totals` sorts them.  A chunk
    holds one execution of its site, whose pairs are distinct, unless
    it is a batched loop's (``add(..., once=False)``: several
    iterations, ``repeats``).
    """

    __slots__ = (
        "array", "space", "width_units", "lane_count",
        "chunks", "affine", "events", "repeats", "_pending",
    )

    #: Compact (deduplicate) the pending chunks past this many entries.
    COMPACT_AT = 1 << 22

    def __init__(self, array: np.ndarray, space: str, width: int, lane_count: int):
        self.array = array  # keep the buffer alive while its id is a key
        self.space = space
        self.width_units = width if width else 1
        self.lane_count = lane_count
        self.chunks: list = []  # (addresses, lanes) or (encoded, None)
        self.affine: list = []  # ((terms, u, shape), mask, rows, flat)
        self.events = 0
        self.repeats = False
        self._pending = 0

    def add(self, aa: np.ndarray, lanes: np.ndarray, n: int, once: bool = True) -> None:
        self.chunks.append((aa, lanes))
        self.events += n
        self.repeats = self.repeats or not once
        self._pending += n
        if self._pending > self.COMPACT_AT:
            self.chunks = [(_distinct_sorted(self._encode_all()), None)]
            self._pending = int(self.chunks[0][0].size)

    def add_affine(self, aff: tuple, m, rows, n: int, flat=None) -> None:
        self.affine.append((aff, m, rows, flat))
        self.events += n

    def absorb(self, other: "_LoadLog") -> None:
        """Take the loads ``other`` logged for the same buffer and
        width (a batched loop's, :class:`_Chunk`)."""
        self.chunks += other.chunks
        self.affine += other.affine
        self.events += other.events
        self.repeats = self.repeats or other.repeats
        self._pending += other._pending

    def _closed_form(self) -> Optional[int]:
        """Distinct pairs of chunks that all have one set of terms."""
        terms = self.affine[0][0][0]
        lanes: dict = {}  # uniform term -> lanes covered (None: all)
        for (t, u, _), m, _, _ in self.affine:
            if t != terms:
                return None
            if u not in lanes:
                lanes[u] = m
            elif lanes[u] is not None:
                lanes[u] = None if m is None else lanes[u] | m
        L = self.lane_count
        return sum(L if m is None else int(np.count_nonzero(m)) for m in lanes.values())

    def _materialize(self, block: "_Block") -> None:
        """The chunks as the per-lane addresses a load without a fact
        logs (flat: a row's offset folded in); the every-lane chunks of
        one set of terms at once."""
        every: dict = {}  # (terms, id(rows)) -> [rows, uniform terms]
        for (terms, u, _), m, rows, flat in self.affine:
            if flat is None and m is None:
                every.setdefault((terms, id(rows)), [rows, []])[1].append(u)
        for (terms, _), (rows, us) in every.items():
            aa = block._values(terms, 0) + np.array(us)[:, None]
            if rows is not None:
                aa = rows * self.array.shape[1] + aa
            self.chunks.append((aa.ravel(), np.tile(block._lane_ids, len(us))))
            self.repeats = self.repeats or len(us) > 1
        for (terms, u, _), m, rows, flat in self.affine:
            if flat is not None:
                self.chunks.append(flat)
            elif m is not None:  # the every-lane chunks are in already
                aa = block._values(terms, u)
                if rows is not None:
                    aa = rows * self.array.shape[1] + aa
                self.chunks.append((aa[m], block._lane_ids[m]))
        self.affine = []

    def _encode_all(self) -> np.ndarray:
        L = self.lane_count
        codes = [aa if lanes is None else aa * L + lanes for aa, lanes in self.chunks]
        return codes[0] if len(codes) == 1 else np.concatenate(codes)

    def totals(self, block: "_Block") -> tuple:
        if self.affine:
            if len(self.affine) == 1 and not self.chunks:
                return self.events, self.events  # one load: no repeats
            if not self.chunks:
                distinct = self._closed_form()
                if distinct is not None:
                    return self.events, distinct
            self._materialize(block)
        assert self.chunks, "a log is made by its first load"
        if len(self.chunks) == 1 and not self.repeats:
            # One chunk means one execution of one load site: the
            # ``addr * L + lane`` encoding is injective over the
            # distinct active lanes, so every entry is already unique.
            return self.events, int(self.chunks[0][0].size)
        cat = np.sort(self._encode_all())
        distinct = 1 + int(np.count_nonzero(cat[1:] != cat[:-1]))
        return self.events, distinct


def _distinct_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted unique values of a non-empty array (a compaction holds
    more than ``COMPACT_AT`` codes; plain sort beats hash-based
    ``np.unique`` for the int64 address codes the load log stores)."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _vclamp(x, lo, hi):
    return np.minimum(np.maximum(x, lo), hi)


def _lane_dot(a, b):
    """Lane-batched ``dot``: per-lane multiply-add chain over the vector
    components, in the same left-to-right order as the scalar
    interpreter's ``_ordered_dot`` — elementwise IEEE operations over a
    lane axis are bitwise-identical to the scalar sequence, which is
    what makes this reduction lane-stable.
    """
    if not (isinstance(a, np.ndarray) and a.ndim == 2):
        return a * b  # scalar dot degenerates to a multiply
    acc = a[:, 0] * b[:, 0]
    for i in range(1, a.shape[1]):
        acc = acc + a[:, i] * b[:, i]
    return acc


def _lane_length(a):
    return np.sqrt(_lane_dot(a, a))


#: Lane-safe builtin table: same names and flop costs as the scalar
#: interpreter, with implementations that work element-wise over lanes.
_VMATH = {
    name: (cost, fn) for name, (cost, fn) in _MATH_BUILTINS.items()
}
_VMATH.update(
    {
        "min": (1, np.minimum),
        "max": (1, np.maximum),
        "clamp": (2, _vclamp),
        "dot": (7, _lane_dot),
        "length": (11, _lane_length),
    }
)


# ---------------------------------------------------------------------------
# launcher
# ---------------------------------------------------------------------------

def _block_geometry(gsize: tuple, lsize: tuple) -> dict:
    """Per-block lane geometry, cached per launch shape and block cap
    (a test that patches :data:`MAX_LANES` is never served another
    cap's blocks).

    The returned arrays are shared (and marked read-only): the engine
    only ever derives new arrays from them.  The autotune/explore loops
    re-launch identical geometries hundreds of times, which makes the
    ``tile``/``repeat`` setup a measurable share of small launches.

    Each block also holds what access facts are evaluated against: the
    basis ids (:data:`BASIS`) per lane, at lane 0 and their ranges, the
    digits of the flat lane index, and caches of what it makes of each
    set of terms (``_Block._shape_of``, ``_Block._injective``).
    """
    key = (gsize, lsize, MAX_LANES)
    cache: "OrderedDict[tuple, dict]" = getattr(_pool_tls, "geometry", None)
    if cache is None:
        cache = OrderedDict()
        _pool_tls.geometry = cache
    hit = cache.get(key)
    if hit is not None:
        cache.move_to_end(key)
        return hit

    num_groups = tuple(g // l for g, l in zip(gsize, lsize))
    total_groups = num_groups[0] * num_groups[1] * num_groups[2]
    lanes_per_group = lsize[0] * lsize[1] * lsize[2]
    block_groups = max(
        1, min(total_groups, MAX_LANES // max(1, lanes_per_group))
    )

    # Lane order within a group matches the scalar scheduler: z-outer,
    # y-middle, x-inner.
    l0 = np.arange(lanes_per_group)
    lid_group = (
        l0 % lsize[0],
        (l0 // lsize[0]) % lsize[1],
        l0 // (lsize[0] * lsize[1]),
    )

    blocks = []
    for start in range(0, total_groups, block_groups):
        ords = np.arange(start, min(start + block_groups, total_groups))
        n_groups = len(ords)
        lanes = n_groups * lanes_per_group
        group_dims = (
            ords % num_groups[0],
            (ords // num_groups[0]) % num_groups[1],
            ords // (num_groups[0] * num_groups[1]),
        )
        group_row = np.repeat(np.arange(n_groups), lanes_per_group)
        lid = tuple(np.tile(lid_group[d], n_groups) for d in range(3))
        group_ids = tuple(group_dims[d][group_row] for d in range(3))
        gid = tuple(group_ids[d] * lsize[d] + lid[d] for d in range(3))
        lane_ids = np.arange(lanes)
        full = np.ones(lanes, dtype=bool)
        for arr in (group_row, lane_ids, full, *lid, *group_ids, *gid):
            arr.setflags(write=False)
        basis = lid + group_ids  # the order of BASIS
        lo = tuple(int(a.min()) for a in basis)
        hi = tuple(int(a.max()) for a in basis)
        # The flat lane index's digits: (basis element, its unit) for
        # each element that varies in the block.
        units = tuple(
            (k, unit) for k, unit in enumerate((
                1, lsize[0], lsize[0] * lsize[1], lanes_per_group,
                lanes_per_group * num_groups[0],
                lanes_per_group * num_groups[0] * num_groups[1],
            ))
            if hi[k] > lo[k]
        )
        blocks.append(
            {
                "first_group": start,
                "n_groups": n_groups,
                "lanes": lanes,
                "group_row": group_row,
                "lid": lid,
                "gid": gid,
                "group_ids": group_ids,
                "lane_ids": lane_ids,
                "full": full,
                "basis": basis,
                "basis0": tuple(int(a[0]) for a in basis),
                "lo": lo,
                "hi": hi,
                "units": units,
                "shapes": {},
                "injectives": {},
                "chunks": {},
            }
        )

    geometry = {
        "num_groups": num_groups,
        "total_groups": total_groups,
        "lanes_per_group": lanes_per_group,
        "blocks": blocks,
    }
    if total_groups * lanes_per_group <= _GEOMETRY_CACHE_MAX_ITEMS:
        cache[key] = geometry
        while len(cache) > _GEOMETRY_CACHE_ENTRIES:
            cache.popitem(last=False)
    return geometry


def run_blocks(
    gsize: tuple,
    lsize: tuple,
    base_env: dict,
    local_decls: list,
    counters: Counters,
    pipeline,
) -> None:
    """Run ``pipeline`` (a kernel's compiled pipeline from
    :mod:`repro.opencl.simt_compile`) over the launch (counters merged,
    buffers written), in blocks of whole work-groups of at most
    :data:`MAX_LANES` lanes, run in the scalar engine's group order.

    A cross-lane race raises :class:`DataRace`, its message prefixed
    with the kernel's name; the buffers and counters are then
    unspecified.
    """
    try:
        with np.errstate(all="ignore"):
            _run_blocks(gsize, lsize, base_env, local_decls, counters, pipeline)
    except DataRace as race:
        raise DataRace(f"{pipeline.kernel_name}: {race}") from None


def _run_blocks(gsize, lsize, base_env, local_decls, counters, pipeline):
    geometry = _block_geometry(gsize, lsize)
    num_groups = geometry["num_groups"]
    written = pipeline.written

    tracked = {
        id(v.array)
        for name, v in base_env.items()
        if isinstance(v, Pointer) and name in written
    }
    # The sole-store proof holds for a buffer no other argument aliases.
    sole = pipeline.sole_names
    sole_ids: frozenset = frozenset()
    if sole:
        arrays = [id(v.array) for v in base_env.values() if isinstance(v, Pointer)]
        sole_ids = frozenset(
            id(v.array)
            for name, v in base_env.items()
            if name in sole and isinstance(v, Pointer)
            and arrays.count(id(v.array)) == 1
        )

    vptr_env = dict(base_env)
    for name, value in vptr_env.items():
        if isinstance(value, Pointer):
            vptr_env[name] = VPtr(value.array, value.offset, value.space)

    # While tracing: the buffers' names and the launch's traffic rows.
    tracer = _obs_trace._ACTIVE
    names = traffic = None
    if tracer is not None:
        names = {
            id(value.array): name for name, value in vptr_env.items()
            if isinstance(value, VPtr)
        }
        traffic = {}

    for geo in geometry["blocks"]:
        n_groups = geo["n_groups"]
        group_row = geo["group_row"]
        block_tracked = tracked
        block_sole = sole_ids
        env = dict(vptr_env)
        block_names = names if names is None else dict(names)
        for decl in local_decls:
            local_array = np.zeros(
                (n_groups, decl.array_size), dtype=array_dtype(decl.type_name)
            )
            env[decl.name] = RowPtr(local_array, group_row, 0, "local")
            if block_names is not None:
                block_names[id(local_array)] = decl.name
            if decl.name in written:
                if block_tracked is tracked:
                    block_tracked = set(tracked)
                block_tracked.add(id(local_array))
            if decl.name in sole:  # a fresh array: never aliased
                block_sole = block_sole | {id(local_array)}

        block = _Block(
            counters, geo, gsize, lsize, num_groups,
            seg_start=_epoch(),
            tracked=block_tracked,
            sole_ids=block_sole,
            shape=geometry,
            names=block_names,
            traffic=traffic,
        )
        block.env = env
        try:
            pipeline.run(block)
            block._flush_load_log()
        finally:
            _pool_tls.epoch = block._segment + 1
            _release_hazards(block._hazards)
    counters.work_items += (
        geometry["total_groups"] * geometry["lanes_per_group"]
    )
    if tracer is not None:
        tracer.add_instant("traffic", {
            "kernel": pipeline.kernel_name,
            "rows": [[*key, *row] for key, row in traffic.items()],
        })
