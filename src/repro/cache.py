"""Persistent content-addressed store for tuning artifacts.

Exploring the rewrite space means compiling and simulating many
candidate programs, most of which reappear unchanged on the next run
(and across ``benchsuite`` invocations).  Following Loo.py's lead on
caching transformed-kernel artifacts, this module keeps three *levels*
of entries on disk (the rows of ``_LEVELS``), all addressed by content,
never by file name or timestamp:

* **kernel** (``<key>.kernel``) — the full
  :class:`~repro.compiler.codegen.CompiledKernel` (generated OpenCL
  source plus launch metadata), keyed by the *structural hash* of the IL
  program (:mod:`repro.ir.structural`, so parameter renaming and cloning
  do not defeat the cache) combined with the
  :class:`~repro.compiler.options.CompilerOptions` and the size
  environment;
* **cycles** (``<key>.cycles.json``) — the measured simulated cycle
  count of one execution, keyed by the kernel key plus a fingerprint of
  the concrete input arrays, the launch geometry, the device profile and
  the simulator engine;
* **run** (``<key>.run``) — the full outcome of one simulated execution
  (the output buffer and the device-independent :class:`Counters`),
  keyed like cycle entries minus the device.

Clients do not read and write entries, they *ask for results*:
:meth:`TuningCache.fetch` is the one lookup → miss → compute → store
(a ``compute`` that raises stores nothing), and
:meth:`TuningCache.compile_and_run` is the one "compile and launch a
program through the run and kernel levels" built on it.  ``cache=None``
at a public entry point becomes :data:`DISABLED` (:func:`or_disabled`):
every lookup misses, nothing is stored, no key or fingerprint is hashed
— so callers carry no ``cache is not None`` guards.

One entry path: every level goes through :meth:`TuningCache._get` and
:meth:`TuningCache._put`; the six public ``get_*`` / ``put_*`` are
wrappers naming the level.  An entry is the header line
``repro-cache <version> <key> <sha256 of payload>`` over the level's
raw payload.

Crash- and concurrency-safety (see ``src/repro/RESILIENCE.md``):

* Writes are atomic (:func:`write_atomic`: temp file + ``os.replace``)
  and serialized across *processes* with an advisory ``fcntl`` lock on
  ``<root>/.lock`` — ``kill -9`` mid-write leaves at most a stale temp
  file (swept by the eviction pass), never a partial entry, and two
  concurrent explorers sharing one store cannot interleave evictions
  with writes.
* A failing entry is *classified*, each condition in one place — I/O
  errors count separately from ``corrupt`` entries (bad magic or header
  shape, checksum mismatch, undecodable or wrong-typed payload) and
  from ``stale`` ones (another format version, or filed under another
  key) — and corrupt/stale entries are moved to ``<root>/quarantine/``
  (visible in :class:`CacheStats`, never silently unlinked) so a
  recurring corruption source can be diagnosed post-mortem.  The worst
  failure mode is still just a recompile.
* The store is size-capped: when ``max_bytes`` (constructor argument or
  ``REPRO_CACHE_MAX_BYTES``) is exceeded after a write, least-recently-
  used entries are evicted — hits refresh an entry's mtime, so recency
  is by *use*, not by creation.  Without a cap only a cache object's
  first write scans the store (for crash-leftover temp files).
* A read that fails with an ``OSError`` (other than file-not-found) is
  a miss counted in ``stats.io_errors``; a write that fails with one is
  skipped and counted in ``stats.write_skips``.  Neither touches an
  entry already on disk: a store the process cannot read or write
  (a regular file given as the root, a full disk) costs recompiles,
  never a result.

The store root comes from the ``REPRO_CACHE_DIR`` environment variable,
falling back to ``~/.cache/repro``.

Keys hash the program, the options, the sizes and the launch geometry,
but nothing about the compiler, so a store outlives the code generator
that filled it.  The rule: **bump** ``CACHE_VERSION`` **whenever the
text generated for an unchanged program + options can change** (a new
or changed compiler pass, a different barrier or index) — otherwise
``benchsuite figure8`` / ``explore`` answer from the old compiler's
kernels and cycle counts.  A bump changes every key, so old entries are
never hit; one found under a current key quarantines as ``stale`` and
is refilled.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import pickle
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro import obs
from repro.compiler.codegen import CompiledKernel, compile_kernel
from repro.compiler.kernel import execute_kernel
from repro.compiler.options import CompilerOptions
from repro.ir.nodes import FunDecl
from repro.ir.structural import canonical
from repro.opencl.interp import Counters

#: Bump when the on-disk layout or any pickled class changes shape, or
#: when the compiler emits different code for an unchanged program.
#: v3: entries carry a checksummed header; corrupt/stale entries are
#: quarantined instead of unlinked.
#: v4: codegen multiplies map intermediates by the enclosing parallel
#: maps; kernels cached before could carry a racy staging row.
#: Not bumped when the structural key stopped reading inferred types of
#: bound lambda parameters: the new key of a program, typed or not, is
#: the old key of the same program untyped, so an old entry can only be
#: hit by the program that wrote it.
#: v5: the key moved into the header; the body is the bare payload, no
#: longer a ``{"version", "key", ...}`` dict.
#: v6: generated text changed twice without a bump — one barrier per
#: ``iterate`` step and element-unit vector addressing, then
#: :mod:`repro.compiler.hoist` — so a v5 store answered with the older
#: compiler's kernels and cycle counts.
#: v7: private values spread over work-items (``toPrivate(mapLcl ...)``
#: is ``ceil(n / t)`` slots, not one) and barrier rule 4.
#: Not bumped when the key became a structure cached on the nodes: its
#: text, which is what ``kernel_key`` digests, is byte-identical.
#: v8: names numbered per compilation — a kernel's loop indices start at
#: ``_0`` instead of wherever the process-wide counter stood, so stored
#: kernels carry other spellings.
#: v9: a comparison's result is the C ``int`` 0 / 1 in arithmetic on
#: every simulator tier, so a ``run`` entry could hold the outputs of
#: the old boolean arithmetic.
CACHE_VERSION = 9

_ENV_VAR = "REPRO_CACHE_DIR"
_MAX_BYTES_ENV_VAR = "REPRO_CACHE_MAX_BYTES"

#: Entry-header magic (the header line is in the module docstring).
_MAGIC = b"repro-cache"

#: Temp files older than this are crash leftovers; the eviction pass
#: sweeps them.
_TMP_MAX_AGE_SECONDS = 3600.0

QUARANTINE_DIR = "quarantine"


def default_cache_dir() -> Path:
    env = os.environ.get(_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def fingerprint_inputs(inputs: Mapping[str, Any]) -> str:
    """Digest concrete kernel inputs (arrays by bytes, scalars by repr)."""
    h = hashlib.sha256()
    for name in sorted(inputs):
        value = inputs[name]
        h.update(name.encode())
        if isinstance(value, np.ndarray) or (
            hasattr(value, "__len__") and not isinstance(value, str)
        ):
            arr = np.ascontiguousarray(np.asarray(value))
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that a reader, or a ``kill -9``, sees
    the old file or the new one, never a part of either: a temp file in
    the same directory, then ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CacheFormatError(Exception):
    """An entry failed validation; ``reason`` classifies it as
    ``"corrupt"`` or ``"stale"`` (see the module docstring)."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


def _load_kernel(payload: bytes) -> CompiledKernel:
    kernel = pickle.loads(payload)
    if not isinstance(kernel, CompiledKernel):
        raise CacheFormatError("corrupt", "entry holds no kernel")
    return kernel


def _load_cycles(payload: bytes) -> float:
    cycles = json.loads(payload)
    if not isinstance(cycles, float):
        raise CacheFormatError("corrupt", "entry holds no cycle count")
    return cycles


def _dump_run(run: tuple) -> bytes:
    output, counters = run
    return pickle.dumps((np.asarray(output), dict(vars(counters))))


def _load_run(payload: bytes) -> tuple:
    output, counters = pickle.loads(payload)
    if not isinstance(output, np.ndarray):
        raise CacheFormatError("corrupt", "entry holds no output array")
    return output, Counters(**counters)


#: The levels: name (as in ``fetch`` and the ``cache.get_<name>`` spans)
#: -> file suffix, :class:`CacheStats` prefix, ``dumps``, validating
#: ``loads``.  Everything else about an entry is level-independent.
_LEVELS = {
    "kernel": ("kernel", "kernel", pickle.dumps, _load_kernel),
    "cycles": (
        "cycles.json", "cycle",
        lambda cycles: json.dumps(float(cycles)).encode(), _load_cycles,
    ),
    "run": ("run", "run", _dump_run, _load_run),
}


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _sizes(size_env: Mapping[str, int]) -> str:
    return ";".join(f"{k}={int(v)}" for k, v in sorted(size_env.items()))


def _geometry(size) -> str:
    return repr(tuple(size) if hasattr(size, "__len__") else size)


@dataclass
class CacheStats:
    """Hit/miss and failure-recovery accounting for one
    :class:`TuningCache` instance.  Nothing fails silently: every
    dropped or skipped entry shows up in exactly one counter."""

    kernel_hits: int = 0
    kernel_misses: int = 0
    cycle_hits: int = 0
    cycle_misses: int = 0
    run_hits: int = 0
    run_misses: int = 0
    puts: int = 0
    #: Entries moved to ``<root>/quarantine/`` (corrupt + stale).
    quarantined: int = 0
    #: Quarantined for undecodable content (bad magic/checksum/pickle).
    corrupt_entries: int = 0
    #: Quarantined for version or key mismatch (well-formed, outdated).
    stale_entries: int = 0
    #: Reads that failed with an ``OSError`` other than file-not-found
    #: (a miss, not corruption).
    io_errors: int = 0
    #: Entries evicted by the LRU size cap.
    evictions: int = 0
    #: Writes that failed with an ``OSError`` (skipped; the entry on
    #: disk, if any, is left as it was).
    write_skips: int = 0

    def hit_rate(self, level: str) -> float:
        """Hits over lookups of one level (a ``_LEVELS`` name)."""
        stat = _LEVELS[level][1]
        hits = getattr(self, f"{stat}_hits")
        total = hits + getattr(self, f"{stat}_misses")
        return hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Every field plus the kernel and run hit rates: the ``cache``
        section of the metrics snapshot."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["kernel_hit_rate"] = self.hit_rate("kernel")
        doc["run_hit_rate"] = self.hit_rate("run")
        return doc


class TuningCache:
    """On-disk content-addressed store for compiled kernels and timings.

    ``max_bytes`` caps the total size of live entries (``None`` reads
    ``REPRO_CACHE_MAX_BYTES``; 0/unset disables eviction).
    """

    def __init__(
        self,
        root: "str | Path | None" = None,
        max_bytes: Optional[int] = None,
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        name, cap = "max_bytes", max_bytes
        if cap is None:
            name, cap = _MAX_BYTES_ENV_VAR, os.environ.get(_MAX_BYTES_ENV_VAR) or 0
        try:
            self.max_bytes = int(cap) if isinstance(cap, str) else operator.index(cap)
            if self.max_bytes < 0:  # would evict every entry as it is written
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError(
                f"{name} must be a non-negative integer number of bytes, "
                f"got {cap!r}"
            ) from None
        self.stats = CacheStats()
        # Callers may share one cache between threads of their own:
        # serialize file IO and stats updates within the process; the
        # fcntl lock in _exclusive() serializes mutations across processes.
        self._lock = threading.Lock()
        # Without a cap, only the first write sweeps the store.
        self._swept = False
        # The newest cache owns the metrics snapshot's "cache" slot
        # (harnesses build exactly one per run).
        obs.register_provider("cache", self.stats.as_dict)

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    @staticmethod
    def _options_token(options: CompilerOptions) -> str:
        parts = [
            f"{f.name}={getattr(options, f.name)!r}"
            for f in sorted(fields(options), key=lambda f: f.name)
        ]
        return ";".join(parts)

    def kernel_key(
        self,
        program: FunDecl,
        options: CompilerOptions,
        size_env: Mapping[str, int],
    ) -> str:
        return _digest(
            f"v{CACHE_VERSION}", canonical(program),
            self._options_token(options), _sizes(size_env),
        )

    @staticmethod
    def source_key(source: str, kernel_name: str, size_env: Mapping[str, int]) -> str:
        """Key for a hand-written (non-IL) kernel: raw source + sizes.

        The reference kernels of the benchsuite have no IL program to
        hash structurally; their source text is the identity.
        """
        return _digest(
            f"v{CACHE_VERSION}", "src", kernel_name, _sizes(size_env), source
        )

    def run_key(
        self,
        kernel_key: str,
        inputs_fingerprint: str,
        global_size,
        local_size,
        engine: Optional[str],
    ) -> str:
        return _digest(
            "run", kernel_key, inputs_fingerprint, _geometry(global_size),
            _geometry(local_size), engine or "auto",
        )

    def cycles_key(
        self,
        kernel_key: str,
        inputs_fingerprint: str,
        global_size,
        local_size,
        device: str,
        engine: Optional[str],
    ) -> str:
        return _digest(
            kernel_key, inputs_fingerprint, _geometry(global_size),
            _geometry(local_size), device, engine or "auto",
        )

    def fingerprint(self, inputs: Mapping[str, Any]) -> str:
        """:func:`fingerprint_inputs` (a disabled cache hashes nothing)."""
        return fingerprint_inputs(inputs)

    # ------------------------------------------------------------------
    # entry framing: one versioned, keyed, checksummed header line
    # ------------------------------------------------------------------
    @staticmethod
    def _encode(key: str, payload: bytes) -> bytes:
        digest = hashlib.sha256(payload).hexdigest()
        return f"{_MAGIC.decode()} {CACHE_VERSION} {key} {digest}\n".encode() + payload

    @staticmethod
    def _decode(raw: bytes, key: str) -> bytes:
        """Validate the header of the entry filed under ``key``; returns
        the payload.  The version is compared before the header's shape,
        so an entry of another format is stale, never corrupt."""
        newline = raw.find(b"\n")
        if newline < 0 or not raw.startswith(_MAGIC + b" "):
            raise CacheFormatError("corrupt", "missing entry header")
        header = raw[:newline].split(b" ")
        try:
            version = int(header[1])
        except ValueError:
            raise CacheFormatError("corrupt", "malformed version field") from None
        if version != CACHE_VERSION:
            raise CacheFormatError(
                "stale", f"format v{version}, expected v{CACHE_VERSION}"
            )
        if len(header) != 4:
            raise CacheFormatError("corrupt", "malformed entry header")
        if header[2] != key.encode():
            raise CacheFormatError("stale", "entry filed under another key")
        payload = raw[newline + 1:]
        if hashlib.sha256(payload).hexdigest().encode() != header[3]:
            raise CacheFormatError("corrupt", "checksum mismatch")
        return payload

    # ------------------------------------------------------------------
    # low-level file handling
    # ------------------------------------------------------------------
    def _path(self, key: str, suffix: str) -> Path:
        return self.root / f"{key}.{suffix}"

    @contextmanager
    def _exclusive(self):
        """Advisory cross-process lock on ``<root>/.lock`` (held around
        writes, quarantine moves and eviction; reads rely on atomic
        replace instead and stay lock-free)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.root / ".lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a failing entry aside — never silently unlink it."""
        obs.instant("cache.quarantine", entry=path.name, reason=reason)
        self.stats.quarantined += 1
        if reason == "stale":
            self.stats.stale_entries += 1
        else:
            self.stats.corrupt_entries += 1
        target_dir = self.root / QUARANTINE_DIR
        try:
            with self._exclusive():
                target_dir.mkdir(parents=True, exist_ok=True)
                os.replace(path, target_dir / f"{path.name}.{reason}")
        except OSError:
            # Quarantine itself failed (permissions, cross-device...):
            # fall back to unlinking so the entry cannot poison reads.
            try:
                path.unlink()
            except OSError:
                pass

    def quarantined_entries(self) -> list:
        """Paths currently sitting in the quarantine directory."""
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return []
        return sorted(p for p in qdir.iterdir() if p.is_file())

    # ------------------------------------------------------------------
    # the entry path: one read, one write, whatever the level
    # ------------------------------------------------------------------
    def _get(self, level: str, key: str):
        """Read, validate and decode the ``level`` entry filed under
        ``key``; ``None`` is a classified, counted miss."""
        suffix, stat, _, loads = _LEVELS[level]
        path = self._path(key, suffix)
        with obs.span(f"cache.get_{level}"), self._lock:
            raw = value = None
            try:
                raw = path.read_bytes()
            except FileNotFoundError:
                pass
            except OSError:
                self.stats.io_errors += 1
            if raw is not None:
                try:
                    value = loads(self._decode(raw, key))
                except CacheFormatError as exc:
                    self._quarantine(path, exc.reason)
                except Exception:
                    # A checksummed payload that still fails to decode:
                    # schema drift of the pickled classes, not bit rot.
                    self._quarantine(path, "corrupt")
            outcome = f"{stat}_misses" if value is None else f"{stat}_hits"
            setattr(self.stats, outcome, getattr(self.stats, outcome) + 1)
            if value is not None:
                try:
                    # A hit refreshes recency for the LRU eviction pass.
                    os.utime(path)
                except OSError:
                    pass
            return value

    def _put(self, level: str, key: str, value) -> None:
        """Frame ``value`` and write it atomically as the ``level`` entry
        of ``key``; a write that cannot happen is counted and skipped."""
        suffix, _, dumps, _ = _LEVELS[level]
        with obs.span(f"cache.put_{level}"), self._lock:
            data = self._encode(key, dumps(value))
            try:
                with self._exclusive():
                    write_atomic(self._path(key, suffix), data)
                    if self.max_bytes or not self._swept:
                        self._swept = True
                        self._evict_locked()
            except OSError:
                self.stats.write_skips += 1
                return
            self.stats.puts += 1

    def get_kernel(self, key: str) -> Optional[CompiledKernel]:
        return self._get("kernel", key)

    def put_kernel(self, key: str, kernel: CompiledKernel) -> None:
        self._put("kernel", key, kernel)

    def get_cycles(self, key: str) -> Optional[float]:
        return self._get("cycles", key)

    def put_cycles(self, key: str, cycles: float) -> None:
        self._put("cycles", key, cycles)

    def get_run(self, key: str) -> Optional[tuple]:
        """``(output array, Counters)`` of a cached execution, or ``None``."""
        return self._get("run", key)

    def put_run(self, key: str, output: np.ndarray, counters: Counters) -> None:
        self._put("run", key, (output, counters))

    # ------------------------------------------------------------------
    # asking for results
    # ------------------------------------------------------------------
    def fetch(self, level: str, key: str, compute: Callable[[], Any]):
        """The ``level`` entry of ``key``; on a miss, ``compute()`` it
        and store it.  A ``compute`` that raises stores nothing."""
        value = self._get(level, key)
        if value is None:
            value = compute()
            self._put(level, key, value)
        return value

    def compile_and_run(
        self,
        program: FunDecl,
        options: CompilerOptions,
        inputs: Mapping[str, Any],
        size_env: Mapping[str, int],
        global_size,
        local_size,
        engine: Optional[str] = None,
    ) -> tuple:
        """:func:`repro.compiler.kernel.compile_and_run` through the run
        and kernel levels: ``(output, counters)`` from the run entry,
        else by executing the kernel entry, else by compiling first."""
        kernel_key = self.kernel_key(program, options, size_env)
        run_key = self.run_key(
            kernel_key, self.fingerprint(inputs), global_size, local_size,
            engine,
        )

        def execute() -> tuple:
            compiled = self.fetch(
                "kernel", kernel_key, lambda: compile_kernel(program, options)
            )
            result = execute_kernel(
                compiled, inputs, size_env, global_size,
                local_size=local_size, engine=engine,
            )
            return result.output, result.counters

        return self.fetch("run", run_key, execute)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    @staticmethod
    def _is_entry(path: Path) -> bool:
        return path.is_file() and not path.name.startswith(".")

    def _evict_locked(self) -> None:
        """LRU eviction down to ``max_bytes``; also sweeps stale temp
        files left by killed writers.  Caller holds ``_exclusive``."""
        now = time.time()
        entries = []
        total = 0
        try:
            children = list(self.root.iterdir())
        except OSError:
            return
        for path in children:
            if path.name.startswith(".tmp-"):
                try:
                    if now - path.stat().st_mtime > _TMP_MAX_AGE_SECONDS:
                        path.unlink()
                except OSError:
                    pass
                continue
            if not self._is_entry(path):
                continue
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        if not self.max_bytes or total <= self.max_bytes:
            return
        entries.sort(key=lambda e: (e[0], e[2].name))
        evicted = 0
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.stats.evictions += 1
            evicted += 1
        if evicted:
            obs.instant("cache.evict", entries=evicted, live_bytes=total)

    # ------------------------------------------------------------------
    def clear(self, include_quarantine: bool = True) -> int:
        """Delete every live entry (and, by default, the quarantine);
        returns the number of entry files removed."""
        removed = 0
        if self.root.is_dir():
            with self._exclusive():
                for path in self.root.iterdir():
                    if path.suffix in (".kernel", ".json", ".run") or (
                        path.name.startswith(".tmp-")
                    ):
                        try:
                            path.unlink()
                            removed += 1
                        except OSError:
                            pass
        if include_quarantine:
            for path in self.quarantined_entries():
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed


class _DisabledCache(TuningCache):
    """What ``cache=None`` means: every lookup misses, nothing is stored
    or counted, and keys and fingerprints are not hashed (nothing would
    be filed under them) — so ``fetch`` is a plain ``compute()``."""

    def __init__(self):
        self.stats = CacheStats()

    def _no_key(self, *args, **kwargs) -> str:
        return ""

    kernel_key = source_key = run_key = cycles_key = fingerprint = _no_key

    def _get(self, level: str, key: str):
        return None

    def _put(self, level: str, key: str, value) -> None:
        pass


#: The one disabled cache (it has no state to share).
DISABLED = _DisabledCache()


def or_disabled(cache: Optional[TuningCache]) -> TuningCache:
    """``cache``, or :data:`DISABLED` for ``None`` — called once at each
    public entry point that takes an optional cache."""
    return DISABLED if cache is None else cache
