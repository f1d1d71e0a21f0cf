"""Persistent tuning cache: round-trips, key sensitivity, corrupt or
stale entries falling back to a recompile (with quarantine and
classified stats), failed reads and writes taking the entry path's own
recovery, LRU eviction under a size cap, and crash/concurrency
safety (multi-process writer hammer, ``kill -9`` mid-write)."""

import dataclasses
import errno
import hashlib
import json
import multiprocessing
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.arith import Var
from repro.types import ArrayType, FLOAT
from repro.ir.nodes import Lambda, Param, UserFun
from repro.ir.dsl import map_
import repro.cache as cache_mod
from repro.cache import (
    CACHE_VERSION,
    QUARANTINE_DIR,
    TuningCache,
    fingerprint_inputs,
    or_disabled,
)
from repro.compiler.codegen import compile_kernel
from repro.compiler.options import CompilerOptions
from repro.opencl.interp import Counters
from repro.rewrite.lowering import lower_to_global


def _program(param_name="x"):
    n = Var("N")
    x = Param(ArrayType(FLOAT, n), param_name)
    double = UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                     py=lambda v: v * 2.0)
    return Lambda([x], map_(double)(x))


def _compiled():
    return compile_kernel(lower_to_global(_program()), CompilerOptions())


def _frame(key, payload, version=CACHE_VERSION):
    """An entry file, written out by hand: one header line, raw payload."""
    digest = hashlib.sha256(payload).hexdigest()
    return f"repro-cache {version} {key} {digest}\n".encode() + payload


#: level -> (file suffix, CacheStats prefix, a value, a checksummed
#: payload that decodes to something of the wrong type).
LEVELS = {
    "kernel": ("kernel", "kernel", _compiled,
               pickle.dumps({"kernel": "not one"})),
    "cycles": ("cycles.json", "cycle", lambda: 123.0, b'{"cycles": 123.0}'),
    "run": ("run", "run", lambda: (np.arange(8.0), Counters(flops=3)),
            pickle.dumps(([0.0, 1.0], {}))),
}


def _put(cache, level, key, value):
    if level == "run":
        cache.put_run(key, *value)
    else:
        getattr(cache, f"put_{level}")(key, value)


def _get(cache, level, key):
    return getattr(cache, f"get_{level}")(key)


def _assert_same(level, got, value):
    if level == "kernel":
        assert got.source == value.source
    elif level == "run":
        np.testing.assert_array_equal(got[0], value[0])
        assert got[1] == value[1]
    else:
        assert got == value


@pytest.mark.parametrize("level", LEVELS)
class TestEveryLevel:
    """The one entry path, through each level's public wrappers."""

    KEY = "ab" * 32

    def test_round_trip(self, tmp_path, level):
        suffix, stat, make, _ = LEVELS[level]
        cache = TuningCache(tmp_path)
        assert _get(cache, level, self.KEY) is None
        value = make()
        _put(cache, level, self.KEY, value)
        (entry,) = [p for p in tmp_path.iterdir() if p.name != ".lock"]
        assert entry.name == f"{self.KEY}.{suffix}"
        assert entry.read_bytes().startswith(
            f"repro-cache {CACHE_VERSION} {self.KEY} ".encode()
        )
        _assert_same(level, _get(cache, level, self.KEY), value)
        stats = cache.stats.as_dict()
        assert stats[f"{stat}_hits"] == stats[f"{stat}_misses"] == 1
        assert stats["puts"] == 1 and stats["quarantined"] == 0

    def test_entry_copied_under_another_key_is_stale(self, tmp_path, level):
        suffix = LEVELS[level][0]
        cache = TuningCache(tmp_path)
        _put(cache, level, self.KEY, LEVELS[level][2]())
        other = "cd" * 32
        cache._path(other, suffix).write_bytes(
            cache._path(self.KEY, suffix).read_bytes()
        )
        assert _get(cache, level, other) is None
        assert cache.stats.stale_entries == 1
        assert cache.stats.corrupt_entries == 0
        (qfile,) = cache.quarantined_entries()
        assert qfile.name == f"{other}.{suffix}.stale"
        assert _get(cache, level, self.KEY) is not None  # the original stays

    def test_wrong_typed_payload_is_corrupt(self, tmp_path, level):
        suffix, _, _, wrong = LEVELS[level]
        cache = TuningCache(tmp_path)
        tmp_path.mkdir(exist_ok=True)
        cache._path(self.KEY, suffix).write_bytes(_frame(self.KEY, wrong))
        assert _get(cache, level, self.KEY) is None
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.stale_entries == 0
        (qfile,) = cache.quarantined_entries()
        assert qfile.name.endswith(".corrupt")

    def test_v4_entry_is_stale_and_refills(self, tmp_path, level):
        """What the previous format left on disk: a three-field header
        over a ``{"version", "key", ...}`` dict.  Another version is
        stale whatever the header's arity, never corrupt."""
        suffix, _, make, _ = LEVELS[level]
        value = make()
        old = {"version": 4, "key": self.KEY}
        if level == "kernel":
            body = pickle.dumps(dict(old, kernel=value))
        elif level == "cycles":
            body = json.dumps(dict(old, cycles=value)).encode()
        else:
            body = pickle.dumps(
                dict(old, output=value[0], counters=dict(vars(value[1])))
            )
        cache = TuningCache(tmp_path)
        path = cache._path(self.KEY, suffix)
        digest = hashlib.sha256(body).hexdigest()
        path.write_bytes(f"repro-cache 4 {digest}\n".encode() + body)
        assert _get(cache, level, self.KEY) is None
        assert cache.stats.stale_entries == 1
        assert cache.stats.corrupt_entries == 0
        (qfile,) = cache.quarantined_entries()
        assert qfile.parent.name == QUARANTINE_DIR
        assert qfile.name == f"{path.name}.stale"
        _put(cache, level, self.KEY, value)
        _assert_same(level, _get(cache, level, self.KEY), value)

    def test_fetch_computes_once_on_a_miss_never_on_a_hit(self, tmp_path, level):
        value = LEVELS[level][2]()
        cache = TuningCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return value

        assert cache.fetch(level, self.KEY, compute) is value
        _assert_same(level, cache.fetch(level, self.KEY, compute), value)
        assert len(calls) == 1
        assert cache.stats.puts == 1

    def test_fetch_stores_nothing_when_compute_raises(self, tmp_path, level):
        cache = TuningCache(tmp_path)

        def compute():
            raise KeyError("no result")

        with pytest.raises(KeyError):
            cache.fetch(level, self.KEY, compute)
        assert cache.stats.puts == 0
        assert not cache._path(self.KEY, LEVELS[level][0]).exists()
        assert _get(cache, level, self.KEY) is None

    # A failed write is skipped and counted, and leaves the entry on
    # disk as it was.

    def test_a_failed_write_is_a_skipped_write(self, tmp_path, level):
        suffix, stat, make, _ = LEVELS[level]
        cache = TuningCache(tmp_path)
        # A non-empty directory where the entry goes: os.replace fails.
        path = cache._path(self.KEY, suffix)
        (path / "occupied").mkdir(parents=True)
        _put(cache, level, self.KEY, make())
        assert cache.stats.write_skips == 1
        assert cache.stats.puts == cache.stats.io_errors == 0
        assert not any(p.name.startswith(".tmp-") for p in tmp_path.iterdir())
        (path / "occupied").rmdir()
        path.rmdir()
        assert _get(cache, level, self.KEY) is None
        assert cache.stats.as_dict()[f"{stat}_misses"] == 1

    def test_a_failed_write_leaves_the_stored_entry_whole(
        self, tmp_path, level, monkeypatch
    ):
        suffix, _, make, _ = LEVELS[level]
        cache = TuningCache(tmp_path)
        value = make()
        _put(cache, level, self.KEY, value)
        before = cache._path(self.KEY, suffix).read_bytes()

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as m:
            m.setattr(cache_mod.os, "replace", disk_full)
            _put(cache, level, self.KEY, value)
        assert cache.stats.puts == cache.stats.write_skips == 1
        assert cache._path(self.KEY, suffix).read_bytes() == before
        assert not any(p.name.startswith(".tmp-") for p in tmp_path.iterdir())
        _assert_same(level, _get(cache, level, self.KEY), value)

    def test_fetch_through_a_failed_read_recomputes(self, tmp_path, level):
        suffix, _, make, _ = LEVELS[level]
        cache = TuningCache(tmp_path)
        value = make()
        calls = []

        def compute():
            calls.append(1)
            return value

        # A directory at the entry path fails the read and the write.
        path = cache._path(self.KEY, suffix)
        path.mkdir(parents=True)
        _assert_same(level, cache.fetch(level, self.KEY, compute), value)
        assert len(calls) == 1 and cache.stats.puts == 0
        assert cache.stats.io_errors == cache.stats.write_skips == 1
        # Once the path is usable the next fetch refills it.
        path.rmdir()
        cache.fetch(level, self.KEY, compute)
        _assert_same(level, cache.fetch(level, self.KEY, compute), value)
        assert len(calls) == 2 and cache.stats.puts == 1


class TestKernelRoundTrip:
    def test_put_get(self, tmp_path):
        cache = TuningCache(tmp_path)
        kernel = _compiled()
        key = cache.kernel_key(_program(), CompilerOptions(), {"N": 64})
        assert cache.get_kernel(key) is None
        cache.put_kernel(key, kernel)
        restored = cache.get_kernel(key)
        assert restored is not None
        assert restored.source == kernel.source
        assert [p.name for p in restored.params] == [
            p.name for p in kernel.params
        ]
        assert cache.stats.kernel_hits == 1
        assert cache.stats.kernel_misses == 1

    def test_key_is_alpha_independent(self, tmp_path):
        cache = TuningCache(tmp_path)
        opts, env = CompilerOptions(), {"N": 64}
        assert cache.kernel_key(_program("x"), opts, env) == cache.kernel_key(
            _program("renamed"), opts, env
        )

    def test_key_depends_on_options_and_sizes(self, tmp_path):
        cache = TuningCache(tmp_path)
        prog = _program()
        base = cache.kernel_key(prog, CompilerOptions(), {"N": 64})
        assert base != cache.kernel_key(
            prog, CompilerOptions(local_size=(32, 1, 1)), {"N": 64}
        )
        assert base != cache.kernel_key(prog, CompilerOptions(), {"N": 128})


class TestCorruptAndStale:
    def test_corrupt_kernel_entry_is_a_miss(self, tmp_path):
        cache = TuningCache(tmp_path)
        key = cache.kernel_key(_program(), CompilerOptions(), {"N": 64})
        cache.put_kernel(key, _compiled())
        path = cache._path(key, "kernel")
        path.write_bytes(b"not a pickle at all")
        assert cache.get_kernel(key) is None
        assert cache.stats.quarantined == 1
        assert not path.exists()  # dropped, so the recompile can re-fill
        cache.put_kernel(key, _compiled())
        assert cache.get_kernel(key) is not None

    def test_a_quarantined_entry_is_counted_under_one_name(self, tmp_path):
        cache = TuningCache(tmp_path)
        key = cache.kernel_key(_program(), CompilerOptions(), {"N": 64})
        cache.put_kernel(key, _compiled())
        cache._path(key, "kernel").write_bytes(b"not a pickle at all")
        assert cache.get_kernel(key) is None
        stats = cache.stats.as_dict()
        assert "invalid" not in stats
        assert (stats["quarantined"], stats["corrupt_entries"],
                stats["stale_entries"]) == (1, 1, 0)
        assert set(stats) == {
            f.name for f in dataclasses.fields(cache.stats)
        } | {"kernel_hit_rate", "run_hit_rate"}

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        cache = TuningCache(tmp_path)
        key = cache.kernel_key(_program(), CompilerOptions(), {"N": 64})
        cache.put_kernel(key, _compiled())
        path = cache._path(key, "kernel")
        path.write_bytes(path.read_bytes()[:20])
        assert cache.get_kernel(key) is None

    def test_stale_version_is_a_miss(self, tmp_path):
        cache = TuningCache(tmp_path)
        key = cache.kernel_key(_program(), CompilerOptions(), {"N": 64})
        path = cache._path(key, "kernel")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(
            _frame(key, pickle.dumps(_compiled()), version=CACHE_VERSION + 1)
        )
        assert cache.get_kernel(key) is None
        assert cache.stats.stale_entries == 1
        assert cache.stats.corrupt_entries == 0
        (qfile,) = cache.quarantined_entries()
        assert qfile.name == path.name + ".stale"

    def test_corrupt_cycles_entry_is_a_miss(self, tmp_path):
        cache = TuningCache(tmp_path)
        key = "ab" * 32
        cache.put_cycles(key, 123.0)
        assert cache.get_cycles(key) == 123.0
        cache._path(key, "cycles.json").write_text("{truncated")
        assert cache.get_cycles(key) is None

    def test_cycles_key_mismatch_is_stale(self, tmp_path):
        cache = TuningCache(tmp_path)
        key = "cd" * 32
        path = cache._path(key, "cycles.json")
        cache.root.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_frame("different", b"1.0"))
        assert cache.get_cycles(key) is None
        assert cache.stats.stale_entries == 1
        assert cache.stats.corrupt_entries == 0
        (qfile,) = cache.quarantined_entries()
        assert qfile.name == path.name + ".stale"


class TestFingerprintAndClear:
    def test_fingerprint_sensitive_to_values(self):
        a = {"x": np.arange(8.0)}
        b = {"x": np.arange(8.0) + 1}
        assert fingerprint_inputs(a) != fingerprint_inputs(b)
        assert fingerprint_inputs(a) == fingerprint_inputs(
            {"x": np.arange(8.0)}
        )

    def test_fingerprint_includes_scalars(self):
        assert fingerprint_inputs({"a": 1.5}) != fingerprint_inputs({"a": 2.5})

    def test_clear_removes_entries(self, tmp_path):
        cache = TuningCache(tmp_path)
        key = cache.kernel_key(_program(), CompilerOptions(), {"N": 64})
        cache.put_kernel(key, _compiled())
        cache.put_cycles("ef" * 32, 9.0)
        assert cache.clear() == 2
        assert cache.get_kernel(key) is None


class TestDisabledCache:
    """``cache=None`` at a public entry: misses, stores nothing, hashes
    nothing."""

    def test_fetch_is_a_plain_compute(self, monkeypatch):
        def hashed(*args, **kwargs):
            raise AssertionError("a disabled cache hashed something")

        monkeypatch.setattr(cache_mod, "canonical", hashed)
        monkeypatch.setattr(cache_mod, "fingerprint_inputs", hashed)
        cache = or_disabled(None)
        key = cache.kernel_key(_program(), CompilerOptions(), {"N": 64})
        run_key = cache.run_key(
            key, cache.fingerprint({"x": np.arange(4.0)}), (4,), (4,), None
        )
        calls = []
        for _ in range(2):
            cache.fetch("run", run_key, lambda: calls.append(1) or ("out", None))
        assert len(calls) == 2
        assert cache.get_run(run_key) is None
        assert not any(cache.stats.as_dict().values())

    def test_a_real_cache_is_kept(self, tmp_path):
        cache = TuningCache(tmp_path)
        assert or_disabled(cache) is cache


class TestCompileAndRun:
    """``TuningCache.compile_and_run`` serves from the deepest level that
    holds the answer: the run entry, else the kernel entry (executed),
    else a compile."""

    X = np.arange(16, dtype=float)

    def _call(self, cache, x):
        return cache.compile_and_run(
            lower_to_global(_program()), CompilerOptions(), {"x": x},
            {"N": 16}, (16, 1, 1), (8, 1, 1),
        )

    @pytest.mark.parametrize(
        "stored, compiles, executions",
        [("nothing", 1, 1), ("kernel", 0, 1), ("run", 0, 0)],
    )
    def test_each_level_serves_what_it_holds(
        self, tmp_path, monkeypatch, stored, compiles, executions
    ):
        cache = TuningCache(tmp_path)
        if stored != "nothing":
            # The same inputs leave a run entry; other inputs only the
            # kernel entry.
            self._call(cache, self.X if stored == "run" else self.X + 1.0)
        calls = {"compile": 0, "execute": 0}
        real_compile = cache_mod.compile_kernel
        real_execute = cache_mod.execute_kernel

        def counting_compile(*args, **kwargs):
            calls["compile"] += 1
            return real_compile(*args, **kwargs)

        def counting_execute(*args, **kwargs):
            calls["execute"] += 1
            return real_execute(*args, **kwargs)

        monkeypatch.setattr(cache_mod, "compile_kernel", counting_compile)
        monkeypatch.setattr(cache_mod, "execute_kernel", counting_execute)
        for _ in range(2):  # the second call is served from the run entry
            output, counters = self._call(cache, self.X)
            np.testing.assert_array_equal(
                np.asarray(output).ravel(), 2.0 * self.X
            )
            assert isinstance(counters, Counters)
            assert (calls["compile"], calls["execute"]) == (
                compiles, executions,
            )


class TestSizeCapValidation:
    def test_negative_cap_is_rejected(self, tmp_path):
        # It used to be accepted, and evicted every entry as written.
        with pytest.raises(ValueError, match=r"max_bytes .*non-negative.*-1"):
            TuningCache(tmp_path, max_bytes=-1)

    @pytest.mark.parametrize("value", ["10MB", "1e6", "-5"])
    def test_malformed_environment_cap_names_the_variable(
        self, tmp_path, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", value)
        with pytest.raises(ValueError) as err:
            TuningCache(tmp_path)
        assert "REPRO_CACHE_MAX_BYTES" in str(err.value)
        assert repr(value) in str(err.value)
        assert "non-negative integer number of bytes" in str(err.value)

    def test_environment_cap_is_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        assert TuningCache(tmp_path).max_bytes == 4096
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "")
        assert TuningCache(tmp_path).max_bytes == 0


class TestQuarantineClassification:
    """Failing entries are classified and moved aside, never silently
    unlinked: corrupt (undecodable) vs stale (outdated) vs I/O error."""

    def _cycles_path(self, cache, key="ab" * 32, value=7.0):
        cache.put_cycles(key, value)
        return key, cache._path(key, "cycles.json")

    def test_corrupt_entry_lands_in_quarantine(self, tmp_path):
        cache = TuningCache(tmp_path)
        key, path = self._cycles_path(cache)
        path.write_bytes(b"garbage, no header")
        assert cache.get_cycles(key) is None
        assert not path.exists()
        (qfile,) = cache.quarantined_entries()
        assert qfile.parent.name == QUARANTINE_DIR
        assert qfile.name == path.name + ".corrupt"
        assert cache.stats.corrupt_entries == 1
        assert cache.stats.stale_entries == 0
        assert cache.stats.quarantined == 1

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        cache = TuningCache(tmp_path)
        key, path = self._cycles_path(cache)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip one payload byte under a valid header
        path.write_bytes(bytes(raw))
        assert cache.get_cycles(key) is None
        assert cache.stats.corrupt_entries == 1
        (qfile,) = cache.quarantined_entries()
        assert qfile.name.endswith(".corrupt")

    def test_old_format_version_is_stale(self, tmp_path):
        cache = TuningCache(tmp_path)
        key, path = self._cycles_path(cache)
        body = json.dumps(
            {"version": CACHE_VERSION - 1, "key": key, "cycles": 7.0}
        ).encode()
        digest = hashlib.sha256(body).hexdigest()
        path.write_bytes(f"repro-cache {CACHE_VERSION - 1} {digest}\n".encode() + body)
        assert cache.get_cycles(key) is None
        assert cache.stats.stale_entries == 1
        assert cache.stats.corrupt_entries == 0
        (qfile,) = cache.quarantined_entries()
        assert qfile.name.endswith(".stale")

    @pytest.mark.parametrize("level", LEVELS)
    def test_io_error_is_not_corruption(self, tmp_path, level):
        suffix, stat, _, _ = LEVELS[level]
        cache = TuningCache(tmp_path)
        key = "ab" * 32
        # A directory where the entry file should be: read_bytes raises
        # IsADirectoryError (an OSError), which must count as an I/O
        # miss, not send anything to quarantine.
        path = cache._path(key, suffix)
        path.mkdir(parents=True)
        assert _get(cache, level, key) is None
        stats = cache.stats.as_dict()
        assert stats["io_errors"] == stats[f"{stat}_misses"] == 1
        assert stats[f"{stat}_hits"] == stats["quarantined"] == 0
        assert cache.quarantined_entries() == []
        assert path.is_dir()

    def test_quarantined_entry_can_be_refilled(self, tmp_path):
        cache = TuningCache(tmp_path)
        key, path = self._cycles_path(cache)
        path.write_bytes(b"junk")
        assert cache.get_cycles(key) is None
        cache.put_cycles(key, 9.0)
        assert cache.get_cycles(key) == 9.0
        assert len(cache.quarantined_entries()) == 1

    def test_clear_can_keep_the_quarantine(self, tmp_path):
        cache = TuningCache(tmp_path)
        key, path = self._cycles_path(cache)
        path.write_bytes(b"junk")
        cache.get_cycles(key)
        cache.put_cycles("cd" * 32, 1.0)
        cache.clear(include_quarantine=False)
        assert len(cache.quarantined_entries()) == 1
        cache.clear()
        assert cache.quarantined_entries() == []


class TestEviction:
    """LRU size cap: least-recently-*used* entries go first, hits
    refresh recency, crash-leftover temp files are swept."""

    @staticmethod
    def _fill(cache, names, t0=1_000_000_000.0):
        """Write one cycles entry per name with increasing mtimes."""
        paths = {}
        for i, name in enumerate(names):
            key = hashlib.sha256(name.encode()).hexdigest()
            cache.put_cycles(key, float(i))
            path = cache._path(key, "cycles.json")
            os.utime(path, (t0 + i, t0 + i))
            paths[name] = (key, path)
        return paths

    def test_oldest_entry_evicted_first(self, tmp_path):
        cache = TuningCache(tmp_path)
        paths = self._fill(cache, ["a", "b", "c"])
        entry_size = paths["a"][1].stat().st_size
        cache.max_bytes = int(entry_size * 3.5)
        self._fill(cache, ["d"], t0=2_000_000_000.0)  # triggers eviction
        assert not paths["a"][1].exists()
        assert paths["b"][1].exists()
        assert paths["c"][1].exists()
        assert cache.stats.evictions == 1

    def test_hit_refreshes_recency(self, tmp_path):
        cache = TuningCache(tmp_path)
        paths = self._fill(cache, ["a", "b", "c"])
        assert cache.get_cycles(paths["a"][0]) == 0.0  # refresh "a"
        entry_size = paths["a"][1].stat().st_size
        cache.max_bytes = int(entry_size * 3.5)
        self._fill(cache, ["d"], t0=2_000_000_000.0)
        # "b" is now the least recently used, not "a".
        assert paths["a"][1].exists()
        assert not paths["b"][1].exists()
        assert cache.stats.evictions == 1

    def test_no_cap_means_no_eviction(self, tmp_path):
        cache = TuningCache(tmp_path)  # max_bytes 0 = unlimited
        paths = self._fill(cache, [f"n{i}" for i in range(8)])
        assert all(p.exists() for _, p in paths.values())
        assert cache.stats.evictions == 0

    def test_quarantine_does_not_count_against_the_cap(self, tmp_path):
        cache = TuningCache(tmp_path)
        paths = self._fill(cache, ["a", "b"])
        paths["a"][1].write_bytes(b"junk")
        assert cache.get_cycles(paths["a"][0]) is None  # quarantined
        entry_size = paths["b"][1].stat().st_size
        cache.max_bytes = entry_size * 10
        self._fill(cache, ["c"], t0=2_000_000_000.0)
        assert paths["b"][1].exists()
        assert cache.stats.evictions == 0

    def test_stale_tmp_files_are_swept(self, tmp_path):
        cache = TuningCache(tmp_path)
        cache.root.mkdir(parents=True, exist_ok=True)
        old_tmp = cache.root / ".tmp-crashed"
        old_tmp.write_bytes(b"partial write of a killed process")
        ancient = time.time() - 7200
        os.utime(old_tmp, (ancient, ancient))
        fresh_tmp = cache.root / ".tmp-inflight"
        fresh_tmp.write_bytes(b"a write in progress right now")
        cache.put_cycles("ab" * 32, 1.0)
        assert not old_tmp.exists()
        assert fresh_tmp.exists()

    @staticmethod
    def _crashed_tmp(cache, name):
        tmp = cache.root / name
        tmp.write_bytes(b"partial write of a killed process")
        ancient = time.time() - 7200
        os.utime(tmp, (ancient, ancient))
        return tmp

    def test_uncapped_store_is_swept_by_the_first_write_only(self, tmp_path):
        cache = TuningCache(tmp_path)
        cache.put_cycles("ab" * 32, 1.0)
        leftover = self._crashed_tmp(cache, ".tmp-crashed")
        cache.put_cycles("cd" * 32, 2.0)  # nothing to evict: no scan
        assert leftover.exists()
        TuningCache(tmp_path).put_cycles("ef" * 32, 3.0)
        assert not leftover.exists()

    def test_capped_store_is_swept_by_every_write(self, tmp_path):
        cache = TuningCache(tmp_path, max_bytes=1 << 20)
        cache.put_cycles("ab" * 32, 1.0)
        leftover = self._crashed_tmp(cache, ".tmp-crashed")
        cache.put_cycles("cd" * 32, 2.0)
        assert not leftover.exists()


# ---------------------------------------------------------------------------
# multi-process safety (workers must be module-level for fork/spawn)
# ---------------------------------------------------------------------------

def _hammer_worker(root, worker_id, n_ops):
    """Interleave writes, reads and evictions against a shared store."""
    cache = TuningCache(root, max_bytes=8 * 1024)
    for i in range(n_ops):
        key = hashlib.sha256(f"{worker_id}:{i}".encode()).hexdigest()
        cache.put_cycles(key, float(i))
        value = cache.get_cycles(key)
        # Concurrent eviction may have removed it (a miss), but a
        # present entry must never read back wrong.
        assert value is None or value == float(i)
    assert cache.stats.quarantined == 0


def _sigkill_worker(root):
    """Write large run entries forever (until killed)."""
    cache = TuningCache(root)
    payload = np.arange(250_000, dtype=np.float64)  # ~2 MB per entry
    i = 0
    while True:
        key = hashlib.sha256(f"victim:{i}".encode()).hexdigest()
        cache.put_run(key, payload, Counters())
        i += 1


class TestMultiProcessSafety:
    def test_concurrent_writer_hammer(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer_worker, args=(tmp_path, w, 25))
            for w in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # Every surviving entry must validate cleanly in a fresh cache.
        cache = TuningCache(tmp_path)
        suffix = ".cycles.json"
        keys = [
            p.name[: -len(suffix)]
            for p in tmp_path.iterdir()
            if p.name.endswith(suffix)
        ]
        assert keys, "the hammer must leave some entries behind"
        for key in keys:
            assert cache.get_cycles(key) is not None
        assert cache.stats.quarantined == 0
        assert cache.quarantined_entries() == []

    def test_sigkill_mid_write_leaves_no_corrupt_entries(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_sigkill_worker, args=(tmp_path,))
        proc.start()
        try:
            deadline = time.time() + 30
            while time.time() < deadline:
                if len(list(tmp_path.glob("*.run"))) >= 2:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("writer produced no entries before the deadline")
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=30)
        # Atomic rename means every visible .run entry is complete; the
        # kill can leave at most a stale .tmp- file (swept later).
        cache = TuningCache(tmp_path)
        runs = sorted(tmp_path.glob("*.run"))
        assert runs
        for path in runs:
            key = path.name[: -len(".run")]
            result = cache.get_run(key)
            assert result is not None
            output, counters = result
            np.testing.assert_array_equal(
                output, np.arange(250_000, dtype=np.float64)
            )
        assert cache.stats.quarantined == 0
        assert cache.quarantined_entries() == []
        # And the survivor store stays fully functional.
        cache.put_cycles("ab" * 32, 3.0)
        assert cache.get_cycles("ab" * 32) == 3.0


def test_only_the_cache_module_stores_entries():
    """Clients ask the cache for results (``fetch``); a ``put_*`` call
    anywhere else is a hand-written copy of lookup -> compute -> store."""
    import re
    from pathlib import Path

    import repro

    calls = re.compile(r"\.put_(kernel|cycles|run)\(")
    offenders = [
        str(path)
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        if path.name != "cache.py" and calls.search(path.read_text())
    ]
    assert offenders == []


class TestMalformedHeaders:
    """Entries whose header or payload is damaged are corrupt: a miss,
    quarantined as such."""

    KEY = "cd" * 32

    @pytest.mark.parametrize("header, payload", [
        (lambda key: f"repro-cache vX {key} 00", b"{}"),
        (lambda key: f"repro-cache {CACHE_VERSION} {key}", b"{}"),
        (lambda key: f"repro-cache {CACHE_VERSION} {key} "
                     + hashlib.sha256(b"\x80 not json").hexdigest(), b"\x80 not json"),
    ], ids=["version field", "header arity", "undecodable payload"])
    def test_a_damaged_entry_is_a_corrupt_miss(self, tmp_path, header, payload):
        cache = TuningCache(tmp_path)
        path = cache._path(self.KEY, "cycles.json")
        path.write_bytes(header(self.KEY).encode() + b"\n" + payload)
        assert cache.get_cycles(self.KEY) is None
        assert cache.stats.corrupt_entries == 1
        (qfile,) = cache.quarantined_entries()
        assert qfile.name.endswith(".corrupt")

    def test_the_store_follows_the_environment(self, tmp_path, monkeypatch):
        from repro.cache import default_cache_dir

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert default_cache_dir() == tmp_path / "store"
