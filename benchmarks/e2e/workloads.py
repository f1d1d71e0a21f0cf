"""The five workloads.

Each does a fixed amount of work per iteration, split into *ops*; an op
fails on an exception, on an output that differs from the NumPy oracle
(never from a result of the compiler under test), or when its
deterministic digest differs from the same op in iteration 0.  The
program is reached through public functions only; every call is wrapped
in a span of the harness's recorder, which is a no-op in untraced
children.
"""

from __future__ import annotations

import hashlib
import random
import re
import shutil
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

from repro import obs
from repro.backend import LEDGER, CompileUnsupported, get_backend
from repro.benchsuite.common import get_benchmark
from repro.benchsuite.explore import explore_benchmark
from repro.benchsuite.figure8 import measure_benchmark
from repro.cache import TuningCache
from repro.compiler.codegen import clear_compile_memo, compile_kernel
from repro.compiler.kernel import execute_kernel
from repro.compiler.options import OPTIMIZATION_LEVELS, CompilerOptions
from repro.ir.structural import canonical
from repro.ir.typecheck import infer_types
from repro.opencl import Buffer, Counters, OpenCLProgram, launch
from repro.opencl.cost import DEVICES, estimate_cycles
from repro.opencl.cparser import parse
from repro.opencl.lexer import tokenize
from repro.rewrite.explore import ExploreConfig, explore_program

import metrics as M
from spans import served_backend

NVIDIA = DEVICES["nvidia"]

# The two hand-written kernels of benchmarks/bench_simulator.py at the
# sizes this benchmark launches them: elementwise (fused wins 2.5x) and
# barrier reduction (fused loses).
SAXPY_SOURCE = """
kernel void SAXPY(const global float * restrict x,
                  const global float * restrict y,
                  global float *out, float a, int n) {
  int i = get_global_id(0);
  if (i < n) { out[i] = a * x[i] + y[i]; }
}
"""
SAXPY_N = 65536
REDUCE_SOURCE = """
kernel void REDUCE(const global float * restrict x, global float *out) {
  local float tmp[64];
  int l = get_local_id(0);
  tmp[l] = x[get_global_id(0)];
  barrier(CLK_LOCAL_MEM_FENCE);
  for (int s = 32; s > 0; s = s / 2) {
    if (l < s) { tmp[l] = tmp[l] + tmp[l + s]; }
    barrier(CLK_LOCAL_MEM_FENCE);
  }
  if (l < 1) { out[get_group_id(0)] = tmp[0]; }
}
"""
REDUCE_N = 16384
HAND_LOCAL = 64

#: Launches per engine and iteration of ``sim_vector``, chosen from the
#: per-launch medians on the 2-core box (README) so that every kernel
#: takes 5-20 % of the pass and none exceeds 25 %.
SIM_REPEATS = {
    "nbody-nvidia": 1, "nbody-amd": 1, "md": 8, "kmeans": 30, "nn": 60,
    "mriq": 4, "convolution": 20, "mm-amd": 25, "mm-nvidia": 15,
    "saxpy": 60, "reduce": 8,
}

EXPLORE_BENCHMARKS = ("nn", "gemv", "mm")
EXPLORE_DEPTH = 3
EXPLORE_MAX_EVAL = 12


# The compiler numbers the variables it declares from a process-global
# counter, so the raw text (and length) of a kernel depends on what was
# compiled before it and on thread interleaving in the explorer's pool;
# and it orders the terms of a sum by those names, so `l_id_9 + i_10`
# may come out as `i_11 + l_id_12` the next time.
_NAME_COUNTER = re.compile(r"_\d+\b")


def normal_source(source: str) -> str:
    """Kernel text with the name counters stripped: repeats exactly."""
    return _NAME_COUNTER.sub("_", source)


def code_size(source: str) -> int:
    return len(normal_source(source))


def _sha(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    """Hash of generated text that survives renumbering and reordering:
    over the histogram of its characters, name counters stripped."""
    chars = np.frombuffer(normal_source(text).encode(), dtype=np.uint8)
    return hashlib.sha1(np.bincount(chars, minlength=256)).hexdigest()[:16]


def _counters_digest(counters) -> tuple:
    return tuple(sorted(vars(counters).items()))


def _matches_oracle(out, expected, rtol) -> bool:
    expected = np.asarray(expected, dtype=float).ravel()
    out = np.asarray(out, dtype=float).ravel()
    return out.shape == expected.shape and np.allclose(
        out, expected, rtol=rtol, atol=1e-7
    )


class Workload:
    """Base: op accounting, digests, and launch attribution."""

    def __init__(self, seed: int, rec, tmp: Path):
        self.seed = seed
        self.rec = rec
        self.tmp = tmp
        self.failures: list = []
        #: op key -> digest, from iteration 0
        self._digests: dict = {}
        self._pending: list = []
        # traced-only accounting
        self.run_items = {b: 0 for b in M.BACKENDS}
        self.launches = {b: 0 for b in M.BACKENDS}
        self.declines = 0
        self.counts: dict = {}

    def shuffled(self, names) -> list:
        order = list(names)
        random.Random(self.seed).shuffle(order)
        return order

    # -- op accounting ---------------------------------------------------
    def op(self, key, digest, ok=True, count=1, why="") -> None:
        """Record ``count`` ops sharing one digest; a callable digest is
        evaluated by :meth:`take_ops`, after the clock has stopped."""
        self._pending.append((key, digest, ok, count, why))

    def op_raised(self, key, exc, count=1) -> None:
        self.op(key, None, ok=False, count=count,
                why=f"{type(exc).__name__}: {exc}"[:300])

    def digest(self) -> str:
        """One hash over every op's digest: equal between children of
        one workload and seed, traced or not."""
        return _sha(repr(sorted(
            (repr(k), repr(v)) for k, v in self._digests.items()
        )))

    def take_ops(self) -> tuple:
        """Settle the ops recorded since the last call: (attempted,
        failed).  An op also fails when its digest differs from the
        same op's in iteration 0."""
        attempted = failed = 0
        for key, digest, ok, count, why in self._pending:
            attempted += count
            if callable(digest):
                digest = digest()
            if ok and self._digests.setdefault(key, digest) != digest:
                ok, why = False, "digest differs from iteration 0"
            if not ok:
                failed += count
                if len(self.failures) < 20:
                    self.failures.append(f"{key}: {why}")
        self._pending.clear()
        return attempted, failed

    # -- launches --------------------------------------------------------
    def launches_of(self, fn, items: int, repeat: int = 1):
        """Run ``fn`` ``repeat`` times, each in a ``backend.<b>.run``
        span named after the backend that served it (the delta of the
        ``launch.served.<b>`` counters around the group: one kernel
        under one engine lands on one backend).  Returns the last
        result and, when traced, the spans."""
        if not self.rec.enabled:
            for _ in range(repeat):
                result = fn()
            return result, ()
        before = obs.snapshot()["counters"]
        declined = LEDGER.total()
        entries = []
        for _ in range(repeat):
            with self.rec.span("backend.run") as entry:
                result = fn()
            entries.append(entry)
        backend = served_backend(before, obs.snapshot()["counters"])
        for entry in entries:
            entry[0] = f"backend.{backend}.run"
        self.launches[backend] += repeat
        self.run_items[backend] += items * repeat
        self.declines += LEDGER.total() - declined
        return result, entries

    def bump(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- protocol --------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def iterate(self, i: int) -> None:
        raise NotImplementedError

    def finish(self) -> tuple:
        """Untimed, after the last iteration: ``(sim_cycles,
        code_bytes)``, with any further checks recorded as ops."""
        raise NotImplementedError

    def layer_extras(self) -> dict:
        """Traced only: layer metrics not derived from spans."""
        return {}


def run_stages(w: Workload, bench, inputs, size_env, factory) -> tuple:
    """The public-function sequence ``Benchmark.run_generated`` stands
    for — per stage build, compile, parse, execute — with a span around
    each call.  Returns (output, merged counters)."""
    rec = w.rec
    counters = Counters()
    prev = None
    for stage in bench.stages:
        with rec.span("ir.build"):
            fun = stage.build(size_env)
        options = factory(local_size=stage.local_size)
        stage_inputs = {
            p.name: prev if name == "__prev" else inputs[name]
            for p, name in zip(fun.params, stage.param_names)
        }
        with rec.span("compiler.compile"):
            compiled = compile_kernel(fun, options)
        with rec.span("opencl.cparser.parse"):
            OpenCLProgram(compiled.source)
        gsize = stage.global_size(size_env)
        result, _ = w.launches_of(
            lambda: execute_kernel(
                compiled, stage_inputs, size_env, gsize,
                local_size=stage.local_size, engine="auto",
            ),
            items=int(np.prod(gsize)),
        )
        counters = counters.merged_with(result.counters)
        prev = result.output
    return prev, counters


class Fig8Small(Workload):
    def prepare(self) -> None:
        self.order = self.shuffled(M.FIG8_BENCHMARKS)
        self.benches = {n: get_benchmark(n) for n in self.order}

    def iterate(self, i: int) -> None:
        for name in self.order:
            bench = self.benches[name]
            try:
                if self.rec.enabled:
                    with self.rec.span(f"fig8.{name}"):
                        cells = self._measure_traced(bench)
                else:
                    cells = [
                        (c.level, c.device, c.reference_cycles,
                         c.generated_cycles)
                        for c in measure_benchmark(
                            bench, "small", self.seed, cache=None,
                            engine="auto",
                        )
                    ]
            except Exception as exc:  # an op fails, the pass goes on
                self.op_raised(name, exc)
                continue
            self.op(name, tuple(cells))

    def _measure_traced(self, bench) -> list:
        """``measure_benchmark`` spelled out in public calls; the parent
        checks that its cells equal the untraced child's."""
        rec = self.rec
        with rec.span("benchsuite.inputs"):
            inputs, size_env = bench.inputs_for("small", self.seed)
        with rec.span("benchsuite.oracle"):
            expected = bench.oracle(inputs, size_env)
        with rec.span("benchsuite.reference"):
            ref_out, ref_counters = bench.run_reference(
                inputs, size_env, cache=None, engine="auto"
            )
        with rec.span("benchsuite.oracle"):
            np.testing.assert_allclose(
                ref_out, expected, rtol=bench.rtol, atol=1e-7
            )
        cells = []
        for level, factory in OPTIMIZATION_LEVELS.items():
            out, counters = run_stages(
                self, bench, inputs, size_env, factory
            )
            with rec.span("benchsuite.oracle"):
                np.testing.assert_allclose(
                    out, expected, rtol=bench.rtol, atol=1e-7
                )
            with rec.span("opencl.cost.estimate"):
                for device, profile in DEVICES.items():
                    cells.append((
                        level, device,
                        estimate_cycles(ref_counters, profile),
                        estimate_cycles(counters, profile),
                    ))
        return cells

    def finish(self) -> tuple:
        cycles = sum(
            gen for name in self.order
            for _level, device, _ref, gen in self._digests.get(name, ())
            if device == "nvidia"
        )
        code = 0
        for name in self.order:
            bench = self.benches[name]
            size_env = dict(bench.sizes["small"])
            for factory in OPTIMIZATION_LEVELS.values():
                for stage in bench.stages:
                    code += code_size(compile_kernel(
                        stage.build(size_env),
                        factory(local_size=stage.local_size),
                    ).source)
        return cycles, code


class _SimKernel(NamedTuple):
    """One pre-compiled kernel of ``sim_vector``."""

    name: str
    run: Callable  # engine -> (output, counters) of one launch
    items: int
    expected: np.ndarray
    rtol: float
    source: str


class SimVector(Workload):
    ENGINES = ("auto", "fused")

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        kernels = [self._bench_kernel(n) for n in M.SIM_BENCHMARKS]
        x = rng.standard_normal(SAXPY_N)
        y = rng.standard_normal(SAXPY_N)
        kernels.append(self._hand_kernel(
            "saxpy", SAXPY_SOURCE, SAXPY_N, SAXPY_N,
            {"x": x, "y": y, "a": 2.5, "n": SAXPY_N}, 2.5 * x + y,
        ))
        r = rng.standard_normal(REDUCE_N)
        kernels.append(self._hand_kernel(
            "reduce", REDUCE_SOURCE, REDUCE_N, REDUCE_N // HAND_LOCAL,
            {"x": r}, r.reshape(-1, HAND_LOCAL).sum(axis=1),
        ))
        by_name = {k.name: k for k in kernels}
        self.kernels = [by_name[n] for n in self.shuffled(M.SIM_KERNELS)]
        #: (kernel, engine) -> per-launch seconds, traced only
        self.launch_s: dict = {}
        self.counters: dict = {}

    def _plan(self, source: str, kernel_name: str) -> None:
        """Parse and plan in set-up, so the timed launches find both
        plans cached on the shared parsed program."""
        program = OpenCLProgram(source)
        kernel = program.kernel(kernel_name)
        for backend in ("compiled", "fused"):
            get_backend(backend).plan(program.parsed, kernel)

    def _bench_kernel(self, name: str) -> _SimKernel:
        bench = get_benchmark(name)
        inputs, size_env = bench.inputs_for("large", self.seed)
        (stage,) = bench.stages
        fun = stage.build(size_env)
        compiled = compile_kernel(
            fun, CompilerOptions.all(local_size=stage.local_size)
        )
        self._plan(compiled.source, compiled.name)
        stage_inputs = {
            p.name: inputs[n] for p, n in zip(fun.params, stage.param_names)
        }
        gsize = stage.global_size(size_env)

        def run(engine):
            result = execute_kernel(
                compiled, stage_inputs, size_env, gsize,
                local_size=stage.local_size, engine=engine,
            )
            return result.output, result.counters

        return _SimKernel(
            name, run, int(np.prod(gsize)), bench.oracle(inputs, size_env),
            bench.rtol, compiled.source,
        )

    def _hand_kernel(self, name, source, n, out_count, args, expected):
        self._plan(source, name.upper())
        program = OpenCLProgram(source)
        buffers = {
            k: Buffer.from_array(v) if isinstance(v, np.ndarray) else v
            for k, v in args.items()
        }

        def run(engine):
            out = Buffer.zeros(out_count)
            counters = launch(
                program, n, HAND_LOCAL, {**buffers, "out": out},
                engine=engine,
            )
            return out.data, counters

        return _SimKernel(name, run, n, expected, 1e-9, source)

    def iterate(self, i: int) -> None:
        for k in self.kernels:
            for engine in self.ENGINES:
                repeat = SIM_REPEATS[k.name]
                try:
                    (out, counters), entries = self.launches_of(
                        lambda: k.run(engine), k.items, repeat
                    )
                    with self.rec.span("benchsuite.oracle"):
                        ok = _matches_oracle(out, k.expected, k.rtol)
                except Exception as exc:
                    self.op_raised(k.name, exc, repeat)
                    continue
                # One key per kernel: auto and fused must count alike.
                self.op(k.name, _counters_digest(counters), ok, repeat,
                        "output differs from the oracle")
                self.counters[k.name] = counters
                self.launch_s.setdefault((k.name, engine), []).extend(
                    end - start for _n, start, end, _p, _i in entries
                )

    def finish(self) -> tuple:
        cycles = sum(
            estimate_cycles(c, NVIDIA) for c in self.counters.values()
        )
        return cycles, sum(code_size(k.source) for k in self.kernels)

    def layer_extras(self) -> dict:
        return {
            f"sim.{name}.{engine}_ms": float(np.median(samples)) * 1e3
            for (name, engine), samples in self.launch_s.items()
        }


class CompileAll(Workload):
    def prepare(self) -> None:
        self.order = self.shuffled(M.FIG8_BENCHMARKS)
        self.benches = {n: get_benchmark(n) for n in self.order}

    def iterate(self, i: int) -> None:
        for name in self.order:
            bench = self.benches[name]
            for size in ("small", "large"):
                size_env = dict(bench.sizes[size])
                for s, stage in enumerate(bench.stages):
                    for level, factory in OPTIMIZATION_LEVELS.items():
                        key = (name, size, s, level)
                        try:
                            digest = self._compile(stage, size_env, factory)
                        except Exception as exc:
                            self.op_raised(key, exc)
                            continue
                        self.op(key, digest)

    def _compile(self, stage, size_env, factory):
        """One op; returns its digest, to be evaluated off the clock."""
        rec = self.rec
        with rec.span("ir.build"):
            fun = stage.build(size_env)
        with rec.span("ir.typecheck"):
            infer_types(fun.body)
        with rec.span("ir.canonical"):
            form = canonical(fun)
        with rec.span("compiler.compile"):
            compiled = compile_kernel(
                fun, factory(local_size=stage.local_size), memo=False
            )
        with rec.span("opencl.lexer.tokenize"):
            tokens = tokenize(compiled.source)
        with rec.span("opencl.cparser.parse"):
            parsed = parse(compiled.source)
        kernel = parsed.functions[compiled.name]
        declined = []
        for backend, span in (
            ("compiled", "opencl.simt_compile.plan"),
            ("fused", "backend.fused.plan"),
        ):
            with rec.span(span):
                try:
                    get_backend(backend).plan(parsed, kernel)
                except CompileUnsupported:
                    declined.append(backend)
        if rec.enabled:
            self.bump("compiler.kernels")
            self.bump("opencl.lexer.tokens", len(tokens))
            for backend in declined:
                self.bump(f"backend.{backend}.plan_declines")
        source, n_tokens = compiled.source, len(tokens)
        # Type inference names Iterate's size variable from a counter too.
        return lambda: (
            code_size(source), text_digest(source), text_digest(form),
            n_tokens, tuple(declined),
        )

    def finish(self) -> tuple:
        """Launch every level-``all`` small kernel once against the
        oracle; their counters give ``sim_cycles``."""
        cycles = 0.0
        for name in self.order:
            bench = self.benches[name]
            try:
                inputs, size_env = bench.inputs_for("small", self.seed)
                out, counters = run_stages(
                    self, bench, inputs, size_env, CompilerOptions.all
                )
                ok = _matches_oracle(
                    out, bench.oracle(inputs, size_env), bench.rtol
                )
            except Exception as exc:
                self.op_raised(("verify", name), exc)
                continue
            self.op(("verify", name), _counters_digest(counters), ok,
                    why="output differs from the oracle")
            cycles += estimate_cycles(counters, NVIDIA)
        return cycles, self.code_bytes()

    def code_bytes(self) -> int:
        return sum(
            digest[0] for key, digest in self._digests.items()
            if key[0] != "verify"
        )

    def layer_extras(self) -> dict:
        return {"compiler.code_bytes": self.code_bytes()}


class Explore(Workload):
    """``explore_cold`` and ``explore_warm``: the same three calls
    against an empty cache per call, or one filled during set-up."""

    STAT_FAILURES = (
        "compile_failures", "verify_failures", "simulate_failures",
        "infra_failures", "timeouts", "cancelled",
    )

    def __init__(self, seed, rec, tmp, warm: bool):
        super().__init__(seed, rec, tmp)
        self.warm = warm
        self.entries: dict = {}
        self.cache_dirs: dict = {}
        self.recoveries = 0

    def prepare(self) -> None:
        self.order = self.shuffled(EXPLORE_BENCHMARKS)
        if self.warm:
            for name in self.order:
                self._explore(name, self.tmp / "warm")

    def _explore(self, name: str, cache_dir: Path) -> dict:
        cache = TuningCache(cache_dir)
        with self.rec.span("rewrite.explore_benchmark"):
            entry = explore_benchmark(
                name, depth=EXPLORE_DEPTH, max_eval=EXPLORE_MAX_EVAL,
                cache=cache,
            )
        stats = cache.stats
        self.recoveries += (
            stats.quarantined + stats.io_errors + stats.write_skips
        )
        self.cache_dirs[name] = cache_dir
        return entry

    def iterate(self, i: int) -> None:
        if not self.warm:
            clear_compile_memo()
        for name in self.order:
            if self.warm:
                cache_dir = self.tmp / "warm"
            else:
                cache_dir = self.tmp / f"cold-{i}-{name}"
                stale = self.cache_dirs.get(name)
                if stale is not None:
                    shutil.rmtree(stale, ignore_errors=True)
            try:
                entry = self._explore(name, cache_dir)
            except Exception as exc:
                self.op_raised(name, exc, EXPLORE_MAX_EVAL)
                continue
            stats = entry["stats"]
            failed = sum(stats[k] for k in self.STAT_FAILURES)
            digest = (
                entry["explorer_best_runtime"], entry["explorer_best_cycles"],
                tuple(entry["explorer_best_trace"]),
                entry["winner_static_rank"], entry["menu_best_runtime"],
                entry["menu_best_label"], stats["enumerated"],
                stats["evaluated"], stats["compilations"],
                stats["executions"],
            )
            self.op(name, digest, count=stats["evaluated"])
            if failed:
                self.op((name, "failures"), None, ok=False, count=failed,
                        why=f"{failed} candidate(s) failed")
            self.entries[name] = entry
            if self.rec.enabled:
                self.bump("rewrite.explore.s", entry["explore_seconds"])
                self.bump("rewrite.autotune.menu_s", entry["menu_seconds"])

    def finish(self) -> tuple:
        """The winners again, through ``explore_program`` on the now
        warm caches, for their kernel source; they must be the ones the
        timed calls reported."""
        cycles = 0.0
        code = 0
        for name in self.order:
            entry = self.entries.get(name)
            if entry is None:
                continue
            bench = get_benchmark(name)
            inputs, size_env = bench.inputs_for("small")
            result = explore_program(
                bench.high_level(size_env), inputs, size_env,
                config=ExploreConfig(
                    depth=EXPLORE_DEPTH, max_eval=EXPLORE_MAX_EVAL,
                    workload=name,
                ),
                cache=TuningCache(self.cache_dirs[name]),
            )
            best = result.best()
            same = (
                not result.failures
                and best.runtime == entry["explorer_best_runtime"]
                and list(best.trace) == entry["explorer_best_trace"]
            )
            self.op(("winner", name), text_digest(best.kernel_source), same,
                    why="explore_program disagrees with explore_benchmark")
            cycles += best.runtime
            code += code_size(best.kernel_source)
        return cycles, code

    def layer_extras(self) -> dict:
        entries = [self.entries[n] for n in self.order if n in self.entries]
        if not entries:
            return {}
        stats = [e["stats"] for e in entries]

        def total(key):
            return sum(s[key] for s in stats)

        def rate(hits, misses):
            h, m = total(hits), total(misses)
            return h / (h + m) if h + m else 0.0

        extras = {
            "rewrite.explore.enumerated": total("enumerated"),
            "rewrite.explore.evaluated": total("evaluated"),
            "rewrite.explore.compilations": total("compilations"),
            "rewrite.explore.executions": total("executions"),
            "rewrite.explore.dedup_hit_rate":
                total("dedup_hits") / total("enumerated"),
            "rewrite.explore.best_runtime": float(np.exp(np.mean(
                [np.log(e["explorer_best_runtime"]) for e in entries]
            ))),
            "rewrite.explore.winner_static_rank":
                max(e["winner_static_rank"] for e in entries),
            "cache.kernel_hit_rate":
                rate("kernel_cache_hits", "kernel_cache_misses"),
            "cache.cycle_hit_rate":
                rate("cycle_cache_hits", "cycle_cache_misses"),
            "cache.recoveries": self.recoveries,
        }
        extras.update(self._cache_calls())
        return extras

    def _cache_calls(self) -> dict:
        """Per-call medians of the cache's public API over the entries
        this workload left on disk (``<key>.<kind>`` under the cache
        root), written again into a scratch cache."""
        samples: dict = {}

        def timed(label, fn, *args):
            start = perf_counter()
            result = fn(*args)
            samples.setdefault(label, []).append(perf_counter() - start)
            return result

        scratch = TuningCache(self.tmp / "cache-calls")
        on_disk = 0
        # explore_warm shares one directory, explore_cold has one each.
        for root in sorted(set(self.cache_dirs.values())):
            cache = TuningCache(root)
            for path in sorted(p for p in root.iterdir() if p.is_file()):
                on_disk += path.stat().st_size
                key, _, kind = path.name.partition(".")
                if kind == "kernel":
                    kernel = timed("get_kernel_hit", cache.get_kernel, key)
                    timed("get_kernel_miss", scratch.get_kernel, key)
                    timed("put_kernel", scratch.put_kernel, key, kernel)
                elif kind == "cycles.json":
                    cycles = timed("get_cycles_hit", cache.get_cycles, key)
                    timed("put_cycles", scratch.put_cycles, key, cycles)
        # No workload stores run entries (figure8 runs with cache=None):
        # time them on each explored benchmark's oracle output.
        for name in self.order:
            bench = get_benchmark(name)
            inputs, size_env = bench.inputs_for("small")
            output = np.asarray(bench.oracle(inputs, size_env), dtype=float)
            key = scratch.run_key(_sha(name), "fp", (64,), (64,), None)
            timed("put_run", scratch.put_run, key, output, Counters())
            timed("get_run_hit", scratch.get_run, key)
        extras = {
            f"cache.{label}_ms": float(np.median(values)) * 1e3
            for label, values in samples.items()
        }
        extras["cache.bytes_on_disk"] = on_disk
        return extras


def make(name: str, seed: int, rec, tmp: Path) -> Workload:
    if name == "fig8_small":
        return Fig8Small(seed, rec, tmp)
    if name == "sim_vector":
        return SimVector(seed, rec, tmp)
    if name == "compile_all":
        return CompileAll(seed, rec, tmp)
    if name in ("explore_cold", "explore_warm"):
        return Explore(seed, rec, tmp, warm=name == "explore_warm")
    raise ValueError(f"unknown workload {name!r}")
