"""Integration tests over the benchmark suite.

Every benchmark's differential-testing contract: NumPy oracle ≡
hand-written reference kernel on the simulator ≡ generated kernel on the
simulator (at every optimization level for a representative subset).
"""

import numpy as np
import pytest

from repro.compiler.options import OPTIMIZATION_LEVELS
from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark
from repro.benchsuite.figure6 import check_figure6, figure6_trace
from repro.benchsuite.figure8 import measure_benchmark
from repro.benchsuite.table1 import run_table1


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_benchmark_correctness_small(name):
    get_benchmark(name).verify("small")


@pytest.mark.parametrize("name", ["nn", "gemv", "convolution", "mm-amd"])
def test_benchmark_correct_at_every_level(name):
    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    expected = bench.oracle(inputs, size_env)
    for level_name, factory in OPTIMIZATION_LEVELS.items():
        out, _ = bench.run_generated(inputs, size_env, options_factory=factory)
        np.testing.assert_allclose(
            out, expected, rtol=bench.rtol, atol=1e-7,
            err_msg=f"{name} wrong at level {level_name}",
        )


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_high_level_program_semantics(name):
    """The portable high-level IL evaluates to the oracle's answer on the
    reference interpreter (for interpreter-friendly sizes)."""
    from repro.ir.interp import apply_fun
    from repro.ir.nodes import Param
    from repro.types import ArrayType, VectorType

    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    if name in ("nbody-nvidia", "nbody-amd", "mriq", "md"):
        pytest.skip("vector-heavy interpreters covered by dedicated tests")
    program = bench.high_level(size_env)

    stage = bench.stages[0]
    args = []
    for p, pname in zip(program.params, stage.param_names):
        value = inputs[pname]
        if isinstance(value, np.ndarray):
            t = p.type
            if isinstance(t, ArrayType) and isinstance(t.elem, ArrayType):
                rows = int(
                    np.prod(value.shape[:-1])
                    if value.ndim > 1
                    else len(value) // int(t.elem.length.evaluate(size_env))
                )
                args.append(np.asarray(value).reshape(rows, -1).tolist())
            else:
                args.append(np.asarray(value).ravel().tolist())
        else:
            args.append(value)
    result = apply_fun(program, args, size_env)
    flat = np.asarray(result, dtype=float).ravel()
    expected = bench.oracle(inputs, size_env)
    np.testing.assert_allclose(flat, expected, rtol=1e-6, atol=1e-7)


def test_table1_has_all_rows():
    rows = run_table1()
    assert [r.benchmark for r in rows] == ALL_BENCHMARKS
    for row in rows:
        assert row.loc_opencl > 0
        assert row.loc_high_level > 0
        assert row.loc_low_level >= row.loc_high_level


def test_figure6_lands_on_paper_line3():
    assert check_figure6()
    trace = figure6_trace()
    # The raw expression is dramatically longer than the simplified one.
    assert len(str(trace.raw)) > 4 * len(str(trace.simplified))


def test_figure8_cells_structure():
    cells = measure_benchmark(get_benchmark("nn"), "small")
    assert len(cells) == 6  # 3 levels x 2 devices
    assert {c.level for c in cells} == {"none", "barrier_cf", "all"}
    assert {c.device for c in cells} == {"nvidia", "amd"}
    for cell in cells:
        assert cell.relative_performance > 0


def test_optimizations_never_hurt_for_gemv():
    cells = measure_benchmark(get_benchmark("gemv"), "small")
    by_level = {}
    for c in cells:
        by_level.setdefault(c.level, []).append(c.relative_performance)
    assert np.mean(by_level["all"]) >= np.mean(by_level["barrier_cf"])
    assert np.mean(by_level["barrier_cf"]) >= np.mean(by_level["none"]) - 1e-9


def _generated_counters_at_all(bench):
    inputs, size_env = bench.inputs_for("small")
    _, reference = bench.run_reference(inputs, size_env)
    _, generated = bench.run_generated(inputs, size_env)
    return reference, generated


@pytest.mark.parametrize("name", ["gemv", "atax", "gesummv"])
def test_iterate_benchmarks_execute_the_references_barriers(name):
    """One barrier per ``iterate`` step, as in the hand-written tree
    reductions (10 per work-group pass before, against their 6)."""
    reference, generated = _generated_counters_at_all(get_benchmark(name))
    assert generated.barriers == reference.barriers


def test_nbody_amd_keeps_its_own_position_in_a_register():
    from repro.compiler import compile_kernel

    bench = get_benchmark("nbody-amd")
    (stage,) = bench.stages
    kernel = compile_kernel(
        stage.build(dict(bench.sizes["small"])),
        OPTIMIZATION_LEVELS["all"](local_size=stage.local_size),
    )
    assert not [p.name for p in kernel.params if p.kind == "temp_buffer"]
    assert "g_tmp" not in kernel.source
    reference, generated = _generated_counters_at_all(bench)
    assert generated.cached_loads == reference.cached_loads == 512


def test_md_and_mriq_load_their_own_operands_once():
    """``compiler/hoist.py``: the per-work-item operands of the inner
    loop are loaded before it, as in the hand-written kernels (9 856 and
    24 192 cached re-loads before)."""
    for name in ("md", "mriq"):
        reference, generated = _generated_counters_at_all(get_benchmark(name))
        assert generated.cached_loads == 0
        assert generated.global_loads == reference.global_loads


def test_gesummv_derives_its_row_index_once():
    reference, generated = _generated_counters_at_all(get_benchmark("gesummv"))
    assert reference.iops == 45440  # what the hand-written kernel spends
    assert generated.iops <= 60416  # 83 904 before the pass


#: Quick enough on the per-work-item scalar oracle for tier-1.
_ALSO_ON_SCALAR = ("md", "nn", "mm-amd", "mm-nvidia")


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_hoisting_only_ever_removes_work(name, fault_free, monkeypatch):
    """The differential for ``compiler/hoist.py``, which has no switch:
    every stage at both sizes and all three levels, printed before the
    pass and after it (applied to the parsed text), launched on the
    strict ``compiled`` engine — and the small size of the quicker
    benchmarks on the scalar oracle too.  Buffers are bitwise equal and
    no ``Counters`` field rises."""
    from dataclasses import replace

    from repro.backend import ledger
    from repro.compiler.codegen import compile_kernel
    from repro.compiler.kernel import execute_kernel
    from repro.obs import metrics
    from tests.programs import (
        compile_unhoisted,
        hoisted_source,
        restart_variable_names,
    )

    bench = get_benchmark(name)
    ledger.clear()
    scalar_before = metrics.REGISTRY.counter("launch.served.scalar")
    for size in ("small", "large"):
        engines = ["compiled"]
        if size == "small" and name in _ALSO_ON_SCALAR:
            engines.append("scalar")
        inputs, size_env = bench.inputs_for(size)
        for factory in OPTIMIZATION_LEVELS.values():
            previous = dict.fromkeys(engines)
            for stage in bench.stages:
                fun = stage.build(size_env)
                options = factory(local_size=stage.local_size)
                restart_variable_names(monkeypatch)
                plain = compile_unhoisted(fun, options)
                hoisted = replace(
                    plain, source=hoisted_source(plain.source, plain.params)
                )
                # The pass inside the compiler and the pass on the parsed
                # text are the same function of the same tree.
                restart_variable_names(monkeypatch)
                in_compiler = compile_kernel(fun, options, memo=False)
                assert hoisted.source == in_compiler.source
                for engine in engines:
                    stage_inputs = {
                        p.name: previous[engine] if key == "__prev" else inputs[key]
                        for p, key in zip(fun.params, stage.param_names)
                    }
                    before, after = (
                        execute_kernel(
                            kernel, stage_inputs, size_env,
                            stage.global_size(size_env), stage.local_size,
                            engine=engine,
                        )
                        for kernel in (plain, hoisted)
                    )
                    assert after.output.tobytes() == before.output.tobytes()
                    for field, count in vars(after.counters).items():
                        assert count <= getattr(before.counters, field), field
                    previous[engine] = after.output
    # Only the launches that asked for the scalar oracle ran there.
    asked = 2 * len(OPTIMIZATION_LEVELS) * len(bench.stages) * (name in _ALSO_ON_SCALAR)
    assert metrics.REGISTRY.counter("launch.served.scalar") == scalar_before + asked
    assert not ledger.events()


def test_figure8_explain_prices_every_counter_delta():
    from repro.benchsuite.figure8 import format_explanation
    from repro.opencl.cost import DEVICES, priced_counters

    # One cell behind its reference, one that beats it.
    for name, word in (("nn", "owes"), ("mriq", "ahead by")):
        cells = measure_benchmark(get_benchmark(name), "small")
        text = format_explanation(cells, "nvidia")
        (cell,) = [c for c in cells if c.device == "nvidia" and c.level == "all"]
        header = next(
            l for l in text.splitlines() if l.startswith(f"{name} small all")
        )
        difference = cell.generated_cycles - cell.reference_cycles
        assert (difference < 0) == (word == "ahead by")
        assert f"{word} {abs(difference):.0f})" in header
        # The per-counter lines of a cell add up to its difference.
        block = text.split(header)[1].split("\n\n")[0]
        owed = [float(l.split()[1]) for l in block.strip().splitlines()]
        assert sum(owed) == difference
        assert owed == sorted(owed, reverse=True)
        ref = priced_counters(cell.reference_counters, DEVICES["nvidia"])
        gen = priced_counters(cell.generated_counters, DEVICES["nvidia"])
        assert f"{gen['iops'] - ref['iops']:+.0f} cycles" in block


@pytest.mark.parametrize("name, tiles", [("mm-nvidia", 2), ("nbody-nvidia", 1)])
def test_tile_accumulator_is_a_register_like_the_reference(name, tiles):
    """The accumulator of the ``reduceSeq`` over tiles is private
    (``float acc`` / ``float4 acc`` in the hand-written kernel): local
    memory holds the staged tiles only, and the kernel stores to it and
    synchronises exactly as often as the reference."""
    from repro.compiler import compile_kernel
    from repro.compiler.options import CompilerOptions

    bench = get_benchmark(name)
    (stage,) = bench.stages
    source = compile_kernel(
        stage.build(dict(bench.sizes["small"])),
        CompilerOptions.all(local_size=stage.local_size),
    ).source
    assert source.count("  local float ") == tiles
    (cell,) = [
        c for c in measure_benchmark(bench, "small")
        if c.device == "nvidia" and c.level == "all"
    ]
    generated, reference = cell.generated_counters, cell.reference_counters
    assert generated.local_stores == reference.local_stores
    assert generated.barriers == reference.barriers
    assert generated.private_loads == generated.private_stores == 0
    assert cell.relative_performance >= 1.0


def test_figure8_floors_catch_a_lost_row():
    import json
    from dataclasses import replace
    from pathlib import Path

    from repro.benchsuite.figure8 import baseline_rows, floor_failures

    baseline = json.loads(
        (Path(__file__).parent.parent / "benchmarks" / "BENCH_figure8.json")
        .read_text()
    )
    cells = measure_benchmark(get_benchmark("gemv"), "small")
    assert floor_failures(cells, baseline) == []
    recorded = {
        (r["benchmark"], r["device"], r["size"]): r for r in baseline["rows"]
    }
    for row in baseline_rows(cells):
        assert row == recorded[row["benchmark"], row["device"], row["size"]]
    worse = [
        replace(c, relative_performance=c.relative_performance - 0.01)
        for c in cells
    ]
    failures = floor_failures(worse, baseline)
    assert len(failures) == 2 and "gemv/nvidia/small" in failures[0]


@pytest.mark.parametrize("engine", ["auto", "fused", "compiled"])
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_no_scalar_cliff(name, engine, fault_free):
    """No benchsuite launch — reference or generated, at any
    optimization level — falls to the per-work-item scalar tier or is
    declined dynamically by a lane-batched one (the scalar cliff under
    Figure 8: 12 of 52 launches before declared types became
    authoritative).  The strict ``compiled`` engine raises on a decline:
    its cross-lane hazard detector is the oracle for every barrier
    ``compiler/barriers.py`` removes."""
    from repro.backend import ledger
    from repro.obs import metrics

    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    ledger.clear()
    scalar_before = metrics.REGISTRY.counter("launch.served.scalar")
    bench.run_reference(inputs, size_env, engine=engine)
    for factory in OPTIMIZATION_LEVELS.values():
        bench.run_generated(
            inputs, size_env, options_factory=factory, engine=engine
        )
    assert metrics.REGISTRY.counter("launch.served.scalar") == scalar_before
    dynamic = [e for e in ledger.events() if e.kind == "dynamic"]
    assert not dynamic, dynamic


def test_explore_no_cache_leaves_the_cache_dir_empty(
    tmp_path, monkeypatch, capsys, fault_free
):
    """``benchsuite explore --no-cache`` must not touch the default
    cache directory (it used to write ``~/.cache/repro``)."""
    from repro.benchsuite.__main__ import main

    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    main(["explore", "--benchmarks", "nn", "--no-cache",
          "--depth", "1", "--max-eval", "2"])
    assert "cache off" in capsys.readouterr().out
    assert not cache_dir.exists() or not any(cache_dir.rglob("*"))


@pytest.mark.parametrize("name", ["nn", "atax"])
def test_runs_without_a_cache_hash_nothing(name, monkeypatch):
    """``cache=None`` (what figure8 ``--no-cache`` and the e2e harness
    pass) must not pay for keys nobody files anything under."""
    import repro.cache as cache_mod

    def hashed(*args, **kwargs):
        raise AssertionError("a key was hashed without a cache")

    monkeypatch.setattr(cache_mod, "canonical", hashed)
    monkeypatch.setattr(cache_mod, "fingerprint_inputs", hashed)
    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    expected = bench.oracle(inputs, size_env)
    for run in (bench.run_reference, bench.run_generated):
        out, _ = run(inputs, size_env, cache=None)
        np.testing.assert_allclose(out, expected, rtol=bench.rtol, atol=1e-7)


def test_explore_cli_reports_a_malformed_cache_cap(monkeypatch, capsys):
    """``REPRO_CACHE_MAX_BYTES=10MB`` used to end ``benchsuite explore``
    in an ``int()`` traceback from the cache's constructor."""
    from repro.benchsuite.__main__ import main

    monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "10MB")
    assert main(["explore", "--benchmarks", "nn"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message, = captured.err.splitlines()
    assert "explore: error: REPRO_CACHE_MAX_BYTES" in message
    assert "'10MB'" in message


@pytest.mark.parametrize("command", ["explore", "calibrate"])
@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--benchmarks", "nn", "atax"], "EXPLORABLE benchmarks are nn, gemv, mm"),
        (["--max-eval", "0"], "--max-eval must be at least 1"),
    ],
)
def test_explore_cli_rejects_bad_requests_before_searching(
    command, flags, needle, monkeypatch, capsys
):
    """atax has no single-kernel schedule to derive and a zero budget
    leaves nothing to rank: exit status 2 and one line, not a traceback
    out of the middle of a search."""
    from repro.benchsuite import explore as benchsuite_explore
    from repro.benchsuite.__main__ import main

    def no_search(*args, **kwargs):
        raise AssertionError("a search started")

    monkeypatch.setattr(benchsuite_explore, "explore_program", no_search)
    assert main([command, "--no-cache"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message, = captured.err.splitlines()
    assert needle in message and f"{command}: error:" in message
