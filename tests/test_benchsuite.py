"""Integration tests over the benchmark suite.

Every benchmark's differential-testing contract: NumPy oracle ≡
hand-written reference kernel on the simulator ≡ generated kernel on the
simulator (at every optimization level for a representative subset).
"""

import os
import re

import numpy as np
import pytest

from repro.compiler.options import OPTIMIZATION_LEVELS
from repro.benchsuite.common import ALL_BENCHMARKS, get_benchmark
from repro.benchsuite.figure6 import check_figure6, figure6_trace
from repro.benchsuite.figure8 import measure_benchmark
from repro.benchsuite.table1 import run_table1
from tests.engines import RUNS, blocks
from tests.programs import UNINTERPRETED, VECTOR_HIGH_LEVEL, high_level_case


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

    if name in VECTOR_HIGH_LEVEL or name in UNINTERPRETED:
        pytest.skip("vector-heavy interpreters covered by dedicated tests")
    bench, program, args, size_env, inputs = high_level_case(name)
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
def test_hoisting_only_ever_removes_work(name):
    """The differential for ``compiler/hoist.py``, which has no switch:
    every stage at both sizes and all three levels, printed before the
    pass and after it (applied to the parsed text), launched on the
    strict ``compiled`` engine — and the small size of the quicker
    benchmarks on the scalar oracle too.  Buffers are bitwise equal and
    no ``Counters`` field rises."""
    from dataclasses import replace

    from repro.compiler.codegen import compile_kernel
    from repro.compiler.kernel import execute_kernel
    from repro.obs import metrics
    from tests.programs import compile_unhoisted, hoisted_source

    bench = get_benchmark(name)
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
                plain = compile_unhoisted(fun, options)
                hoisted = replace(
                    plain, source=hoisted_source(plain.source, plain.params)
                )
                # The pass inside the compiler and the pass on the parsed
                # text are the same function of the same tree.
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


@pytest.mark.parametrize("engine, layout", RUNS)
@pytest.mark.parametrize("name", ALL_BENCHMARKS)
def test_no_scalar_cliff(name, engine, layout):
    """Every benchsuite launch — reference or generated, at any
    optimization level — runs on the lane engine (the scalar cliff under
    Figure 8: 12 of 52 launches fell to the per-work-item tier before
    declared types became authoritative), over one block or with each
    work-group a block of its own.  A static refusal or a race raises:
    the cross-lane hazard detector is the oracle for every barrier
    ``compiler/barriers.py`` removes."""
    from repro.obs import metrics

    bench = get_benchmark(name)
    inputs, size_env = bench.inputs_for("small")
    scalar_before = metrics.REGISTRY.counter("launch.served.scalar")
    with blocks(layout):
        bench.run_reference(inputs, size_env, engine=engine)
        for factory in OPTIMIZATION_LEVELS.values():
            bench.run_generated(
                inputs, size_env, options_factory=factory, engine=engine
            )
    assert metrics.REGISTRY.counter("launch.served.scalar") == scalar_before


def test_explore_no_cache_leaves_the_cache_dir_empty(
    tmp_path, monkeypatch, capsys
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


@pytest.mark.parametrize(
    "command, flags",
    [
        ("figure8", ["--sizes", "small"]),
        ("explore", ["--depth", "1", "--max-eval", "2"]),
    ],
)
def test_a_store_that_cannot_be_used_is_reported(
    command, flags, tmp_path, capsys
):
    """A regular file as ``--cache-dir``: every read and write fails,
    stdout carries the uncached run's report and stderr counts the
    recoveries."""
    from repro.benchsuite.__main__ import main

    def report(*cache_flags):
        assert main([command, "--benchmarks", "nn", *flags,
                     *cache_flags]) == 0
        out, err = capsys.readouterr()
        # The store's name, its hit counts and the timings differ.
        skip = ("Rewrite-space", "[tuning cache:", "time:")
        return [
            line for line in out.splitlines()
            if not line.lstrip().startswith(skip)
        ], err

    uncached, err = report("--no-cache")
    assert "cache recoveries" not in err
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    out, err = report("--cache-dir", str(not_a_dir))
    assert out == uncached
    (line,) = [x for x in err.splitlines() if "cache recoveries" in x]
    assert re.fullmatch(
        r"\[cache recoveries: [1-9]\d* io errors, [1-9]\d* write skips\]",
        line,
    ), line


def _corrupt_entry(cache, key):
    cache.put_cycles(key, 1.0)
    cache._path(key, "cycles.json").write_bytes(b"garbage, no header")
    assert cache.get_cycles(key) is None


def _unreadable_entry(cache, key):
    cache._path(key, "cycles.json").mkdir(parents=True)
    assert cache.get_cycles(key) is None


def _unwritable_entry(cache, key):
    (cache._path(key, "cycles.json") / "occupied").mkdir(parents=True)
    cache.put_cycles(key, 1.0)


def _evicted_entry(cache, key):
    cache.put_cycles(key, 1.0)
    path = cache._path(key, "cycles.json")
    os.utime(path, (1_000_000_000.0, 1_000_000_000.0))  # the oldest
    cache.max_bytes = int(path.stat().st_size * 1.5)  # room for one
    cache.put_cycles("cd" * 32, 2.0)


@pytest.mark.parametrize(
    "provoke, reported",
    [
        (_corrupt_entry, "1 quarantined"),
        (_unreadable_entry, "1 io errors"),
        (_unwritable_entry, "1 write skips"),
        (_evicted_entry, "1 evictions"),
    ],
    ids=["quarantined", "io-errors", "write-skips", "evictions"],
)
def test_each_cache_recovery_is_reported_by_name(
    provoke, reported, tmp_path, capsys
):
    """One real failure of each kind gives a stderr line naming that
    recovery alone, and nothing on stdout."""
    from repro.benchsuite.__main__ import _print_cache_recoveries
    from repro.cache import TuningCache

    cache = TuningCache(tmp_path)
    provoke(cache, "ab" * 32)
    _print_cache_recoveries(cache.stats)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"[cache recoveries: {reported}]\n"


def test_a_clean_cache_reports_no_recovery(tmp_path, capsys):
    from repro.benchsuite.__main__ import _print_cache_recoveries
    from repro.cache import TuningCache

    cache = TuningCache(tmp_path)
    cache.put_cycles("ab" * 32, 1.0)
    assert cache.get_cycles("ab" * 32) == 1.0
    assert cache.get_cycles("cd" * 32) is None
    _print_cache_recoveries(cache.stats)
    assert capsys.readouterr() == ("", "")


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
        (["--depth", "-1"], "--depth must be at least 0"),
    ],
)
def test_explore_cli_rejects_bad_requests_before_searching(
    command, flags, needle, monkeypatch, capsys
):
    """atax has no single-kernel schedule to derive, a negative depth is
    no search and a zero budget leaves nothing to rank: exit status 2 and
    one line, not a traceback out of the middle of a search (a depth of
    -1 used to run a depth-0 search and exit 0)."""
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


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["table1", "--engine", "bogus"],
         "unknown execution engine 'bogus': valid engines are auto, "
         "compiled, fused, scalar"),
        (["figure8", "--benchmarks", "bogus", "--no-cache"],
         "unknown benchmark bogus: valid benchmarks are atax, "),
        (["table1", "--benchmarks", "nn", "bogus"],
         "unknown benchmark bogus: valid benchmarks are atax, "),
    ],
    ids=["engine", "figure8-benchmark", "table1-benchmark"],
)
def test_the_cli_names_the_valid_values_of_a_bad_argument(
    argv, needle, capsys
):
    """An unknown engine or benchmark name used to end in a traceback
    (``ValueError`` from ``backend.engine_backend``, ``KeyError`` from
    ``get_benchmark``): exit status 2 and one stderr line naming the
    valid values, before anything runs."""
    from repro.benchsuite.__main__ import main

    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message, = captured.err.splitlines()
    assert f"{argv[0]}: error: {needle}" in message


@pytest.mark.parametrize(
    "names, depth, max_eval, expected",
    [
        (None, 0, 1, None),
        (["nn", "gemv", "mm"], 3, 12, None),
        (["mm"], 0, 1, None),
        (["nn"], -1, 12, "--depth must be at least 0 (got -1)"),
        (["gemv"], -3, 1, "--depth must be at least 0 (got -3)"),
        (["nn"], 3, 0, "--max-eval must be at least 1 (got 0)"),
        (["mm"], 3, -4, "--max-eval must be at least 1 (got -4)"),
        (["nn"], -2, 0, "--depth must be at least 0 (got -2)"),
        (["atax", "kmeans"], 3, 12,
         "cannot explore atax, kmeans: EXPLORABLE benchmarks are nn, gemv, mm"),
        (["nn", "atax"], -1, 0,
         "cannot explore atax: EXPLORABLE benchmarks are nn, gemv, mm"),
    ],
)
def test_request_error_names_the_first_problem(
    names, depth, max_eval, expected
):
    """What ``explore`` / ``calibrate`` refuse before searching, checked
    in order: the benchmarks, then the depth, then the budget."""
    from repro.benchsuite.explore import request_error

    assert request_error(names, depth, max_eval) == expected


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["hammer"], "invalid choice: 'hammer'"),
        (["explore", "--clients", "2"], "unrecognized arguments: --clients 2"),
        (["explore", "--requests-per-client", "3"],
         "unrecognized arguments: --requests-per-client 3"),
        (["explore", "--journal-dir", "j"],
         "unrecognized arguments: --journal-dir j"),
    ],
    ids=["hammer", "clients", "requests-per-client", "journal-dir"],
)
def test_the_command_line_has_no_service_surface(argv, needle, capsys):
    """No tuning service, no load generator: their subcommand and flags
    are usage errors (exit status 2)."""
    from repro.benchsuite.__main__ import main

    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert needle in capsys.readouterr().err


def test_table1_and_figure6_print_through_the_cli(capsys):
    from repro.benchsuite.__main__ import main

    assert main(["table1", "--benchmarks", "nn", "gemv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "Table 1: Overview, Characteristics, and Code size of the benchmarks",
        "",
    ]
    assert lines[2].split() == [
        "benchmark", "suite", "small", "large", "lmem", "pmem", "vec",
        "coal", "space", "OpenCL", "highIL", "lowIL",
    ]
    assert [line.split()[0] for line in lines[3:5]] == ["nn", "gemv"]

    assert main(["figure6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "Figure 6: simplification of the matrix-transposition index", "",
    ]
    labels = ["raw (line 1):", "intermediate (2):", "simplified (line 3):"]
    assert [line.split(":")[0].strip() + ":" for line in lines[2:5]] == labels
    assert lines[4].split(":", 1)[1].strip() == figure6_trace().lines()[2]


def test_report_leaves_placeholder_sections_out(tmp_path, capsys):
    """``report --inputs`` merges snapshots last-writer-wins, except that
    a placeholder section (``{"active": False}``, an empty calibration
    or counter table) never replaces data."""
    import json

    from repro.benchsuite.__main__ import main

    real = {
        "calibration": {"workloads": {"nn": {
            "candidates": 4, "spearman": 0.9, "top1_regret": 0.0,
            "top5_regret": 0.25, "residual_rms": 0.1,
        }}},
        "counters": {"explore.reference": 1},
    }
    paths = []
    for i, snapshot in enumerate([
        real,
        {"calibration": {"active": False}, "counters": {}},
        {"calibration": {"workloads": {}}},
    ]):
        paths.append(str(tmp_path / f"{i}.json"))
        (tmp_path / f"{i}.json").write_text(json.dumps(snapshot))

    assert main(["report", "--inputs", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# Performance report"
    assert "## Cost-model calibration" in lines
    assert "| nn | 4 | 0.900 | 0.0% | 25.0% | 0.100 |" in lines
    assert "| explore.reference | 1 |" in lines

    assert main(["report", "--inputs", *paths[1:]]) == 0
    out = capsys.readouterr().out
    assert "_No calibration records (run `benchsuite calibrate`)._" in out
    assert "_No counters recorded._" in out
