"""The resilience layer, each recovery provoked by the real failure it
recovers from: a tuning store the process cannot read or write, the
degradation ledger on backend fallback chains, and
the explorer's compile / simulate / verify failures quarantined under
their own kind."""


import numpy as np
import pytest

from repro.arith import Var
from repro.backend import get_backend, ledger, resolve
from repro.benchsuite.common import ALL_BENCHMARKS
from repro.benchsuite.explore import run_explore
from repro.benchsuite.figure8 import run_figure8
from repro.cache import TuningCache
from repro.ir.dsl import join, map_, pipe, split
from repro.ir.nodes import Lambda, Param, UserFun
from repro.opencl import Buffer, OpenCLProgram, launch
from repro.rewrite.explore import (
    FAILURE_KINDS,
    ExploreConfig,
    ExploredCandidate,
    FailureReport,
    evaluate_candidates,
    explore_program,
    reference_output,
)
from repro.rewrite.lowering import lower_to_global
from repro.types import ArrayType, FLOAT
from tests.programs import run_saxpy

#: The explorer's evaluation stages, in order.
STAGES = ("compile", "simulate", "verify")


def _toy_program():
    n = Var("N")
    x = Param(ArrayType(FLOAT, n), "x")
    double = UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                     py=lambda v: v * 2.0)
    return Lambda([x], map_(double)(x))


def _failing_candidate(stage, n=64):
    """A candidate of the toy program that really fails at ``stage``,
    with the arguments of :func:`evaluate_candidates` after it."""
    program = _toy_program()
    inputs, size_env = {"x": np.arange(n, dtype=float)}, {"N": n}
    reference = reference_output(program, inputs, size_env)
    if stage == "compile":  # a pure view: no kernel to generate
        x = Param(ArrayType(FLOAT, Var("N")), "x")
        program = Lambda([x], pipe(x, split(8), join()))
    else:
        program = lower_to_global(program)
    local = (7, 1, 1) if stage == "simulate" else (8, 1, 1)
    if stage == "verify":
        reference = reference.copy()
        reference[5] += 1.0
    cand = ExploredCandidate(f"fails at {stage}", program, local, (n, 1, 1))
    return cand, (inputs, size_env, reference, ExploreConfig())


def _explore():
    return explore_program(
        _toy_program(), {"x": np.arange(48, dtype=float)}, {"N": 48},
        config=ExploreConfig(depth=2, max_eval=6),
    )


@pytest.fixture(autouse=True)
def _clean_slate():
    """Every test starts and ends with an empty ledger."""
    ledger.clear()
    yield
    ledger.clear()


class TestFailureReport:
    def test_as_dict_and_describe(self):
        report = FailureReport(
            label="mapGlb(dbl)", trace=("rule-a", "rule-b"),
            kind="compile", message="bad lowering", elapsed=0.5,
        )
        d = report.as_dict()
        assert d["kind"] == "compile"
        assert d["trace"] == ["rule-a", "rule-b"]
        assert "attempts" not in d
        assert report.describe() == "mapGlb(dbl): compile — bad lowering"


class TestDegradationLedger:
    def test_record_and_counts(self):
        book = ledger.DegradationLedger()
        book.record("compiled", "compiled", "static", "a static refusal")
        book.record("compiled", "compiled", "static", "a static refusal")
        book.record("auto", "compiled", "dynamic", "bail-out")
        assert book.counts() == {
            ("compiled", "compiled", "static"): 2,
            ("auto", "compiled", "dynamic"): 1,
        }
        assert book.total() == len(book) == 3
        assert len(book.events()) == 3

    def test_summary_and_clear(self):
        book = ledger.DegradationLedger()
        assert "empty" in book.summary()
        book.record("auto", "compiled", "dynamic", "a race")
        assert "backend 'compiled' declined 1x (dynamic)" in book.summary()
        book.clear()
        assert book.total() == 0

    def test_unknown_kind_is_refused(self):
        book = ledger.DegradationLedger()
        with pytest.raises(ValueError, match="crahs"):
            book.record("auto", "compiled", "crahs", "a typo")
        with pytest.raises(ValueError, match="crahs"):
            ledger.record("auto", "compiled", "crahs", "a typo")
        assert book.total() == 0 and ledger.LEDGER.total() == 0

    @pytest.mark.parametrize("kind", ledger.DECLINE_KINDS)
    def test_each_declared_kind_is_counted(self, kind):
        book = ledger.DegradationLedger()
        book.record("auto", "compiled", kind, "a reason")
        assert book.counts() == {("auto", "compiled", kind): 1}
        assert f"declined 1x ({kind})" in book.summary()

    def test_event_cap_keeps_counts_exact(self):
        book = ledger.DegradationLedger()
        for _ in range(ledger._MAX_EVENTS + 5):
            book.record("auto", "compiled", "static", "r")
        assert len(book.events()) == ledger._MAX_EVENTS
        assert book.total() == ledger._MAX_EVENTS + 5
        assert "counts exact" in book.summary()

    def test_launch_records_declines_of_the_real_chain(self):
        # A barrier + early return is statically refused by every tier
        # but scalar: the graceful "auto" chain must record each
        # decline on its way down.
        src = """
        kernel void K(global float *x, int n) {
          if (get_global_id(0) >= n) { return; }
          barrier(CLK_LOCAL_MEM_FENCE);
          x[get_global_id(0)] = 1.0f;
        }
        """
        program = OpenCLProgram(src)
        out = Buffer.zeros(4)
        launch(program, 4, 4, {"x": out, "n": 4}, engine="auto")
        np.testing.assert_array_equal(out.data, np.ones(4))
        counts = ledger.counts()
        assert any(
            engine == "auto" and kind in ("static", "dynamic")
            for (engine, backend, kind) in counts
        )
        assert ("auto", "scalar", "static") not in counts


#: A kernel every lane tier refuses before running it: a barrier
#: behind an early return.
STATIC_REFUSAL = """
kernel void K(global float *x, int n) {
  if (get_global_id(0) >= n) { return; }
  barrier(CLK_LOCAL_MEM_FENCE);
  x[get_global_id(0)] = 1.0f;
}
"""

#: A kernel every lane tier accepts and then refuses mid-launch: each
#: work-item stages its value through one shared scratch cell.
DYNAMIC_REFUSAL = """
kernel void K(const global float * restrict x, global float *scratch,
              global float *out) {
  int i = get_global_id(0);
  scratch[0] = x[i];
  out[i] = scratch[0] * 2.0f;
}
"""


def _refused_launch(kind, engine, monkeypatch, prefer=False):
    """Launch a kernel that every member of ``engine``'s chain but the
    last declines with a real failure of ``kind``; returns the buffers
    and Counters.  ``prefer`` names ``engine`` through
    ``REPRO_SIM_ENGINE`` instead of ``launch(engine=...)``."""
    if kind == "static":
        program, args = OpenCLProgram(STATIC_REFUSAL), {"x": Buffer.zeros(8), "n": 8}
    else:
        program = OpenCLProgram(DYNAMIC_REFUSAL)
        args = {"x": Buffer.from_array(np.arange(8.0)), "scratch": Buffer.zeros(1),
                "out": Buffer.zeros(8)}
    if prefer:
        monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
    counters = launch(program, 8, 4, args, engine=None if prefer else engine)
    buffers = {
        name: arg.data.copy() for name, arg in args.items()
        if isinstance(arg, Buffer)
    }
    return buffers, counters


@pytest.mark.parametrize("engine", ["auto", "compiled"])
def test_a_fault_in_plan_propagates_on_every_chain(engine, monkeypatch):
    # Not a refusal, so no decline: by name and as a preference alike.
    def plan(parsed, kernel):
        raise ZeroDivisionError("a fault in plan()")

    monkeypatch.setattr(get_backend("compiled"), "plan", plan)
    monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
    for chosen in (engine, None):
        with pytest.raises(ZeroDivisionError, match="a fault in plan"):
            run_saxpy(chosen)
    assert not ledger.counts()


class TestEachDeclineKind:
    """Each decline kind, provoked by the real failure it stands for,
    on each chain with more than one member (``auto``, and ``compiled``
    named as a preference): every member but the last declines once,
    and the launch gives the scalar buffers and Counters."""

    @pytest.mark.parametrize("engine", ["auto", "compiled"])
    @pytest.mark.parametrize("kind", ledger.DECLINE_KINDS)
    def test_every_member_but_the_last_declines(
        self, kind, engine, monkeypatch
    ):
        prefer = engine != "auto"
        expected, counters = _refused_launch(kind, "scalar", monkeypatch)
        assert not ledger.counts()
        buffers, served = _refused_launch(kind, engine, monkeypatch, prefer)
        assert buffers.keys() == expected.keys()
        for name, data in expected.items():
            assert buffers[name].tobytes() == data.tobytes(), name
        assert vars(served) == vars(counters)
        chain = resolve(engine, prefer)
        assert len(chain) > 1
        assert chain[-1] == "scalar"
        assert ledger.counts() == {
            (engine, backend, kind): 1 for backend in chain[:-1]
        }


def _holes(root):
    """Replace every other entry of the store at ``root`` by a
    directory: reading one raises ``IsADirectoryError``, and so does
    writing over it.  Returns how many."""
    entries = sorted(
        p for p in root.iterdir() if p.is_file() and not p.name.startswith(".")
    )[::2]
    for path in entries:
        path.unlink()
        path.mkdir()
    return len(entries)


class TestUnusableStore:
    """A store that fails to read or write costs recomputation, never a
    result: every failure is a counted miss or skipped write."""

    def test_figure8_through_a_regular_file_is_the_uncached_figure(
        self, tmp_path
    ):
        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        cache = TuningCache(not_a_dir)
        cells = run_figure8(["nn", "gemv"], sizes=("small",), cache=cache)
        assert cells == run_figure8(["nn", "gemv"], sizes=("small",))
        stats = cache.stats
        assert stats.io_errors > 0 and stats.write_skips > 0
        assert stats.puts == stats.quarantined == 0
        assert not_a_dir.read_text() == ""

    def test_a_warm_explore_through_holes_is_the_clean_one(self, tmp_path):
        def search(cache):
            entries = run_explore(
                ["nn", "gemv"], depth=2, max_eval=6, cache=cache
            )["benchmarks"]
            # Hit rates and timings differ; winners, rankings and
            # derivations may not.
            varies = ("stats", "explore_seconds", "menu_seconds")
            return [
                {k: v for k, v in entry.items() if k not in varies}
                for entry in entries
            ]

        clean = search(TuningCache(tmp_path))
        holes = _holes(tmp_path)
        assert holes > 0
        cache = TuningCache(tmp_path)
        assert search(cache) == clean
        # Each hole is read (an I/O error, then a recompute) and the
        # recompute's write fails on it: nothing is quarantined.
        assert cache.stats.io_errors >= holes
        assert cache.stats.write_skips >= holes
        assert cache.stats.quarantined == 0

    @pytest.mark.parametrize("name", ALL_BENCHMARKS)
    def test_a_warm_figure8_through_holes_is_the_clean_one(
        self, name, tmp_path
    ):
        clean = run_figure8([name], sizes=("small",),
                            cache=TuningCache(tmp_path))
        holes = _holes(tmp_path)
        assert holes > 0
        cache = TuningCache(tmp_path)
        assert run_figure8([name], sizes=("small",), cache=cache) == clean
        # Only holes miss: each is read (an I/O error, then a
        # recompute) and the recompute's write fails on it.
        stats = cache.stats
        misses = stats.kernel_misses + stats.cycle_misses + stats.run_misses
        assert 0 < stats.io_errors == misses <= holes
        assert stats.write_skips == stats.io_errors
        assert stats.puts == stats.quarantined == 0

    @pytest.mark.parametrize("name", ["nn", "gemv", "mm"])
    def test_a_cold_explore_through_a_regular_file_is_the_uncached_one(
        self, name, tmp_path
    ):
        def search(cache):
            (entry,) = run_explore(
                [name], depth=1, max_eval=3, cache=cache
            )["benchmarks"]
            varies = ("stats", "explore_seconds", "menu_seconds")
            return {k: v for k, v in entry.items() if k not in varies}

        not_a_dir = tmp_path / "cache"
        not_a_dir.write_text("")
        cache = TuningCache(not_a_dir)
        assert search(cache) == search(None)
        assert cache.stats.io_errors > 0 and cache.stats.write_skips > 0
        assert cache.stats.puts == cache.stats.quarantined == 0
        assert not_a_dir.read_text() == ""


class TestExplorerFaultTolerance:
    def _explore_failing(self, stage, monkeypatch):
        """An exploration whose evaluation is the real evaluator run on
        :func:`_failing_candidate` ``stage``."""
        from repro.rewrite import explore as explore_mod

        def failing(candidates, inputs, size_env, reference, config, cache):
            cand, args = _failing_candidate(stage)
            return evaluate_candidates([cand], *args)

        monkeypatch.setattr(explore_mod, "evaluate_candidates", failing)
        return _explore()

    @pytest.mark.parametrize(
        "stage, message",
        [
            ("compile", "the program performs no writes"),
            ("simulate",
             "global size (64, 1, 1) not divisible by local size (7, 1, 1)"),
            ("verify", "result differs from reference"),
        ],
    )
    def test_a_real_failure_is_reported_under_its_stage(
        self, stage, message, monkeypatch
    ):
        from repro.rewrite.explore import _FAILURE_STAT

        cand, args = _failing_candidate(stage)
        ranked, failures, _ = evaluate_candidates([cand], *args)
        assert not ranked
        assert [(r.label, r.kind) for r in failures] == [(cand.label, stage)]
        assert message in failures[0].message

        result = self._explore_failing(stage, monkeypatch)
        assert [r.kind for r in result.failures] == [stage]
        own = _FAILURE_STAT[stage]
        assert {
            stat: getattr(result.stats, stat)
            for stat in _FAILURE_STAT.values()
        } == {stat: int(stat == own) for stat in _FAILURE_STAT.values()}
        assert result.stats.timeouts == result.stats.cancelled == 0

    @pytest.mark.parametrize(
        "where", ["compile_kernel", "estimate_cycles", "runtime_from_cycles"]
    )
    def test_an_unexpected_exception_is_infra(self, where, monkeypatch):
        """``infra`` is an exception no stage classifies as its own: here
        a bug planted in the compiler, the cost model or the runtime
        estimate."""
        from repro.rewrite import explore as explore_mod

        def broken(*args, **kwargs):
            raise RuntimeError(f"planted bug in {where}")

        monkeypatch.setattr(explore_mod, where, broken)
        result = _explore()
        n = len(result.failures)
        assert n > 0 and not result.candidates
        for report in result.failures:
            assert report.kind == "infra"
            assert report.message == \
                f"unexpected RuntimeError: planted bug in {where}"
        assert {
            stat: getattr(result.stats, stat)
            for stat in explore_mod._FAILURE_STAT.values()
        } == {
            stat: n if stat == "infra_failures" else 0
            for stat in explore_mod._FAILURE_STAT.values()
        }

    def test_failures_listed_in_describe(self, monkeypatch):
        result = self._explore_failing("compile", monkeypatch)
        text = result.describe()
        assert "quarantined" in text
        assert "fails at compile: compile" in text

    def test_the_taxonomy_and_the_stats_agree(self):
        from repro.rewrite.explore import ExploreStats, _FAILURE_STAT

        assert tuple(_FAILURE_STAT) == FAILURE_KINDS
        assert set(_FAILURE_STAT.values()) <= set(ExploreStats().as_dict())
        assert len(set(_FAILURE_STAT.values())) == len(FAILURE_KINDS)

    @pytest.mark.parametrize("kind", FAILURE_KINDS)
    def test_each_failure_kind_is_counted_in_its_own_stat(
        self, kind, monkeypatch
    ):
        from repro.rewrite import explore as explore_mod

        def one_failure(candidates, *args, **kwargs):
            report = FailureReport(
                label=candidates[0].label, trace=candidates[0].trace,
                kind=kind, message="planted",
            )
            return [], [report], {"compiled": 0, "executed": 0}

        monkeypatch.setattr(explore_mod, "evaluate_candidates", one_failure)
        result = _explore()
        assert [r.kind for r in result.failures] == [kind]
        own = explore_mod._FAILURE_STAT[kind]
        assert {
            stat: getattr(result.stats, stat)
            for stat in explore_mod._FAILURE_STAT.values()
        } == {
            stat: int(stat == own) for stat in explore_mod._FAILURE_STAT.values()
        }
        assert result.stats.timeouts == result.stats.cancelled == 0
