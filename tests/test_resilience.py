"""The resilience layer: deterministic fault injection, the degradation
ledger and crash shield on backend fallback chains, and the explorer's
fault tolerance (bit-identical results under a chaos plan, real
compile / simulate / verify failures quarantined under their own kind)."""

import re

import numpy as np
import pytest

from repro import faultinject
from repro.arith import Var
from repro.backend import get_backend, ledger
from repro.cache import TuningCache
from repro.faultinject import FaultInjected, FaultPlan, FaultState
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

#: The explorer's evaluation stages, in order.
STAGES = ("compile", "simulate", "verify")

SAXPY = """
kernel void SAXPY(const global float * restrict x,
                  const global float * restrict y,
                  global float *out, float a, int n) {
  int i = get_global_id(0);
  if (i < n) { out[i] = a * x[i] + y[i]; }
}
"""


def _run_saxpy(engine=None, n=32, local=8):
    program = OpenCLProgram(SAXPY)
    args = {
        "x": Buffer.from_array(np.arange(n, dtype=float)),
        "y": Buffer.from_array(np.ones(n)),
        "out": Buffer.zeros(n),
        "a": 2.0,
        "n": n,
    }
    launch(program, n, local, args, engine=engine)
    return args["out"].data.copy()


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


def _explore(tmp_path=None, cache=None, **config_kwargs):
    config = ExploreConfig(depth=2, max_eval=6, **config_kwargs)
    if tmp_path is not None:
        cache = TuningCache(tmp_path)
    return explore_program(
        _toy_program(), {"x": np.arange(48, dtype=float)}, {"N": 48},
        config=config, cache=cache,
    )


@pytest.fixture(autouse=True)
def _clean_slate():
    """Every test starts with injection off and an empty ledger; any
    ambient plan (e.g. the chaos CI job's REPRO_FAULT_PLAN) is restored
    afterwards so this module cannot disarm the rest of the suite."""
    with faultinject.plan_installed(None):
        ledger.clear()
        yield
    ledger.clear()


class TestFaultPlanParsing:
    def test_simple_spec(self):
        plan = FaultPlan.parse("seed=11;rate=0.05")
        assert plan.seed == 11
        assert plan.default_rate == 0.05
        assert plan.rate("backend-run") == 0.05
        assert plan.any_faults()

    def test_per_site_rates_override_default(self):
        plan = FaultPlan.parse("seed=7;rate=0.1;cache-read=0.5")
        assert plan.rate("cache-read") == 0.5
        assert plan.rate("cache-write") == 0.1

    def test_comma_separator_accepted(self):
        plan = FaultPlan.parse("seed=3,rate=0.2")
        assert plan.seed == 3 and plan.default_rate == 0.2

    def test_off_and_empty_disable(self):
        assert FaultPlan.parse("off") is None
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse("  ") is None
        # All-zero rates are equivalent to off.
        assert FaultPlan.parse("seed=5") is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.parse("seed=1;warp-speed=0.5")

    def test_malformed_field_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("seed")

    @pytest.mark.parametrize(
        "site",
        ["service-admit", "service-worker", "service-journal",
         "attempts", "compile", "simulate", "verify"],
    )
    def test_a_spec_naming_a_deleted_site_fails_fast(self, site):
        with pytest.raises(ValueError, match="unknown") as err:
            FaultPlan.parse(f"seed=3;{site}=0.4")
        assert ", ".join(faultinject.SITES) in str(err.value)

    def test_describe_round_trips(self):
        plan = FaultPlan.parse("seed=9;rate=0.25;backend-run=1.0")
        again = FaultPlan.parse(plan.describe())
        assert again == plan

    @pytest.mark.parametrize("site", faultinject.SITES)
    def test_a_site_rate_applies_to_that_site_only(self, site):
        plan = FaultPlan.parse(f"seed=3;{site}=0.4")
        assert plan.rate(site) == 0.4
        assert all(
            plan.rate(other) == 0.0
            for other in faultinject.SITES if other != site
        )
        assert FaultPlan.parse(plan.describe()) == plan


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultState(FaultPlan(seed=42, default_rate=0.3))
        b = FaultState(FaultPlan(seed=42, default_rate=0.3))
        draws_a = [a._draw("cache-read")[0] for _ in range(200)]
        draws_b = [b._draw("cache-read")[0] for _ in range(200)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_different_seed_different_decisions(self):
        a = FaultState(FaultPlan(seed=1, default_rate=0.3))
        b = FaultState(FaultPlan(seed=2, default_rate=0.3))
        draws_a = [a._draw("cache-read")[0] for _ in range(200)]
        draws_b = [b._draw("cache-read")[0] for _ in range(200)]
        assert draws_a != draws_b

    def test_sites_are_independent_streams(self):
        state = FaultState(FaultPlan(seed=5, default_rate=0.5))
        read_draws = [state._draw("cache-read")[0] for _ in range(100)]
        write_draws = [state._draw("cache-write")[0] for _ in range(100)]
        assert read_draws != write_draws

    @pytest.mark.parametrize("site", faultinject.SITES)
    def test_a_site_draws_alike_whatever_the_others_do(self, site):
        """A site's n-th decision depends on ``(seed, site, n)`` only, so
        adding or removing checks at other sites changes none of it."""
        alone = FaultState(FaultPlan(seed=11, default_rate=0.3))
        mixed = FaultState(FaultPlan(seed=11, default_rate=0.3))
        others = [s for s in faultinject.SITES if s != site]
        solo_draws, mixed_draws = [], []
        for n in range(60):
            solo_draws.append(alone._draw(site))
            for other in others[: n % (len(others) + 1)]:
                mixed._draw(other)
            mixed_draws.append(mixed._draw(site))
        assert solo_draws == mixed_draws
        assert any(inject for inject, _ in solo_draws)

    def test_reset_counts_replays_the_sequence(self):
        state = FaultState(FaultPlan(seed=42, default_rate=0.3))
        first = [state._draw("backend-run")[0] for _ in range(50)]
        state.reset_counts()
        again = [state._draw("backend-run")[0] for _ in range(50)]
        assert first == again


class TestMaybeFail:
    def test_rate_zero_never_injects(self):
        state = FaultState(FaultPlan(seed=0, default_rate=0.0))
        for _ in range(100):
            state.maybe_fail("cache-read")
        assert state.counts()["cache-read"].as_dict() == {
            "checks": 100, "injected": 0,
        }

    def test_module_fast_path_with_no_plan(self):
        assert faultinject.active_plan() is None
        faultinject.maybe_fail("cache-read")  # no-op
        assert faultinject.counts() == {}
        assert faultinject.total_injected() == 0

    def test_set_plan_accepts_spec_strings(self):
        faultinject.set_plan("seed=11;rate=1.0")
        with pytest.raises(FaultInjected):
            faultinject.maybe_fail("cache-write")
        faultinject.set_plan(None)
        assert faultinject.active_plan() is None

    def test_plan_installed_restores_previous_state(self):
        faultinject.set_plan("seed=1;rate=1.0")
        outer = faultinject.active_plan()
        with faultinject.plan_installed("seed=2;rate=0.5"):
            assert faultinject.active_plan().seed == 2
        assert faultinject.active_plan() == outer

    @pytest.mark.parametrize("site", faultinject.SITES)
    def test_a_certain_fault_escapes_naming_its_site(self, site):
        state = FaultState(FaultPlan.parse(f"seed=1;{site}=1.0"))
        for sequence in (0, 1):
            with pytest.raises(FaultInjected) as err:
                state.maybe_fail(site)
            assert (err.value.site, err.value.sequence) == (site, sequence)
        for other in faultinject.SITES:
            if other != site:
                state.maybe_fail(other)
        assert state.counts()[site].as_dict() == {
            "checks": 2, "injected": 2,
        }


    @pytest.mark.parametrize("site", faultinject.SITES)
    def test_a_partial_rate_injects_about_that_share(self, site):
        state = FaultState(FaultPlan.parse(f"seed=7;{site}=0.25"))
        injected = 0
        for _ in range(2000):
            try:
                state.maybe_fail(site)
            except FaultInjected:
                injected += 1
        # One draw per check: no redraw hides a landed fault.
        assert state.counts()[site].as_dict() == {
            "checks": 2000, "injected": injected,
        }
        assert 400 < injected < 600


class TestResilienceSummary:
    """The CLI's stderr digest of a fault plan; CI reads its
    ``site: N/M injected`` entries."""

    def test_each_landed_site_shows_injected_over_checks(self, capsys):
        from repro.benchsuite.__main__ import _print_resilience_summary

        with faultinject.plan_installed("seed=1;cache-read=1.0;cache-write=0.0"):
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    faultinject.maybe_fail("cache-read")
            faultinject.maybe_fail("cache-write")
            _print_resilience_summary()
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "[fault plan seed=1;cache-read=1.0;cache-write=0.0"
            " — cache-read: 3/3 injected]\n"
        )
        assert re.search(r"cache-read: (\d+)/\d+ injected", err).group(1) == "3"

    def test_a_plan_that_never_landed_says_so(self, capsys):
        from repro.benchsuite.__main__ import _print_resilience_summary

        _print_resilience_summary()
        assert capsys.readouterr() == ("", "")  # no plan, empty ledger
        with faultinject.plan_installed("seed=1;backend-run=1e-9"):
            faultinject.maybe_fail("backend-run")
            _print_resilience_summary()
        assert capsys.readouterr().err == (
            "[fault plan seed=1;backend-run=1e-09 — no faults landed]\n"
        )


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
        book.record("auto", "fused", "static", "no fused segments")
        book.record("auto", "fused", "static", "no fused segments")
        book.record("auto", "compiled", "dynamic", "bail-out")
        assert book.counts() == {
            ("auto", "fused", "static"): 2,
            ("auto", "compiled", "dynamic"): 1,
        }
        assert book.total() == len(book) == 3
        assert len(book.events()) == 3

    def test_summary_and_clear(self):
        book = ledger.DegradationLedger()
        assert "empty" in book.summary()
        book.record("auto", "fused", "crash", "ZeroDivisionError")
        assert "backend 'fused' declined 1x (crash)" in book.summary()
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
            book.record("auto", "fused", "static", "r")
        assert len(book.events()) == ledger._MAX_EVENTS
        assert book.total() == ledger._MAX_EVENTS + 5
        assert "counts exact" in book.summary()

    def test_launch_records_declines_of_the_real_chain(self):
        # A barrier + early return is statically refused by every tier
        # but scalar: the graceful "fused" chain must record each
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
        launch(program, 4, 4, {"x": out, "n": 4}, engine="fused")
        np.testing.assert_array_equal(out.data, np.ones(4))
        counts = ledger.counts()
        assert any(
            engine == "fused" and kind in ("static", "dynamic")
            for (engine, backend, kind) in counts
        )
        assert ("fused", "scalar", "static") not in counts


@pytest.fixture
def crashing_plan(monkeypatch):
    """The compiled backend's plan() crashes with a planted bug."""

    def plan(parsed, kernel):
        raise ZeroDivisionError("planted bug in plan()")

    monkeypatch.setattr(get_backend("compiled"), "plan", plan)


class TestCrashShield:
    def test_plan_crash_falls_through_and_is_ledgered(self, crashing_plan):
        out = _run_saxpy(engine="auto")
        np.testing.assert_array_equal(
            out, 2.0 * np.arange(32, dtype=float) + 1.0
        )
        assert ledger.counts() == {("auto", "compiled", "crash"): 1}
        (event,) = ledger.events()
        assert event.reason == "ZeroDivisionError: planted bug in plan()"

    def test_final_member_crash_is_not_shielded(self, crashing_plan):
        with pytest.raises(ZeroDivisionError, match="planted bug"):
            _run_saxpy(engine="compiled")
        assert ledger.counts() == {("compiled", "compiled", "crash"): 1}


class TestBackendRunFaultSite:
    def test_certain_faults_decline_every_non_final_backend(self):
        with faultinject.plan_installed("seed=1;backend-run=1.0"):
            out = _run_saxpy(engine="auto")
        np.testing.assert_array_equal(
            out, 2.0 * np.arange(32, dtype=float) + 1.0
        )
        # auto = compiled -> scalar: the one non-final member was
        # declined by injection, scalar (exempt) served the launch.
        assert ledger.counts() == {("auto", "compiled", "fault"): 1}

    def test_chaos_run_is_bitwise_identical_to_clean_run(self):
        clean = _run_saxpy(engine="auto")
        with faultinject.plan_installed("seed=11;rate=0.5"):
            # A single launch makes only a handful of draws; repeat
            # until the plan has demonstrably injected something.
            for _ in range(10):
                chaos = _run_saxpy(engine="auto")
                np.testing.assert_array_equal(chaos, clean)
                if faultinject.total_injected():
                    break
            assert faultinject.total_injected() > 0


class TestExplorerFaultTolerance:
    def test_chaos_results_match_fault_free_results(self, tmp_path):
        baseline = _explore()
        assert baseline.candidates, "fixture must produce candidates"
        with faultinject.plan_installed("seed=11;rate=0.2"):
            chaos = _explore()
            assert faultinject.total_injected() > 0
        assert [c.label for c in chaos.candidates] == \
            [c.label for c in baseline.candidates]
        for a, b in zip(chaos.candidates, baseline.candidates):
            assert a.cycles == b.cycles
            assert a.kernel_source == b.kernel_source
        assert chaos.stats.infra_failures == 0
        assert not chaos.failures

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

    @pytest.mark.parametrize(
        "spec", ["cache-read=0.5", "cache-write=0.5", "backend-run=0.5",
                 "rate=0.3"],
    )
    def test_each_injected_fault_takes_its_one_recovery(self, spec, tmp_path):
        """Every landed fault shows up exactly once, in the counter of its
        site's real recovery, and the search comes out as the fault-free
        one does, cold and then warm."""
        baseline = _explore()
        cache = TuningCache(tmp_path)
        with faultinject.plan_installed(f"seed=11;{spec}"):
            for _ in ("cold", "warm"):
                chaos = _explore(cache=cache)
                assert not chaos.failures
                assert [(c.label, c.cycles, c.kernel_source)
                        for c in chaos.candidates] == \
                    [(c.label, c.cycles, c.kernel_source)
                     for c in baseline.candidates]
            injected = {
                site: c.injected for site, c in faultinject.counts().items()
            }
        site = spec.partition("=")[0]
        if site in faultinject.SITES:
            assert injected[site] > 0
            assert sum(injected.values()) == injected[site]
        else:
            assert all(injected.get(s) for s in faultinject.SITES), injected
        declines = sum(
            n for (_, _, kind), n in ledger.counts().items() if kind == "fault"
        )
        assert cache.stats.io_errors == injected.get("cache-read", 0)
        assert cache.stats.write_skips == injected.get("cache-write", 0)
        assert declines == injected.get("backend-run", 0)

    def test_a_chaos_search_replays_its_faults(self, tmp_path):
        seen = []
        for run in ("first", "again"):
            ledger.clear()
            cache = TuningCache(tmp_path / run)
            with faultinject.plan_installed("seed=11;rate=0.3"):
                result = _explore(cache=cache)
                faults = faultinject.as_dict()
            seen.append((
                faults, cache.stats.as_dict(), ledger.counts(),
                [(c.label, c.cycles) for c in result.candidates],
            ))
        assert seen[0] == seen[1]
        assert sum(c["injected"] for c in seen[0][0]["sites"].values()) > 0

    def test_failures_listed_in_describe(self, monkeypatch):
        result = self._explore_failing("compile", monkeypatch)
        text = result.describe()
        assert "quarantined" in text
        assert "fails at compile: compile" in text

    def test_cache_faults_do_not_change_results(self, tmp_path):
        baseline = _explore(tmp_path / "clean")
        with faultinject.plan_installed("seed=11;cache-read=0.3;cache-write=0.3"):
            chaos = _explore(tmp_path / "chaos")
        assert [c.label for c in chaos.candidates] == \
            [c.label for c in baseline.candidates]
        for a, b in zip(chaos.candidates, baseline.candidates):
            assert a.cycles == b.cycles
            assert a.kernel_source == b.kernel_source

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
