"""The resilience layer: deterministic fault injection, the degradation
ledger and crash shield on backend fallback chains, and the explorer's
fault tolerance (in-place recovery to bit-identical results under a
chaos plan, escaped faults quarantined as ``infra``, the failure
taxonomy)."""

import numpy as np
import pytest

from repro import faultinject
from repro.arith import Var
from repro.backend import get_backend, ledger
from repro.cache import TuningCache
from repro.faultinject import FaultInjected, FaultPlan, FaultState
from repro.ir.dsl import map_
from repro.ir.nodes import Lambda, Param, UserFun
from repro.opencl import Buffer, OpenCLProgram, launch
from repro.rewrite.explore import (
    FAILURE_KINDS,
    ExploreConfig,
    FailureReport,
    explore_program,
)
from repro.types import ArrayType, FLOAT

#: The explorer's stages that draw at a fault site of their own name.
STAGE_SITES = ("compile", "simulate", "verify")

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


def _explore(tmp_path=None, **config_kwargs):
    config = ExploreConfig(depth=2, max_eval=6, **config_kwargs)
    cache = TuningCache(tmp_path) if tmp_path is not None else None
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
        assert plan.rate("compile") == 0.05
        assert plan.any_faults()

    def test_per_site_rates_override_default(self):
        plan = FaultPlan.parse("seed=7;rate=0.1;cache-read=0.5")
        assert plan.rate("cache-read") == 0.5
        assert plan.rate("cache-write") == 0.1

    def test_attempts_field(self):
        assert FaultPlan.parse("rate=1;attempts=2").attempts == 2
        # attempts is clamped to at least one draw.
        assert FaultPlan.parse("rate=1;attempts=0").attempts == 1

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
        "site", ["service-admit", "service-worker", "service-journal"]
    )
    def test_a_spec_naming_a_deleted_site_fails_fast(self, site):
        with pytest.raises(ValueError, match="unknown") as err:
            FaultPlan.parse(f"seed=3;{site}=0.4")
        assert ", ".join(faultinject.SITES) in str(err.value)

    def test_describe_round_trips(self):
        plan = FaultPlan.parse("seed=9;rate=0.25;verify=1.0")
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
        draws_a = [a._draw("compile")[0] for _ in range(200)]
        draws_b = [b._draw("compile")[0] for _ in range(200)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_different_seed_different_decisions(self):
        a = FaultState(FaultPlan(seed=1, default_rate=0.3))
        b = FaultState(FaultPlan(seed=2, default_rate=0.3))
        draws_a = [a._draw("compile")[0] for _ in range(200)]
        draws_b = [b._draw("compile")[0] for _ in range(200)]
        assert draws_a != draws_b

    def test_sites_are_independent_streams(self):
        state = FaultState(FaultPlan(seed=5, default_rate=0.5))
        compile_draws = [state._draw("compile")[0] for _ in range(100)]
        verify_draws = [state._draw("verify")[0] for _ in range(100)]
        assert compile_draws != verify_draws

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
        first = [state._draw("simulate")[0] for _ in range(50)]
        state.reset_counts()
        again = [state._draw("simulate")[0] for _ in range(50)]
        assert first == again


class TestSurviveAndMaybeFail:
    def test_rate_zero_never_injects(self):
        state = FaultState(FaultPlan(seed=0, default_rate=0.0))
        for _ in range(100):
            state.maybe_fail("compile")
            assert state.survive("compile") == 0

    def test_rate_one_escapes_after_attempts(self):
        state = FaultState(FaultPlan(seed=0, default_rate=1.0, attempts=3))
        with pytest.raises(FaultInjected) as err:
            state.survive("compile")
        assert err.value.site == "compile"
        c = state.counts()["compile"]
        assert c.checks == 3
        assert c.injected == 3
        assert c.recovered == 2
        assert c.escaped == 1

    def test_partial_rate_usually_recovers_in_place(self):
        # With rate 0.5 and 4 attempts, escapes need 4 consecutive
        # injections (~6%); over many calls most recover.
        state = FaultState(FaultPlan(seed=7, default_rate=0.5, attempts=4))
        absorbed = escaped = 0
        for _ in range(100):
            try:
                absorbed += state.survive("cache-read")
            except FaultInjected:
                escaped += 1
        assert absorbed > 0
        c = state.counts()["cache-read"]
        # An escaping call burns all 4 attempts: 3 recovered draws the
        # caller never sees plus the escaping one.
        assert c.recovered == absorbed + 3 * escaped
        assert c.escaped == escaped
        assert c.injected == c.recovered + c.escaped

    def test_module_fast_path_with_no_plan(self):
        assert faultinject.active_plan() is None
        assert faultinject.survive("compile") == 0
        faultinject.maybe_fail("compile")  # no-op
        assert faultinject.counts() == {}
        assert faultinject.total_injected() == 0

    def test_set_plan_accepts_spec_strings(self):
        faultinject.set_plan("seed=11;rate=1.0;attempts=1")
        with pytest.raises(FaultInjected):
            faultinject.survive("verify")
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
        state = FaultState(FaultPlan.parse(f"seed=1;{site}=1.0;attempts=2"))
        with pytest.raises(FaultInjected) as err:
            state.survive(site)
        assert (err.value.site, err.value.sequence) == (site, 1)
        with pytest.raises(FaultInjected):
            state.maybe_fail(site)
        for other in faultinject.SITES:
            if other != site:
                assert state.survive(other) == 0
                state.maybe_fail(other)
        assert state.counts()[site].as_dict() == {
            "checks": 3, "injected": 3, "recovered": 1, "escaped": 2,
        }


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

    def test_faults_are_recovered_in_place(self):
        # survive() is the one retry: at rate 0.5 it redraws most
        # faults at the compile site itself, and the search comes out
        # as the fault-free one does.
        baseline = _explore()
        with faultinject.plan_installed("seed=3;compile=0.5"):
            chaos = _explore()
            recovered = faultinject.counts()["compile"].recovered
        assert recovered > 0
        assert not chaos.failures
        assert [c.label for c in chaos.candidates] == \
            [c.label for c in baseline.candidates]
        for a, b in zip(chaos.candidates, baseline.candidates):
            assert a.cycles == b.cycles
            assert a.kernel_source == b.kernel_source

    def test_unrecoverable_faults_become_infra_failures(self):
        with faultinject.plan_installed("seed=1;compile=1.0;attempts=1"):
            result = _explore()
            checks = faultinject.counts()["compile"].checks
        assert not result.candidates
        assert result.stats.infra_failures == len(result.failures) > 0
        for report in result.failures:
            assert report.kind == "infra"
            assert "'compile'" in report.message
        # One evaluation per candidate: no second attempt draws again.
        assert checks == len(result.failures)
        # The taxonomy is visible in the stats dict.
        assert result.stats.as_dict()["infra_failures"] > 0

    @pytest.mark.parametrize("site", STAGE_SITES)
    def test_an_escaped_fault_is_infra_whatever_the_stage(self, site):
        """A fault that escapes survive() inside a stage is not that
        stage's failure: the schedule did nothing wrong."""
        from repro.rewrite.explore import _FAILURE_STAT

        with faultinject.plan_installed(f"seed=1;{site}=1.0;attempts=1"):
            result = _explore()
            escaped = faultinject.counts()[site].escaped
        assert not result.candidates
        assert [r.kind for r in result.failures] == \
            ["infra"] * len(result.failures)
        assert escaped == len(result.failures) > 0
        for report in result.failures:
            assert report.message.startswith(
                f"FaultInjected: injected fault at {site!r}"
            )
        assert {
            kind: getattr(result.stats, stat)
            for kind, stat in _FAILURE_STAT.items() if kind != "infra"
        } == {kind: 0 for kind in FAILURE_KINDS if kind != "infra"}

    @pytest.mark.parametrize("attempts", [1, 2, 4])
    @pytest.mark.parametrize("site", STAGE_SITES)
    def test_a_persistent_fault_spends_exactly_the_site_budget(
        self, site, attempts
    ):
        """Each candidate is evaluated once, so a fault that never
        clears is drawn ``attempts`` times per candidate — survive()'s
        budget, not multiplied by any outer retry."""
        with faultinject.plan_installed(
            f"seed=1;{site}=1.0;attempts={attempts}"
        ):
            result = _explore()
            counts = faultinject.counts()[site].as_dict()
        n = len(result.failures)
        assert n > 0 and not result.candidates
        assert counts == {
            "checks": attempts * n, "injected": attempts * n,
            "recovered": (attempts - 1) * n, "escaped": n,
        }
        assert result.stats.infra_failures == n
        assert "retries" not in result.stats.as_dict()

    @pytest.mark.parametrize("site", STAGE_SITES)
    def test_a_faulted_candidate_is_quarantined_or_exact(self, site):
        """Under partial chaos at one stage every candidate either comes
        out as in the fault-free search or is an ``infra`` failure, one
        per fault that escaped."""
        baseline = {c.label: c for c in _explore().candidates}
        recovered = 0
        for seed in range(1, 6):
            with faultinject.plan_installed(
                f"seed={seed};{site}=0.5;attempts=2"
            ):
                chaos = _explore()
                counts = faultinject.counts()[site]
            recovered += counts.recovered
            assert counts.escaped == len(chaos.failures)
            assert [r.kind for r in chaos.failures] == \
                ["infra"] * len(chaos.failures)
            assert {c.label for c in chaos.candidates} | \
                {r.label for r in chaos.failures} == set(baseline)
            for cand in chaos.candidates:
                assert cand.cycles == baseline[cand.label].cycles
                assert cand.kernel_source == \
                    baseline[cand.label].kernel_source
        assert recovered > 0

    def test_failures_listed_in_describe(self):
        with faultinject.plan_installed("seed=1;compile=1.0;attempts=1"):
            result = _explore()
        text = result.describe()
        assert "quarantined" in text

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
