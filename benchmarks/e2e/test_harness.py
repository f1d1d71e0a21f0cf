"""Checks of the harness itself; runs no workload."""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_folds_nested_spans():
    # root 0..10 > a 1..4 > b 2..3, and root > c 5..9; iteration 1 apart
    tree = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["a", 20.0, 21.5, -1, 1],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.5]
    folded = spans.fold(tree)
    assert folded == {
        0: {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}, 1: {"a": 1.5}
    }
    # self times of an iteration add up to its outermost span
    assert sum(folded[0].values()) == 10.0


def test_recorder_nests_and_renames(tmp_path):
    rec = spans.Recorder(enabled=True)
    rec.iteration = 3
    with rec.span("outer"):
        with rec.span("backend.run") as inner:
            pass
    inner[0] = "backend.fused.run"
    names = [s[0] for s in rec.spans]
    parents = [s[3] for s in rec.spans]
    assert names == ["outer", "backend.fused.run"]
    assert parents == [-1, 0] and rec.spans[1][4] == 3
    assert all(s[1] <= s[2] for s in rec.spans)
    rec.write_chrome_trace(tmp_path / "t.json")
    events = json.loads((tmp_path / "t.json").read_text())["traceEvents"]
    assert [e["args"]["parent"] for e in events] == [-1, 0]

    off = spans.Recorder(enabled=False)
    with off.span("anything"):
        pass
    assert off.spans == []


def test_served_backend_from_counter_deltas():
    before = {"launch.total": 4, "launch.served.compiled": 3,
              "launch.served.scalar": 1}
    after = dict(before, **{"launch.total": 6, "launch.served.scalar": 3})
    assert spans.served_backend(before, after) == "scalar"
    first = {"launch.total": 1, "launch.served.fused": 1}
    assert spans.served_backend({}, first) == "fused"
    for bad in (before, dict(after, **{"launch.served.fused": 1})):
        try:
            spans.served_backend(before, bad)
        except ValueError:
            continue
        raise AssertionError("zero or two serving backends must be refused")


def test_quartiles_and_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert run.quartiles(values) == (2.0, 4.0, 6.0)
    assert run.spread(values) == 1.0
    assert run.quartiles([3.5]) == (3.5, 3.5, 3.5)
    assert run.summary([2.0, 1.0])["n"] == 2


def test_warm_walls_skip_the_cold_iteration():
    assert run.warm_walls({"walls": [9.0, 1.0, 1.1]}) == [1.0, 1.1]
    assert run.warm_walls({"walls": [9.0]}) == [9.0]


def _child(walls, calib_s, setup_s=1.0, cycles=50.0):
    return {"walls": walls, "calib_s": calib_s, "setup_s": setup_s,
            "attempted": [10] * len(walls), "failed": [0] * len(walls),
            "verify_attempted": 2, "verify_failed": 0, "failures": [],
            "digest": "d", "sim_cycles": cycles, "code_bytes": 7,
            "peak_rss_mb": 100.0}


def test_end_to_end_states_times_at_the_reference_speed():
    ref = run.REFERENCE_CALIB_S
    # the second child ran while the machine was twice as slow
    fast = _child([3.0, 1.0, 1.0], ref, setup_s=1.0)
    slow = _child([6.0, 2.0, 2.0], 2 * ref, setup_s=3.0)
    mid = _child([3.0, 1.0, 1.0], ref, setup_s=2.0)
    out = run.end_to_end([fast, slow, mid])
    assert out["metrics"]["wall_s"] == 1.0            # warm, scaled
    assert out["as_measured"]["wall_s"] == 1.0        # median of 1,1,2,2,1,1
    assert out["metrics"]["ops_per_s"] == 90 / 15.0   # cold ones included
    assert out["as_measured"]["ops_per_s"] == 90 / 20.0
    assert out["metrics"]["setup_s"] == 2.0           # as measured
    assert out["samples"]["wall_s"]["n"] == 6
    assert out["attempted"] == 96 and out["failed"] == 0 and out["correct"]
    assert out["iter0_over_median"] == 3.0

    odd = _child([3.0, 1.0], ref, cycles=51.0)
    out = run.end_to_end([fast, odd])
    assert not out["correct"]
    assert "sim_cycles differs" in out["problems"][0]


def test_compare_verdicts():
    tight_a = [1.00, 1.01, 0.99, 1.00]
    tight_b = [1.30, 1.31, 1.29, 1.30]
    wide_a = [1.0, 1.6, 0.7, 1.2]
    wide_b = [1.3, 0.8, 1.9, 1.1]
    v = run.verdict
    assert v("lower", 0.15, 1.0, 1.05, tight_a, tight_a) == "ok"
    assert v("lower", 0.15, 1.0, 1.3, tight_a, tight_b) == "regressed"
    # higher is better: B a third slower than A
    assert v("higher", 0.15, 1.3, 1.0, tight_b, tight_a) == "regressed"
    assert v("higher", 0.15, 1.0, 1.3, tight_a, tight_b) == "ok"
    # spread wider than the bound: undecidable ...
    assert v("lower", 0.15, 1.1, 1.2, wide_a, wide_b) == "unresolved"
    # ... unless every run of B beats every run of A
    assert v("lower", 0.15, 1.1, 0.5, wide_a, [0.5, 0.6, 0.4, 0.65]) == "ok"
    # no samples (a count judged by its bound across seeds)
    assert v("lower", 0.01, 4704.0, 4704.3) == "ok"
    assert v("lower", 0.01, 4704.0, 4800.0) == "regressed"
    # no bound: bit-equal or not
    assert v("lower", None, 4704.0, 4704.0) == "ok"
    assert v("lower", None, 4704.0, 4705.0) == "differs"


def test_compare_reads_two_documents(tmp_path, capsys):
    def doc(seed, wall, cycles, kernels):
        e2e = {r[0]: 1.0 for r in M.END_TO_END}
        e2e.update(wall_s=wall, sim_cycles=cycles)
        layers = dict.fromkeys(M.PER_LAYER_NAMES, 0.0)
        layers["compiler.kernels"] = kernels
        return {"seed": seed, "workloads": {"compile_all": {
            "end_to_end": e2e, "per_layer": layers, "failed": 0,
            "fail_share": 0.0,
            "samples": {"wall_s": {"samples": [wall, wall * 1.01]}},
        }}}

    def cmp(a, b):
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        status = run.compare(tmp_path / "a.json", tmp_path / "b.json")
        return status, capsys.readouterr().out

    assert cmp(doc(7, 1.0, 50.0, 78), doc(7, 1.1, 50.0, 78))[0] == 0
    status, out = cmp(doc(7, 1.0, 50.0, 78), doc(7, 1.4, 50.0, 78))
    assert status == 1 and "regressed" in out
    # same seed: sim_cycles must be bit-equal; other seed: within bound
    status, out = cmp(doc(7, 1.0, 50.0, 78), doc(7, 1.0, 50.001, 78))
    assert status == 1 and "differs" in out
    assert cmp(doc(7, 1.0, 50.0, 78), doc(11, 1.0, 50.001, 78))[0] == 0
    # a count-valued layer metric must be equal whatever the seed
    status, out = cmp(doc(7, 1.0, 50.0, 78), doc(11, 1.0, 50.0, 77))
    assert status == 1 and "differs" in out


def test_names_units_and_manifest_agree():
    manifest = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert manifest == M.manifest()
    names = (
        list(M.WORKLOAD_NAMES)
        + [row[0] for row in M.END_TO_END]
        + list(M.PER_LAYER_NAMES)
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert len(M.PER_LAYER) == 93
    units = [r[1] for r in M.END_TO_END] + [r[1] for r in M.PER_LAYER]
    assert all(UNIT.fullmatch(u) for u in units)
    assert all(r[2] in ("lower", "higher") for r in M.END_TO_END + M.PER_LAYER)
    # the benchmark contract's limits
    assert 2 <= len(manifest["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    bounds = {r[0]: r[3] for r in M.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert set(M.DETERMINISTIC) <= set(bounds)
    assert set(M.UNTRACED_SHARE_WORKLOADS) <= set(M.WORKLOAD_NAMES)


def test_result_line_has_exactly_the_contract_keys():
    result = {"correct": True, "attempted": 7, "failed": 0,
              "metrics": {r[0]: 1.5 for r in M.END_TO_END}}
    line = json.loads(run.result_line(result, M.END_TO_END))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {r[0] for r in M.END_TO_END}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
