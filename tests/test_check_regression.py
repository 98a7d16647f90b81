"""The CI perf-regression gate: floors, fan-out parity, baseline drift."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def _healthy():
    return {
        "concurrent_speedup": 5.5,
        "warm_agent_scans": 0,
        "fanout": [
            {"agents": 4, "threaded_scans_per_s": 370.0, "async_scans_per_s": 375.0},
            {
                "agents": 256,
                "threaded_scans_per_s": 780.0,
                "async_scans_per_s": 15000.0,
            },
        ],
        "sharding": [
            {
                "shards": 1,
                "threaded_ms": 105.0,
                "async_ms": 108.0,
                "threaded_speedup_vs_1": 1.0,
                "async_speedup_vs_1": 1.0,
            },
            {
                "shards": 8,
                "threaded_ms": 30.0,
                "async_ms": 33.0,
                "threaded_speedup_vs_1": 3.5,
                "async_speedup_vs_1": 3.2,
            },
        ],
        "restart": {
            "cold_ms": 23.0,
            "cold_agent_scans": 8,
            "warm_restart_ms": 3.6,
            "warm_restart_agent_scans": 0,
            "cache_restores": 40,
            "answers_match": True,
        },
        "service": {
            "clients": 8,
            "requests_per_client": 25,
            "cold_ms": 45.0,
            "req_per_s": 150.0,
            "p50_ms": 40.0,
            "p99_ms": 95.0,
            "warm_agent_scans": 0,
            "status_errors": 0,
            "completed": 200,
        },
        "sources": {
            "experiment": "E-R7 heterogeneous source adapters at 1e5 instances",
            "backend": "sqlite",
            "seed": 41,
            "schemas": 3,
            "total_instances": 108060,
            "write_ms": 400.0,
            "load_integrate_ms": 2.0,
            "cold_ms": 624.0,
            "warm_ms": 122.0,  # warm from cached lift slices
            "cold_agent_scans": 3,
            "warm_agent_scans": 0,
            "answers": 2354,
            "answers_match_memory": True,
            "scan_extent": 32000,
            "scan_instances_per_s": 80000.0,
        },
        "deltas": {
            "experiment": "E-R8 incremental invalidation under mixed load",
            "operations": 200,
            "reads": 180,
            "writes": 20,
            "injected_latency_ms": 5.0,
            "patched_agent_scans": 0,
            "bump_agent_scans": 19,
            "patched_scans_per_query": 0.0,
            "bump_scans_per_query": 0.1056,
            "granules_patched": 19,
            "deltas_applied": 19,
            "fallback_invalidations": 0,
            "baseline_granules_patched": 0,
            "patched_read_ms": 8.4,
            "bump_read_ms": 8.8,
            "answers": 170,
            "answers_match": True,
        },
        "planner": [
            {
                "federation": "genealogy",
                "unplanned_round_trips": 3,
                "planned_round_trips": 2,
                "round_trip_reduction": 1.5,
                "answers_match": True,
            },
            {
                "federation": "cluster",
                "unplanned_round_trips": 8,
                "planned_round_trips": 4,
                "round_trip_reduction": 2.0,
                "answers_match": True,
            },
        ],
    }


class TestCheck:
    def test_healthy_numbers_pass(self):
        assert check_regression.check(_healthy()) == []

    def test_speedup_floor(self):
        doc = _healthy()
        doc["concurrent_speedup"] = 2.4
        problems = check_regression.check(doc)
        assert any("below the 3.0 floor" in p for p in problems)

    def test_warm_scans_must_be_zero(self):
        doc = _healthy()
        doc["warm_agent_scans"] = 7
        problems = check_regression.check(doc)
        assert any("warm_agent_scans is 7" in p for p in problems)

    def test_missing_fanout_series_fails(self):
        doc = _healthy()
        del doc["fanout"]
        assert any("fanout" in p for p in check_regression.check(doc))

    def test_async_must_match_threaded_at_largest_scale(self):
        doc = _healthy()
        doc["fanout"][-1]["async_scans_per_s"] = 500.0
        problems = check_regression.check(doc)
        assert any("trails threaded" in p for p in problems)

    def test_missing_sharding_series_fails(self):
        doc = _healthy()
        del doc["sharding"]
        assert any(
            "sharding series is missing" in p for p in check_regression.check(doc)
        )

    def test_sharding_without_a_multi_shard_entry_fails(self):
        doc = _healthy()
        doc["sharding"] = doc["sharding"][:1]  # only the N=1 baseline ran
        problems = check_regression.check(doc)
        assert any("no multi-shard entry" in p for p in problems)

    def test_shard_speedup_floor_gates_both_modes(self):
        doc = _healthy()
        doc["sharding"][-1]["async_speedup_vs_1"] = 1.1
        problems = check_regression.check(doc)
        assert any(
            "async_speedup_vs_1 1.1 at 8 shards is below the 1.5 floor" in p
            for p in problems
        )
        doc["sharding"][-1]["threaded_speedup_vs_1"] = 0.9
        problems = check_regression.check(doc)
        assert any("threaded_speedup_vs_1 0.9" in p for p in problems)

    def test_shard_speedup_floor_is_configurable(self):
        doc = _healthy()  # 3.5x / 3.2x at 8 shards
        assert check_regression.check(doc, min_shard_speedup=3.0) == []
        problems = check_regression.check(doc, min_shard_speedup=4.0)
        assert len([p for p in problems if "below the 4.0 floor" in p]) == 2

    def test_missing_restart_section_fails(self):
        doc = _healthy()
        del doc["restart"]
        assert any(
            "restart section is missing" in p for p in check_regression.check(doc)
        )

    def test_warm_restart_scans_must_be_zero(self):
        doc = _healthy()
        doc["restart"]["warm_restart_agent_scans"] = 4
        problems = check_regression.check(doc)
        assert any("warm_restart_agent_scans is 4" in p for p in problems)

    def test_restart_answers_must_match_cold_run(self):
        doc = _healthy()
        doc["restart"]["answers_match"] = False
        problems = check_regression.check(doc)
        assert any("diverged from the cold run" in p for p in problems)

    def test_warm_restart_must_beat_cold_start(self):
        doc = _healthy()
        doc["restart"]["warm_restart_ms"] = 25.0  # slower than cold 23.0
        problems = check_regression.check(doc)
        assert any("not below cold_ms" in p for p in problems)

    def test_restart_must_restore_something(self):
        doc = _healthy()
        doc["restart"]["cache_restores"] = 0
        problems = check_regression.check(doc)
        assert any("restored nothing" in p for p in problems)

    def test_missing_service_section_fails(self):
        doc = _healthy()
        del doc["service"]
        assert any(
            "service section is missing" in p for p in check_regression.check(doc)
        )

    def test_service_needs_eight_clients(self):
        doc = _healthy()
        doc["service"]["clients"] = 4
        problems = check_regression.check(doc)
        assert any("expected >= 8" in p for p in problems)

    def test_service_errors_fail_the_gate(self):
        doc = _healthy()
        doc["service"]["status_errors"] = 3
        problems = check_regression.check(doc)
        assert any("status_errors is 3" in p for p in problems)

    def test_service_warm_scans_must_be_zero(self):
        doc = _healthy()
        doc["service"]["warm_agent_scans"] = 2
        problems = check_regression.check(doc)
        assert any("service warm_agent_scans is 2" in p for p in problems)

    def test_service_throughput_floor(self):
        doc = _healthy()
        doc["service"]["req_per_s"] = 5.0
        problems = check_regression.check(doc)
        assert any("below the 20.0" in p for p in problems)
        assert check_regression.check(_healthy(), min_service_rps=100.0) == []
        problems = check_regression.check(_healthy(), min_service_rps=200.0)
        assert any("below the 200.0" in p for p in problems)

    def test_service_latency_consistency(self):
        doc = _healthy()
        doc["service"]["p99_ms"] = 10.0  # below the p50
        problems = check_regression.check(doc)
        assert any("latencies are inconsistent" in p for p in problems)

    def test_missing_planner_section_fails(self):
        doc = _healthy()
        del doc["planner"]
        problems = check_regression.check(doc)
        assert any("genealogy, cluster" in p for p in problems)

    def test_planner_must_cover_both_federations(self):
        doc = _healthy()
        doc["planner"] = doc["planner"][:1]  # only genealogy ran
        problems = check_regression.check(doc)
        assert any("missing cluster" in p for p in problems)

    def test_planned_round_trips_must_be_strictly_fewer(self):
        doc = _healthy()
        doc["planner"][1]["planned_round_trips"] = 8  # equal, not fewer
        problems = check_regression.check(doc)
        assert any(
            "8 planned vs 8 unplanned" in p and "cluster" in p
            for p in problems
        )
        doc["planner"][1]["planned_round_trips"] = 0  # no traffic at all
        problems = check_regression.check(doc)
        assert any("0 planned" in p for p in problems)

    def test_planner_answers_must_match(self):
        doc = _healthy()
        doc["planner"][0]["answers_match"] = False
        problems = check_regression.check(doc)
        assert any(
            "answers_match on genealogy" in p for p in problems
        )

    def test_missing_sources_section_fails(self):
        doc = _healthy()
        del doc["sources"]
        assert any(
            "sources section is missing" in p for p in check_regression.check(doc)
        )

    def test_sources_need_a_large_extent(self):
        doc = _healthy()
        doc["sources"]["total_instances"] = 9000
        problems = check_regression.check(doc)
        assert any("expected >= 100000" in p for p in problems)

    def test_sources_warm_scans_must_be_zero(self):
        doc = _healthy()
        doc["sources"]["warm_agent_scans"] = 3
        problems = check_regression.check(doc)
        assert any("sources warm_agent_scans is 3" in p for p in problems)

    def test_sources_cold_run_must_scan(self):
        doc = _healthy()
        doc["sources"]["cold_agent_scans"] = 0
        problems = check_regression.check(doc)
        assert any("cold run scanned no adapter" in p for p in problems)

    def test_sources_query_must_select_something(self):
        doc = _healthy()
        doc["sources"]["answers"] = 0
        problems = check_regression.check(doc)
        assert any("selected nothing" in p for p in problems)

    def test_sources_answers_must_match_memory(self):
        doc = _healthy()
        doc["sources"]["answers_match_memory"] = False
        problems = check_regression.check(doc)
        assert any(
            "diverged from the in-memory baseline" in p for p in problems
        )

    def test_sources_warm_query_relifting_fails(self):
        doc = _healthy()
        doc["sources"]["cold_ms"] = 994.0
        doc["sources"]["warm_ms"] = 978.0  # the re-lifting warm path
        problems = check_regression.check(doc)
        assert any("sources warm_ms 978.0 is not 4x below" in p for p in problems)

    def test_sources_warm_gate_boundary(self):
        doc = _healthy()
        doc["sources"]["cold_ms"] = 400.0
        doc["sources"]["warm_ms"] = 100.0  # exactly 4x: passes
        assert check_regression.check(doc) == []
        doc["sources"]["warm_ms"] = 100.5
        assert any("not 4x below" in p for p in check_regression.check(doc))

    def test_missing_deltas_section_fails(self):
        doc = _healthy()
        del doc["deltas"]
        assert any(
            "deltas section is missing" in p for p in check_regression.check(doc)
        )

    def test_deltas_mixed_load_must_write(self):
        doc = _healthy()
        doc["deltas"]["writes"] = 0
        problems = check_regression.check(doc)
        assert any("mixed load never wrote" in p for p in problems)

    def test_patched_scans_must_be_strictly_fewer(self):
        doc = _healthy()
        doc["deltas"]["patched_agent_scans"] = 19  # equal, not fewer
        problems = check_regression.check(doc)
        assert any(
            "19 patched vs 19 bumped" in p for p in problems
        )
        doc["deltas"]["patched_agent_scans"] = -1  # section malformed
        problems = check_regression.check(doc)
        assert any("expected strictly fewer patched" in p for p in problems)

    def test_delta_side_must_patch_something(self):
        doc = _healthy()
        doc["deltas"]["granules_patched"] = 0
        problems = check_regression.check(doc)
        assert any("patched nothing" in p for p in problems)

    def test_baseline_side_must_not_patch(self):
        doc = _healthy()
        doc["deltas"]["baseline_granules_patched"] = 3
        problems = check_regression.check(doc)
        assert any(
            "baseline_granules_patched is nonzero" in p for p in problems
        )

    def test_deltas_answers_must_match(self):
        doc = _healthy()
        doc["deltas"]["answers_match"] = False
        problems = check_regression.check(doc)
        assert any(
            "diverged from the rescan baseline" in p for p in problems
        )

    def test_delta_side_must_not_relift_slices_without_fallbacks(self):
        doc = _healthy()
        doc["deltas"].update(
            lift_slices_built=0, lift_slices_patched=57, lift_slices_dropped=0
        )
        assert check_regression.check(doc) == []
        doc["deltas"]["lift_slices_built"] = 2
        problems = check_regression.check(doc)
        assert any("lift_slices_built is 2 with no fallback" in p for p in problems)
        doc["deltas"]["fallback_invalidations"] = 1  # a fallback may relift
        assert check_regression.check(doc) == []

    def test_sources_scan_throughput_drift_fails(self):
        fresh = _healthy()
        fresh["sources"]["scan_instances_per_s"] = 30000.0  # < 50% of 80000
        problems = check_regression.check(fresh, _healthy())
        assert any(
            "scan_instances_per_s 30000.0 fell below 50%" in p
            for p in problems
        )

    def test_planner_round_trip_drift_fails(self):
        fresh = _healthy()
        # still strictly fewer than unplanned, but more than the baseline
        fresh["planner"][1]["planned_round_trips"] = 6
        problems = check_regression.check(fresh, _healthy())
        assert any(
            "rose to 6 from the committed baseline (4)" in p
            for p in problems
        )

    def test_planner_reduction_ratio_drift_fails(self):
        fresh = _healthy()
        fresh["planner"][1]["round_trip_reduction"] = 0.9
        problems = check_regression.check(fresh, _healthy())
        assert any(
            "round_trip_reduction on cluster (0.9) fell below 50%" in p
            for p in problems
        )

    def test_service_throughput_drift_fails(self):
        fresh = _healthy()
        fresh["service"]["req_per_s"] = 60.0  # above floor, < 50% of 150
        problems = check_regression.check(fresh, _healthy())
        assert any(
            "service req_per_s 60.0 fell below 50%" in p for p in problems
        )

    def test_baseline_drift_fails_even_above_floors(self):
        fresh = _healthy()
        fresh["concurrent_speedup"] = 3.5  # above the 3.0 floor...
        baseline = _healthy()
        baseline["concurrent_speedup"] = 12.0  # ...but < 50% of the baseline
        problems = check_regression.check(fresh, baseline)
        assert any("fell below 50%" in p for p in problems)

    def test_fanout_throughput_drift_fails(self):
        fresh = _healthy()
        fresh["fanout"][-1]["async_scans_per_s"] = 2000.0  # still > threaded
        problems = check_regression.check(fresh, _healthy())
        assert any("256 agents" in p for p in problems)

    def test_shard_speedup_drift_fails(self):
        fresh = _healthy()
        # above the 1.5 floor, but less than 50% of the committed 3.5x
        fresh["sharding"][-1]["threaded_speedup_vs_1"] = 1.6
        problems = check_regression.check(fresh, _healthy())
        assert any(
            "threaded_speedup_vs_1 at 8 shards (1.6) fell below 50%" in p
            for p in problems
        )

    def test_tolerance_is_configurable(self):
        fresh = _healthy()
        fresh["concurrent_speedup"] = 3.1
        baseline = _healthy()  # 5.5; 3.1 is ~56% of it
        assert check_regression.check(fresh, baseline, tolerance=0.5) == []
        problems = check_regression.check(fresh, baseline, tolerance=0.9)
        assert any("fell below 90%" in p for p in problems)


class TestMain:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_on_healthy_run(self, tmp_path, capsys):
        fresh = self._write(tmp_path, "fresh.json", _healthy())
        assert check_regression.main([fresh]) == 0
        assert "regression gate passed" in capsys.readouterr().out

    def test_exit_one_on_artificial_slowdown(self, tmp_path, capsys):
        doc = _healthy()
        doc["concurrent_speedup"] = 1.1  # the documented artificial slowdown
        fresh = self._write(tmp_path, "fresh.json", doc)
        baseline = self._write(tmp_path, "baseline.json", _healthy())
        assert check_regression.main([fresh, "--baseline", baseline]) == 1
        out = capsys.readouterr().out
        assert "regression gate FAILED" in out
        assert "below the 3.0 floor" in out

    def test_unreadable_fresh_file_fails(self, tmp_path):
        assert check_regression.main([str(tmp_path / "missing.json")]) == 1

    def test_real_committed_baseline_passes_the_gate(self):
        committed = (
            Path(__file__).resolve().parent.parent / "BENCH_runtime.json"
        )
        doc = json.loads(committed.read_text())
        assert check_regression.check(doc, doc) == []
