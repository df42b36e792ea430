"""Tests for the benchmark harness utilities and the engine baseline."""

import gc
import importlib.util
import json
import time
from pathlib import Path

import pytest

from repro.bench import best_ms, format_ms, format_table, log_log_slope

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestTiming:
    def test_repeat_takes_best(self):
        delays = iter([0.05, 0.0, 0.05])
        assert best_ms(lambda: time.sleep(next(delays)), 3) < 25

    def test_best_ms_runs_repeats_times_with_gc_restored(self):
        calls = []
        assert best_ms(lambda: calls.append(gc.isenabled()), 3) > 0
        assert calls == [False] * 3
        assert gc.isenabled()


class TestFormatting:
    def test_format_ms_dash_for_none(self):
        assert format_ms(None) == "-"

    def test_format_ms_precision(self):
        assert format_ms(0.123) == "0.1"
        assert format_ms(123.4) == "123"

    def test_format_table_aligns(self):
        table = format_table(["a", "bb"], [[1, 2], [33, 444]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(map(len, lines))) == 1  # all lines equal width


def _bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_datalog_engine",
        REPO_ROOT / "benchmarks" / "bench_datalog_engine.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(streamed_ms, pruned=100):
    return {
        "quasi-guarded": {
            "ms": streamed_ms,
            "rules_pruned": pruned,
            "peak_live_rules": 10,
        }
    }


class TestEngineBaseline:
    """The checked-in BENCH_engine.json baseline and the CI gate logic
    around its quasi-guarded solver entries (and the service sections
    owned by bench_solver_service.py)."""

    @pytest.fixture(scope="class")
    def payload(self):
        return json.loads((REPO_ROOT / "BENCH_engine.json").read_text())

    def test_schema_version(self, payload):
        bench = _bench_module()
        assert payload["schema"] == "bench-engine/v13"
        assert payload["schema"] == bench.SCHEMA_VERSION
        assert payload["benchmark"] == "benchmarks/bench_datalog_engine.py"

    def test_quasi_guarded_solver_entries(self, payload):
        solver = payload["solver_workloads"]
        assert any(n.startswith("solve-grid-") for n in solver)
        assert any(n.startswith("solve-grid2x-") for n in solver)
        assert any(n.startswith("solve-chain-") for n in solver)
        assert any(n.startswith("solve-tree-") for n in solver)
        assert "solver_speedups" not in payload
        for name, backends in solver.items():
            if name.startswith("solve-grid2x-"):
                # the width-2 Theorem 4.5 workload runs the streamed
                # production form plus the passes=() ablation
                assert set(backends) == {
                    "quasi-guarded",
                    "quasi-guarded-nopasses",
                }
            else:
                assert set(backends) == {"quasi-guarded"}
            for run in backends.values():
                assert run["ms"] > 0, name
                assert run["answers"] > 0, name
                assert run["ground_rules"] > 0, name
                assert run["peak_live_rules"] >= 0, name
            streamed = backends["quasi-guarded"]
            assert streamed["rules_pruned"] > 0 or name.startswith(
                "solve-grid-"
            ), name

    def test_recorded_grid2x_counts_meet_the_shrink_gate(self, payload):
        """The recorded fold counts: the folded program grounds at
        most a third of the ablation's rules."""
        bench = _bench_module()
        grid2x = [
            backends
            for name, backends in payload["solver_workloads"].items()
            if name.startswith("solve-grid2x-")
        ]
        assert grid2x
        for backends in grid2x:
            assert (
                backends["quasi-guarded"]["ground_rules"]
                * bench.GRID2X_GROUND_RULES_SHRINK
                <= backends["quasi-guarded-nopasses"]["ground_rules"]
            )

    def test_recorded_eval_exponents_meet_the_gate(self, payload):
        bench = _bench_module()
        records = payload["eval_exponent"]
        assert set(records) == {"forest-w1", "ladder-w2"}
        for family, record in records.items():
            assert record["columns"] == list(bench.EVAL_COLUMNS), family
            assert record["domain"] == [2 * n for n in bench.EVAL_COLUMNS]
            assert len(record["ms"]) == len(bench.EVAL_COLUMNS)
            assert all(ms > 0 for ms in record["ms"]), family
            assert record["answers_ok"] is True, family
            assert 0 < record["slope"] <= bench.EVAL_MAX_SLOPE, family

    def test_solver_contract_gate_requires_pruning_on_grid2x(self):
        bench = _bench_module()
        failures = bench.check_solver_contracts(
            "solve-grid2x-20",
            {
                "quasi-guarded": {
                    "ms": 5.0,
                    "rules_pruned": 0,
                    "peak_live_rules": 10,
                }
            },
        )
        assert any("pruned no rules" in f for f in failures)

    def test_solver_contract_gate_requires_pruning(self):
        bench = _bench_module()
        failures = bench.check_solver_contracts(
            "solve-tree-100", _runs(5.0, pruned=0)
        )
        assert any("pruned no rules" in f for f in failures)
        assert bench.check_solver_contracts("solve-chain-120", _runs(5.0)) == []

    def test_solver_contract_gate_requires_the_passes_speedup_on_grid2x(
        self,
    ):
        bench = _bench_module()
        runs = {
            "quasi-guarded": {
                "ms": 5.0,
                "ground_rules": 803,
                "rules_pruned": 10,
                "peak_live_rules": 1,
            },
            "quasi-guarded-nopasses": {"ms": 10.0, "ground_rules": 2959},
        }
        failures = bench.check_solver_contracts("solve-grid2x-20", runs)
        assert any("speedup" in f for f in failures)
        runs["quasi-guarded-nopasses"]["ms"] = 50.0
        assert bench.check_solver_contracts("solve-grid2x-20", runs) == []

    def test_solver_contract_gate_requires_the_ground_rule_shrink_on_grid2x(
        self,
    ):
        """The deterministic half of the fold gate: a count, not a
        timing, so host noise cannot trip it."""
        bench = _bench_module()
        runs = {
            "quasi-guarded": {
                "ms": 5.0,
                "ground_rules": 1000,
                "rules_pruned": 10,
                "peak_live_rules": 1,
            },
            "quasi-guarded-nopasses": {"ms": 50.0, "ground_rules": 2959},
        }
        failures = bench.check_solver_contracts("solve-grid2x-20", runs)
        assert len(failures) == 1 and "fewer" in failures[0]
        runs["quasi-guarded"]["ground_rules"] = 803
        assert bench.check_solver_contracts("solve-grid2x-20", runs) == []

    def test_grid_cover_dp_carries_no_speed_gate(self):
        bench = _bench_module()
        assert (
            bench.check_solver_contracts("solve-grid-8", _runs(40.0, pruned=0))
            == []
        )

    def test_quick_run_exercises_the_solver_gate(self):
        """The CI --quick invocation must include all three workload
        families, so every gate is actually exercised."""
        bench = _bench_module()
        names = [w["name"] for w in bench.solver_workloads(quick=True)]
        assert any(n.startswith("solve-grid-") for n in names)
        assert any(n.startswith("solve-grid2x-") for n in names)
        assert any(n.startswith("solve-chain-") for n in names)
        assert any(n.startswith("solve-tree-") for n in names)


class TestEvalExponentGate:
    """The eval-exponent gate on synthetic slopes: one re-timing, the
    better record kept."""

    @staticmethod
    def _gate(*slopes):
        bench = _bench_module()
        timings = iter(slopes)
        calls = []

        def measure():
            calls.append(1)
            return {"slope": next(timings)}

        record, failures = bench.eval_exponent_gate("ladder-w2", measure)
        return record, failures, len(calls)

    def test_fails_above_the_limit(self):
        record, failures, calls = self._gate(1.3, 1.2)
        assert calls == 2
        assert record["slope"] == 1.2
        assert len(failures) == 1 and "1.200 > 1.15" in failures[0]

    def test_passes_below_the_limit_without_retiming(self):
        record, failures, calls = self._gate(0.9)
        assert (record["slope"], failures, calls) == (0.9, [], 1)

    def test_passes_when_the_retiming_recovers(self):
        record, failures, calls = self._gate(1.3, 1.0)
        assert (record["slope"], failures, calls) == (1.0, [], 2)


class TestBaselineDrift:
    """The schema/shape drift gate between the harness and the
    checked-in BENCH_engine.json."""

    @staticmethod
    def _payload(schema="bench-engine/v13", quick=True):
        return {
            "schema": schema,
            "quick": quick,
            "solver_workloads": {
                "solve-grid2x-20": {
                    "quasi-guarded": {},
                    "quasi-guarded-nopasses": {},
                }
            },
        }

    def test_no_previous_baseline_is_fine(self):
        bench = _bench_module()
        assert bench.check_baseline_drift(None, self._payload()) == []

    def test_identical_shapes_pass(self):
        bench = _bench_module()
        assert (
            bench.check_baseline_drift(self._payload(), self._payload())
            == []
        )

    def test_schema_mismatch_fails(self):
        bench = _bench_module()
        failures = bench.check_baseline_drift(
            self._payload(schema="bench-engine/v2"), self._payload()
        )
        assert any("schema" in f for f in failures)

    def test_workload_set_change_fails_same_quickness(self):
        bench = _bench_module()
        old = self._payload()
        old["solver_workloads"] = {"solve-chain-999": {}}
        failures = bench.check_baseline_drift(old, self._payload())
        assert any("solver_workloads" in f for f in failures)

    def test_workload_set_change_tolerated_across_quickness(self):
        bench = _bench_module()
        old = self._payload(quick=False)
        old["solver_workloads"] = {"solve-chain-400": {}}
        assert bench.check_baseline_drift(old, self._payload()) == []

    def test_solver_backend_set_change_fails(self):
        bench = _bench_module()
        old = self._payload()
        old["solver_workloads"]["solve-grid2x-20"] = {"quasi-guarded": {}}
        failures = bench.check_baseline_drift(old, self._payload())
        assert any("backends" in f for f in failures)

    def test_checked_in_baseline_matches_harness_schema(self):
        bench = _bench_module()
        checked_in = json.loads(
            (REPO_ROOT / "BENCH_engine.json").read_text()
        )
        assert checked_in["schema"] == bench.SCHEMA_VERSION


def _service_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_solver_service",
        REPO_ROOT / "benchmarks" / "bench_solver_service.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _service_record(
    identical=True, p50=10.0, p95=40.0, speedup=3.5, applied=True, workers=4
):
    return {
        "identical": identical,
        "workers": workers,
        "speedup": speedup,
        "latency_ms": {"p50": p50, "p95": p95},
        "gate": {"applied": applied, "required_speedup": 3.0},
    }


class TestServiceThroughput:
    """The service_throughput section of BENCH_engine.json (owned by
    bench_solver_service.py) and its CI gate logic."""

    @pytest.fixture(scope="class")
    def record(self):
        payload = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
        return payload["service_throughput"]

    def test_harness_schemas_agree(self):
        # both harnesses write sections of the same baseline file; a
        # schema bump in one without the other silently forks them
        assert (
            _service_bench_module().ENGINE_SCHEMA
            == _bench_module().SCHEMA_VERSION
        )

    def test_every_section_names_the_schema(self):
        module = _service_bench_module()
        payload = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
        for name in module.SECTIONS:
            assert payload[name]["schema_note"] == (
                f"{name} section of {module.ENGINE_SCHEMA}"
            )

    def test_a_stale_section_fails_the_drift_check(self, tmp_path):
        module = _service_bench_module()
        path = tmp_path / "BENCH_engine.json"
        stale = {"schema_note": "admission section of bench-engine/v1"}
        baseline = {"schema": module.ENGINE_SCHEMA, "admission": stale}
        fresh = {
            "schema_note": "service_throughput section of "
            + module.ENGINE_SCHEMA
        }
        failures = module.record_section(
            path, baseline, "service_throughput", fresh
        )
        assert len(failures) == 1 and "admission" in failures[0]
        assert json.loads(path.read_text())["service_throughput"] == fresh
        assert module.record_section(path, baseline, "admission", {}) == []

    def test_checked_in_record_shape(self, record):
        assert record["identical"] is True
        assert record["workers"] >= 2
        assert record["requests"] > 0
        assert record["serial_ms"] > 0
        assert record["service_ms"] > 0
        assert record["latency_ms"]["p50"] > 0
        assert record["latency_ms"]["p95"] >= record["latency_ms"]["p50"]
        assert set(record["traffic"]) >= {"chain", "tree", "ladder"}
        warm = record["warm_vs_cold"]
        assert warm["warm_service_ms"] > 0
        assert warm["cold_pool_ms"] > 0

    def test_checked_in_record_passes_the_gate(self, record):
        bench = _service_bench_module()
        assert bench.check_service_contracts(record) == []

    def test_gate_passes_on_good_record(self):
        bench = _service_bench_module()
        assert bench.check_service_contracts(_service_record()) == []

    def test_gate_fails_on_answer_divergence(self):
        bench = _service_bench_module()
        failures = bench.check_service_contracts(
            _service_record(identical=False)
        )
        assert any("differ" in f for f in failures)

    def test_gate_fails_on_inverted_percentiles(self):
        bench = _service_bench_module()
        failures = bench.check_service_contracts(
            _service_record(p50=40.0, p95=10.0)
        )
        assert any("p95" in f for f in failures)

    def test_gate_fails_on_zero_p50(self):
        bench = _service_bench_module()
        failures = bench.check_service_contracts(_service_record(p50=0.0))
        assert any("p50" in f for f in failures)

    def test_gate_fails_below_3x_when_applied(self):
        bench = _service_bench_module()
        failures = bench.check_service_contracts(
            _service_record(speedup=2.1)
        )
        assert any("below the required" in f for f in failures)

    def test_speedup_recorded_but_not_gated_on_small_machines(self):
        # a pool cannot beat a serial loop without cores to run on; on
        # a 1-core runner the speedup is trend data, not a contract
        bench = _service_bench_module()
        assert (
            bench.check_service_contracts(
                _service_record(speedup=0.1, applied=False)
            )
            == []
        )

    def test_skipped_gate_records_an_explicit_reason(self):
        # a skipped gate must say why -- never look like a silently
        # waived contract
        bench = _service_bench_module()
        assert bench.gate_skipped_reason(4, 4) is None
        low_cores = bench.gate_skipped_reason(2, 4)
        assert "2 effective cores" in low_cores
        few_workers = bench.gate_skipped_reason(8, 2)
        assert "2 workers" in few_workers

    def test_checked_in_gate_reason_consistent(self, record):
        gate = record["gate"]
        assert "skipped_reason" in gate
        assert (gate["skipped_reason"] is None) == gate["applied"]

    def test_traffic_capped_on_low_core_machines(self):
        # below the gate's core count the run is trend data only, so
        # the default request volume is halved
        bench = _service_bench_module()
        full, full_shape = bench.build_traffic(True, cpus=8)
        capped, capped_shape = bench.build_traffic(True, cpus=2)
        assert not full_shape["capped_for_low_cores"]
        assert capped_shape["capped_for_low_cores"]
        assert len(capped) < len(full)


def _resilience_record(
    identical=True,
    failed=0,
    poisoned=0,
    restarts=3,
    recovery_count=3,
    p50=60.0,
    p95=200.0,
):
    return {
        "identical": identical,
        "requests": 10,
        "fault_plan": "crash@worker.solve+1",
        "clean_ms": 500.0,
        "faulty_ms": 900.0,
        "goodput": {
            "clean_solves_per_sec": 20.0,
            "faulty_solves_per_sec": 11.1,
            "degradation": 1.8,
        },
        "recovery_ms": {"count": recovery_count, "p50": p50, "p95": p95},
        "scheduler": {
            "worker_restarts": restarts,
            "shards_resubmitted": restarts,
            "retries": restarts,
            "completed": 10,
            "failed": failed,
            "poisoned": poisoned,
        },
    }


class TestServiceResilience:
    """The service_resilience section of BENCH_engine.json (the v5
    --faults mode of bench_solver_service.py) and its CI gate."""

    @pytest.fixture(scope="class")
    def record(self):
        payload = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
        return payload["service_resilience"]

    def test_checked_in_record_shape(self, record):
        assert record["identical"] is True
        assert record["requests"] > 0
        assert record["fault_plan"]  # the run really injected faults
        assert record["clean_ms"] > 0
        assert record["faulty_ms"] > 0
        assert record["goodput"]["degradation"] is not None
        assert record["recovery_ms"]["count"] >= 1
        assert record["recovery_ms"]["p50"] > 0
        assert (
            record["recovery_ms"]["p95"] >= record["recovery_ms"]["p50"]
        )
        scheduler = record["scheduler"]
        assert scheduler["worker_restarts"] >= 1
        assert scheduler["failed"] == 0
        assert scheduler["poisoned"] == 0
        assert scheduler["completed"] == record["requests"]

    def test_checked_in_record_passes_the_gate(self, record):
        bench = _service_bench_module()
        assert bench.check_resilience_contracts(record) == []

    def test_gate_passes_on_good_record(self):
        bench = _service_bench_module()
        assert (
            bench.check_resilience_contracts(_resilience_record()) == []
        )

    def test_gate_fails_on_answer_divergence(self):
        bench = _service_bench_module()
        failures = bench.check_resilience_contracts(
            _resilience_record(identical=False)
        )
        assert any("differ" in f for f in failures)

    def test_gate_fails_on_lost_requests(self):
        bench = _service_bench_module()
        failures = bench.check_resilience_contracts(
            _resilience_record(failed=1)
        )
        assert any("lost" in f for f in failures)
        failures = bench.check_resilience_contracts(
            _resilience_record(poisoned=1)
        )
        assert any("lost" in f for f in failures)

    def test_gate_fails_when_faults_never_fired(self):
        bench = _service_bench_module()
        failures = bench.check_resilience_contracts(
            _resilience_record(restarts=0)
        )
        assert any("never fired" in f for f in failures)

    def test_gate_fails_on_missing_or_bad_recovery_latency(self):
        bench = _service_bench_module()
        failures = bench.check_resilience_contracts(
            _resilience_record(recovery_count=0)
        )
        assert any("recovery" in f for f in failures)
        failures = bench.check_resilience_contracts(
            _resilience_record(p50=200.0, p95=60.0)
        )
        assert any("p95" in f for f in failures)


def _admission_record(
    identical=True,
    requests=11,
    resolved=11,
    rejected=2,
    expected_rejected=2,
    verdicts_ok=True,
    restarts=0,
):
    return {
        "answers": {
            "requests": 10,
            "policy": "strict",
            "identical_to_direct_mso": identical,
        },
        "containment": {
            "corpus": "tests/data/malformed",
            "requests": requests,
            "resolved": resolved,
            "rejected": rejected,
            "expected_rejected": expected_rejected,
            "verdicts_as_declared": verdicts_ok,
            "worker_restarts": restarts,
            "stats": {
                "admitted": 1,
                "repaired": 7,
                "degraded": 1,
                "admission_rejected": rejected,
            },
        },
    }


class TestAdmissionSection:
    """The admission section of BENCH_engine.json (the --admission
    mode of bench_solver_service.py) and its CI gate."""

    @pytest.fixture(scope="class")
    def record(self):
        payload = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
        return payload["admission"]

    def test_checked_in_record_shape(self, record):
        assert "overhead" not in record
        answers = record["answers"]
        assert answers["requests"] >= 10
        assert answers["policy"] == "strict"
        assert answers["identical_to_direct_mso"] is True
        containment = record["containment"]
        assert containment["requests"] >= 10
        assert containment["resolved"] == containment["requests"]
        assert containment["rejected"] == containment["expected_rejected"]
        assert containment["verdicts_as_declared"] is True
        assert containment["worker_restarts"] == 0

    def test_checked_in_record_passes_the_gate(self, record):
        bench = _service_bench_module()
        assert bench.check_admission_contracts(record) == []

    def test_gate_passes_on_good_record(self):
        bench = _service_bench_module()
        assert bench.check_admission_contracts(_admission_record()) == []

    def test_gate_fails_on_answer_divergence(self):
        bench = _service_bench_module()
        failures = bench.check_admission_contracts(
            _admission_record(identical=False)
        )
        assert any("differ from direct MSO" in f for f in failures)

    def test_gate_fails_on_hung_requests(self):
        bench = _service_bench_module()
        failures = bench.check_admission_contracts(
            _admission_record(resolved=9)
        )
        assert any("hung" in f for f in failures)

    def test_gate_fails_on_wrong_verdicts(self):
        bench = _service_bench_module()
        failures = bench.check_admission_contracts(
            _admission_record(rejected=3)
        )
        assert any("rejections" in f for f in failures)
        failures = bench.check_admission_contracts(
            _admission_record(verdicts_ok=False)
        )
        assert any("verdicts" in f for f in failures)

    def test_gate_fails_on_worker_deaths(self):
        bench = _service_bench_module()
        failures = bench.check_admission_contracts(
            _admission_record(restarts=1)
        )
        assert any("kill a worker" in f for f in failures)


class TestLinearFit:
    def test_log_log_slope_reads_a_power_law(self):
        xs = [64, 128, 256, 512]
        assert log_log_slope(xs, [3 * x for x in xs]) == pytest.approx(1)
        assert log_log_slope(xs, [x**2 for x in xs]) == pytest.approx(2)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError):
            log_log_slope([1], [1])
        with pytest.raises(ValueError):
            log_log_slope([2, 2], [1, 3])
