"""The fault-injection harness: grammar, counters, determinism.

Pure-parent tests of :mod:`repro.service.faults` -- no service, no
processes.  The chaos suite (``test_chaos.py``) exercises the same
plans through a live :class:`~repro.service.SolverService`.
"""

import threading

import pytest

from repro.service import FaultPlan, FaultSpec


class TestGrammar:
    def test_minimal_spec(self):
        spec = FaultSpec.parse("crash@worker.solve")
        assert spec.action == "crash"
        assert spec.site == "worker.solve"
        assert spec.times == 1
        assert spec.skip == 0

    def test_full_spec(self):
        spec = FaultSpec.parse("slow@worker.solve:12.5ms*4+2")
        assert spec.delay_ms == 12.5
        assert spec.times == 4
        assert spec.skip == 2

    def test_inf_times(self):
        spec = FaultSpec.parse("drop@worker.result*inf")
        assert spec.times > 10**9

    def test_round_trip_through_str(self):
        for text in (
            "crash@worker.solve+1",
            "slow@worker.solve:50ms*3",
            "drop@worker.result*inf",
            "stall@collector.result:5ms",
        ):
            assert str(FaultSpec.parse(text)) == text

    def test_plan_parses_semicolon_separated_specs(self):
        plan = FaultPlan.parse(
            "crash@worker.solve+1; slow@worker.solve:50ms*3"
        )
        assert len(plan.specs) == 2
        assert bool(plan)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ;  ")
        assert not FaultPlan()

    @pytest.mark.parametrize(
        "bad",
        [
            "zap@worker.solve",  # unknown action
            "crash@nowhere",  # unknown site
            "crash@collector.result",  # crash only fires in workers
            "slow@worker.solve",  # slow needs a delay
            "crash@worker.solve:5ms",  # crash takes no delay
            "crash@worker.solve*0",  # times must be >= 1
            "not a spec",
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)


class TestCounters:
    def test_skip_then_times_window(self):
        plan = FaultPlan.parse("crash@worker.solve*2+1")
        hits = [plan.trigger("worker.solve") for _ in range(5)]
        assert [h.action if h else None for h in hits] == [
            None,
            "crash",
            "crash",
            None,
            None,
        ]

    def test_sites_count_independently(self):
        plan = FaultPlan.parse("drop@worker.result")
        assert plan.trigger("worker.solve") is None  # other site: no count
        assert plan.trigger("worker.result").action == "drop"
        assert plan.trigger("worker.result") is None  # spent

    def test_cosited_specs_share_the_arrival_sequence(self):
        # first match in plan order wins, but both specs see arrivals
        plan = FaultPlan.parse(
            "crash@worker.solve+1; slow@worker.solve:1ms*3"
        )
        actions = [
            hit.action if hit else None
            for hit in (plan.trigger("worker.solve") for _ in range(5))
        ]
        # arrival 1: crash still skipping -> slow; arrival 2: crash;
        # arrival 3: slow's window (1..3) is still open; then spent
        assert actions == ["slow", "crash", "slow", None, None]

    def test_inf_never_exhausts(self):
        plan = FaultPlan.parse("drop@worker.result*inf")
        assert all(
            plan.trigger("worker.result") is not None for _ in range(500)
        )

    def test_trigger_is_thread_safe(self):
        # 8 threads x 100 arrivals against a *150 window: exactly 150
        # triggers must be handed out, no more, no fewer
        plan = FaultPlan.parse("drop@worker.result*150")
        hits = []
        lock = threading.Lock()

        def hammer():
            mine = sum(
                plan.trigger("worker.result") is not None for _ in range(100)
            )
            with lock:
                hits.append(mine)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(hits) == 150

    def test_induce_serves_sleeps_and_returns_actions(self):
        plan = FaultPlan.parse("slow@worker.solve:1ms; crash@worker.solve+1")
        assert plan.induce("worker.solve") is None  # slow: slept, no action
        assert plan.induce("worker.solve") == "crash"
        assert plan.induce("worker.solve") is None  # both spent
