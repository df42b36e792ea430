"""Chaos suite: the service under injected and real failures.

The fault-tolerance battery ISSUE 7 demanded: poison-input quarantine
(a batch with one always-crashing structure completes, the poison
request fails with ``PoisonInput`` after exactly ``max_retries``
attempts and the pool stays healthy), deadline enforcement at every
stage (submit, queue, in-flight via the overdue-kill backstop),
injected crash/slow/drop/stall faults, cooperative budgets over the
service, crash-during-drain, and shutdown escalation for hung
workers.

Fault recipes here use ``+SKIP`` windows deliberately: worker-side
arrival counters reset when a crashed worker is respawned, so a bare
``crash@worker.solve`` crashes *every* worker's first solve (that is
the poison scenario), while ``crash@worker.solve+1`` lets the
replacement's first solve through (transparent recovery).
"""

import os
import time

import pytest

import repro.service.service as service_module
from repro.core import CourcelleSolver, undirected_graph_filter
from repro.datalog import BudgetExceeded, SolveBudget
from repro.mso import formulas
from repro.service import (
    DeadlineExceeded,
    PoisonInput,
    ServiceClosed,
    ShardFailed,
    SolverService,
    structure_fingerprint,
)
from repro.structures import GRAPH_SIGNATURE, Graph, Structure, graph_to_structure


@pytest.fixture(scope="module")
def solver():
    return CourcelleSolver(
        formulas.has_neighbor("x"),
        GRAPH_SIGNATURE,
        width=1,
        free_var="x",
        structure_filter=undirected_graph_filter,
    )


def chain(n):
    return graph_to_structure(Graph.path(n))


# -- worker-killing structures (pickle-borne, module-level for pickling)

_POISON_EXIT = 41


def _rebuild_boom():
    """Unpickled in the worker: die, every single time."""
    os._exit(_POISON_EXIT)


class AlwaysCrash(Structure):
    """A structure whose every worker-side unpickle kills the worker --
    the canonical poison input."""

    __slots__ = ()

    def __reduce__(self):
        return (_rebuild_boom, ())


def poison(n=13):
    base = chain(n)
    return AlwaysCrash(
        base.signature,
        base.domain,
        {name: base.relation(name) for name in base.signature},
    )


def _rebuild_crash_once(latch, signature, domain, relations):
    if latch is not None and not os.path.exists(latch):
        open(latch, "w").close()
        os._exit(42)
    return Structure(signature, domain, relations)


class CrashOnce(Structure):
    """First worker-side unpickle kills the worker; retries succeed."""

    __slots__ = ("latch",)

    def __init__(self, base, latch):
        super().__init__(
            base.signature,
            base.domain,
            {name: base.relation(name) for name in base.signature},
        )
        object.__setattr__(self, "latch", latch)

    def __reduce__(self):
        return (
            _rebuild_crash_once,
            (
                self.latch,
                self.signature,
                tuple(self.domain),
                {
                    name: tuple(self.relation(name))
                    for name in self.signature
                },
            ),
        )


def _rebuild_nap(seconds, signature, domain, relations):
    time.sleep(seconds)
    return Structure(signature, domain, relations)


class Napper(Structure):
    """Worker-side unpickle sleeps ``nap`` seconds first: a
    deterministic slow solve / hung worker."""

    __slots__ = ("nap",)

    def __init__(self, base, nap):
        super().__init__(
            base.signature,
            base.domain,
            {name: base.relation(name) for name in base.signature},
        )
        object.__setattr__(self, "nap", nap)

    def __reduce__(self):
        return (
            _rebuild_nap,
            (
                self.nap,
                self.signature,
                tuple(self.domain),
                {
                    name: tuple(self.relation(name))
                    for name in self.signature
                },
            ),
        )


# ----------------------------------------------------------------------
# poison quarantine: the ISSUE acceptance scenario
# ----------------------------------------------------------------------


class TestPoisonQuarantine:
    def test_batch_with_poison_completes(self, solver):
        goods = [chain(10), chain(8), chain(6)]
        bad = poison(13)
        serial = [solver.query(s) for s in goods]
        with SolverService(
            workers=2, max_retries=3, retry_backoff=0.01
        ) as service:
            handle = service.register(solver)
            futures = handle.submit_many([goods[0], bad, goods[1], goods[2]])

            exc = futures[1].exception(timeout=120)
            assert isinstance(exc, PoisonInput)
            # ... after exactly max_retries attempts, with the history
            assert exc.crashes == 3
            assert len(exc.history) == 3
            assert all("worker died" in line for line in exc.history)
            assert exc.fingerprint == structure_fingerprint(bad)
            assert exc.program_key == handle.key

            # the other requests complete with answers identical to a
            # serial loop, even if they shared the poison's first shard
            answers = [
                futures[i].result(timeout=120) for i in (0, 2, 3)
            ]
            assert answers == serial

            # the pool is healthy: new work still solves
            assert handle.submit(chain(4)).result(timeout=120) == frozenset(
                range(4)
            )

            stats = service.stats
            assert stats.worker_restarts == 3  # one per poison attempt
            assert stats.poisoned == 1
            assert stats.quarantine_size == 1
            assert stats.failed >= 1

    def test_quarantine_fast_fails_and_evicts(self, solver):
        bad = poison(11)
        with SolverService(
            workers=1, max_retries=2, retry_backoff=0.01
        ) as service:
            handle = service.register(solver)
            first = handle.submit(bad)
            assert isinstance(first.exception(timeout=120), PoisonInput)

            # same fingerprint again: rejected instantly, no dispatch
            again = handle.submit(bad)
            assert again.done()
            exc = again.exception(0)
            assert isinstance(exc, PoisonInput)
            assert exc.fingerprint == structure_fingerprint(bad)

            records = service.quarantined()
            assert len(records) == 1
            assert records[0].rejections == 1
            assert records[0].crashes == 2
            assert service.stats.quarantine_rejections == 1

            assert service.evict_quarantine(records[0].fingerprint) == 1
            assert service.quarantined() == ()
            assert service.stats.quarantine_size == 0
            assert service.evict_quarantine() == 0  # idempotent


# ----------------------------------------------------------------------
# injected faults
# ----------------------------------------------------------------------


class TestInjectedFaults:
    def test_injected_crash_recovers_transparently(self, solver):
        # +1: each worker's first solve passes, its second crashes --
        # so every respawned replacement completes one shard before
        # dying, and the batch converges.  Each generation charges one
        # crash to one request, so max_retries=6 gives ample headroom
        # for 4 requests (worst observed: 3 crashes on one request).
        structures = [chain(n) for n in (9, 7, 5, 11)]
        serial = [solver.query(s) for s in structures]
        with SolverService(
            workers=1,
            faults="crash@worker.solve+1",
            max_retries=6,
            retry_backoff=0.01,
        ) as service:
            handle = service.register(solver)
            answers = handle.solve_many(structures, timeout=120)
            stats = service.stats
        assert answers == serial
        assert stats.worker_restarts >= 1
        assert stats.shards_resubmitted >= 1
        assert stats.retries >= 1
        assert stats.failed == 0
        assert stats.recovery_ms  # resubmitted shards report latency

    def test_slow_and_stall_are_harmless(self, solver):
        structures = [chain(n) for n in (6, 8, 10)]
        serial = [solver.query(s) for s in structures]
        plan = (
            "slow@worker.solve:20ms*2; "
            "stall@scheduler.dispatch:10ms; "
            "stall@collector.result:10ms"
        )
        with SolverService(workers=2, faults=plan) as service:
            handle = service.register(solver)
            assert handle.solve_many(structures, timeout=120) == serial
            assert service.stats.failed == 0

    def test_dropped_result_recovered_by_overdue_kill(self, solver):
        # the worker solves but never sends: only the deadline backstop
        # can recover the shard (kill the worker holding it)
        with SolverService(
            workers=1, faults="drop@worker.result*inf", retry_backoff=0.01
        ) as service:
            handle = service.register(solver)
            future = handle.submit(chain(10), timeout=1.0)
            assert isinstance(
                future.exception(timeout=120), DeadlineExceeded
            )
            assert service.stats.workers_killed_overdue >= 1
            assert service.stats.deadline_expired >= 1

    def test_fault_plan_validated_at_construction(self):
        with pytest.raises(ValueError):
            SolverService(workers=1, faults="zap@worker.solve")


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_already_expired_submit_fails_fast(self, solver):
        with SolverService(workers=1) as service:
            handle = service.register(solver)
            future = handle.submit(chain(5), timeout=-1.0)
            assert future.done()
            assert isinstance(future.exception(0), DeadlineExceeded)
            stats = service.stats
            assert stats.deadline_expired == 1
            assert stats.submitted == 0  # rejected before intake

    def test_request_expires_while_queued(self, solver):
        # a deterministic 0.6s blocker occupies the only worker; the
        # victim's 0.15s deadline lapses while it is still queued
        with SolverService(workers=1, max_shard=1) as service:
            handle = service.register(solver)
            blocker = handle.submit(Napper(chain(4), 0.6))
            victim = handle.submit(chain(5), timeout=0.15)
            assert isinstance(
                victim.exception(timeout=120), DeadlineExceeded
            )
            assert blocker.result(timeout=120) == frozenset(range(4))
            assert service.stats.deadline_expired >= 1

    def test_solve_many_shares_one_deadline(self, solver):
        # the satellite fix: timeout= bounds the whole batch, not
        # N x timeout.  With every result dropped, nothing ever
        # resolves normally -- the batch must still fail out in ~one
        # timeout, not twelve.
        structures = [chain(6)] * 12
        with SolverService(
            workers=1, faults="drop@worker.result*inf", retry_backoff=0.01
        ) as service:
            handle = service.register(solver)
            start = time.monotonic()
            with pytest.raises((DeadlineExceeded, TimeoutError)):
                handle.solve_many(structures, timeout=1.0)
            elapsed = time.monotonic() - start
        assert elapsed < 8.0  # the N x timeout bug would take >= 12s


# ----------------------------------------------------------------------
# budgets over the service
# ----------------------------------------------------------------------


class TestServiceBudgets:
    def test_over_budget_solve_raises_not_crashes(self, solver):
        tight = SolveBudget(max_ground_rules=5)
        with SolverService(workers=1, budget=tight) as service:
            handle = service.register(solver)
            exc = handle.submit(chain(40)).exception(timeout=120)
            assert isinstance(exc, BudgetExceeded)
            # every field survives the trip from the worker
            assert exc.dimension == "ground_rules"
            assert exc.limit == 5
            assert exc.consumed["ground_rules"] > 5
            # cooperative enforcement: the worker survived
            assert service.stats.worker_restarts == 0
            assert service.stats.budget_exceeded == 1
            # and keeps serving work that fits the (very tight) cap:
            # a 1-vertex chain takes the below-threshold direct path
            assert handle.submit(chain(1)).result(timeout=120) == frozenset()
            assert service.stats.worker_restarts == 0

    def test_budget_type_checked(self):
        with pytest.raises(TypeError):
            SolverService(workers=1, budget=30.0)


# ----------------------------------------------------------------------
# shutdown under failure
# ----------------------------------------------------------------------


class TestShutdownUnderFailure:
    def test_crash_during_drain_still_drains(self, solver, tmp_path):
        # the worker dies while shutdown(drain=True) is waiting: crash
        # recovery keeps running during the drain, so every accepted
        # request still resolves and the drain terminates
        latch = str(tmp_path / "drain-crash")
        structures = [chain(7), CrashOnce(chain(5), latch), chain(9)]
        service = SolverService(workers=1, retry_backoff=0.01)
        try:
            handle = service.register(solver)
            futures = handle.submit_many(structures)
            service.shutdown(drain=True)
            assert all(f.done() for f in futures)
            assert [f.result(0) for f in futures] == [
                solver.query(s) for s in structures
            ]
            assert service.stats.worker_restarts >= 1
            assert os.path.exists(latch)
        finally:
            service.shutdown()

    def test_hung_worker_is_escalated(self, solver, monkeypatch):
        # a worker stuck in a 30s solve ignores the stop sentinel; the
        # drain times out, and shutdown escalates terminate() instead
        # of leaking the process
        monkeypatch.setattr(service_module, "SHUTDOWN_GRACE", 0.3)
        service = SolverService(workers=1)
        try:
            handle = service.register(solver)
            hung = handle.submit(Napper(chain(4), 30.0))
            # wait for dispatch so the nap is actually in flight
            deadline = time.monotonic() + 10
            while service.queue_depth and time.monotonic() < deadline:
                time.sleep(0.01)
            start = time.monotonic()
            service.shutdown(drain=True, timeout=0.4)
            elapsed = time.monotonic() - start
            assert service.stats.shutdown_escalations >= 1
            assert elapsed < 10.0  # never waited out the 30s nap
            assert hung.done()
        finally:
            service.shutdown()

    def test_drain_timeout_abandons_queued_requests(self, solver, monkeypatch):
        # requests queued behind a hung solve when the drain runs out
        # of time: every future still ends done -- the queued ones
        # cancelled, the running one failed with ServiceClosed
        monkeypatch.setattr(service_module, "SHUTDOWN_GRACE", 0.3)
        service = SolverService(workers=1, max_shard=1)
        try:
            handle = service.register(solver)
            hung = handle.submit(Napper(chain(4), 30.0))
            deadline = time.monotonic() + 10
            while service.queue_depth and time.monotonic() < deadline:
                time.sleep(0.01)
            queued = handle.submit_many([chain(n) for n in range(5, 10)])
            assert service.queue_depth == len(queued)
            start = time.monotonic()
            service.shutdown(drain=True, timeout=0.4)
            assert time.monotonic() - start < 10.0
            assert all(future.done() for future in [hung, *queued])
            assert isinstance(hung.exception(0), ServiceClosed)
            assert all(future.cancelled() for future in queued)
            assert service.queue_depth == 0
        finally:
            service.shutdown()

    def test_drain_timeout_terminates_hung_workers_at_once(self, solver):
        # both workers stuck in a 30s solve when the drain runs out of
        # time: neither can read a stop message, so shutdown terminates
        # both at once instead of waiting out SHUTDOWN_GRACE per worker
        service = SolverService(workers=2, max_shard=1)
        try:
            handle = service.register(solver)
            hung = [handle.submit(Napper(chain(4), 30.0)) for _ in range(2)]
            deadline = time.monotonic() + 10
            while service.queue_depth and time.monotonic() < deadline:
                time.sleep(0.01)
            start = time.monotonic()
            service.shutdown(drain=True, timeout=0.4)
            assert time.monotonic() - start < 5.0
            assert all(isinstance(f.exception(0), ServiceClosed) for f in hung)
            assert service.stats.shutdown_escalations == 2
        finally:
            service.shutdown()


# ----------------------------------------------------------------------
# failure metadata
# ----------------------------------------------------------------------


class TestFailureMetadata:
    def test_shard_failed_carries_fingerprint_and_program(self, solver):
        from .test_service import unwalkable_request

        structure, td = unwalkable_request(9)
        with SolverService(workers=1, max_shard=1) as service:
            handle = service.register(solver)
            exc = handle.submit(structure, td=td).exception(timeout=120)
        assert isinstance(exc, ShardFailed)
        assert "RuntimeError: tree walk failed" in str(exc)
        assert exc.program_key == handle.key
        assert exc.fingerprint == structure_fingerprint(structure)
        assert "worker traceback" in str(exc)
        assert exc.fingerprint in str(exc)

    def test_structure_fingerprint_is_stable_and_content_based(self):
        a, b = chain(9), chain(9)
        assert structure_fingerprint(a) == structure_fingerprint(b)
        assert structure_fingerprint(a) != structure_fingerprint(chain(10))
        fp = structure_fingerprint(chain(3))
        assert len(fp) == 16
        assert all(c in "0123456789abcdef" for c in fp)
