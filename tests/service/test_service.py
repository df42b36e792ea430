"""The persistent solver service: the concurrency suite.

This is the test battery ISSUE 6 demanded alongside the serving layer:
1-vs-N answer identity, input-order stability when shards complete out
of order, coalescing shapes, backpressure, worker-crash resubmission,
and shutdown semantics (drain with a non-empty queue, cancel without).

Everything here runs on the cheap width-1 ``has_neighbor`` program
(compile ~70 ms, chain solves in tens of ms) with 2 workers, so the
suite stays tier-1-fast even on one core.
"""

import os
import random
import time

import pytest

import repro.service.service as service_module
from repro.core import CourcelleSolver, undirected_graph_filter
from repro.mso import formulas
from repro.problems import random_tree_graph
from repro.service import (
    ProgramHandle,
    ServiceClosed,
    ServiceSaturated,
    ShardFailed,
    SolverService,
    coalesce,
    default_worker_count,
)
from repro.structures import GRAPH_SIGNATURE, Graph, Structure, graph_to_structure
from repro.treewidth import decompose_structure


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


def tree(n, seed=7):
    return graph_to_structure(random_tree_graph(random.Random(seed), n))


class UnwalkableChildren(dict):
    """A child map whose membership tests and ``get`` answer as the
    tree's -- so admission's tree-soundness check passes -- but whose
    lookup raises, once the front end walks the tree into ids."""

    def __getitem__(self, node):
        raise RuntimeError("tree walk failed")


def unwalkable_request(n):
    """A chain and a valid width-1 decomposition of it whose tree
    raises inside the worker's solve, after the tree check passed it."""
    structure = chain(n)
    td = decompose_structure(structure)
    td.tree._children = UnwalkableChildren(td.tree._children)
    return structure, td


# ----------------------------------------------------------------------
# coalesce: the pure scheduling policy
# ----------------------------------------------------------------------


class TestCoalesce:
    def test_burst_spreads_across_idle_workers(self):
        pending = [("p", i) for i in range(10)]
        shards = coalesce(pending, idle_workers=2, max_shard=64)
        assert [len(reqs) for _key, reqs in shards] == [5, 5]

    def test_max_shard_caps_shard_size(self):
        pending = [("p", i) for i in range(10)]
        shards = coalesce(pending, idle_workers=1, max_shard=3)
        assert [len(reqs) for _key, reqs in shards] == [3, 3, 3, 1]

    def test_groups_per_program_preserving_arrival_order(self):
        pending = [("a", 0), ("b", 1), ("a", 2), ("b", 3), ("a", 4)]
        shards = dict(coalesce(pending, idle_workers=1, max_shard=64))
        assert shards == {"a": [0, 2, 4], "b": [1, 3]}

    def test_trickle_stays_one_small_shard(self):
        assert coalesce([("p", 0)], idle_workers=4, max_shard=64) == [
            ("p", [0])
        ]

    def test_needs_an_idle_worker(self):
        with pytest.raises(ValueError):
            coalesce([("p", 0)], idle_workers=0, max_shard=64)


# ----------------------------------------------------------------------
# default_worker_count
# ----------------------------------------------------------------------


class TestDefaultWorkerCount:
    def test_uncapped_matches_affinity(self):
        cpus = len(os.sched_getaffinity(0))
        assert default_worker_count() == max(1, cpus)


# ----------------------------------------------------------------------
# answer identity and ordering
# ----------------------------------------------------------------------


class TestIdentity:
    def test_service_matches_serial_loop(self, solver):
        structures = [chain(20), tree(15), chain(7), tree(9, seed=11)]
        serial = [solver.query(s) for s in structures]
        with SolverService(workers=2) as service:
            handle = service.register(solver)
            assert handle.solve_many(structures) == serial

    def test_solve_many_routes_through_service(self, solver):
        structures = [chain(12), tree(10), chain(5)]
        serial = solver.solve_many(structures)
        with SolverService(workers=2) as service:
            assert solver.solve_many(structures, service=service) == serial

    def test_input_order_stable_under_out_of_order_completion(self, solver):
        # max_shard=1 makes every request its own shard on 2 workers;
        # wildly uneven sizes make completion order scramble.  The
        # answer for a path of n (n >= 2) is all n vertices, so a
        # misassigned future would change the answer's cardinality.
        sizes = [200, 3, 150, 4, 100, 5, 80, 6]
        structures = [chain(n) for n in sizes]
        with SolverService(workers=2, max_shard=1) as service:
            futures = service.register(solver).submit_many(structures)
            answers = [f.result(timeout=120) for f in futures]
        assert [len(a) for a in answers] == sizes

    def test_tds_length_mismatch(self, solver):
        with SolverService(workers=1) as service:
            handle = service.register(solver)
            with pytest.raises(ValueError):
                handle.submit_many([chain(5), chain(6)], tds=[None])


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------


class TestRegister:
    def test_idempotent_same_handle(self, solver):
        with SolverService(workers=1) as service:
            first = service.register(solver)
            second = service.register(solver)
            assert first is second

    def test_unregistered_program_rejected(self, solver):
        with SolverService(workers=1) as service:
            bogus = ProgramHandle(service, "no-such-program")
            with pytest.raises(KeyError):
                bogus.submit(chain(5))

    def test_stats_count_requests_and_shards(self, solver):
        with SolverService(workers=2) as service:
            handle = service.register(solver)
            handle.solve_many([chain(10)] * 6)
            stats = service.stats
        assert stats.submitted == 6
        assert stats.completed == 6
        assert stats.failed == 0
        assert stats.shards_dispatched >= 1
        assert stats.peak_queue_depth >= 1


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------


class TestShardFailure:
    def test_worker_exception_sets_shard_failed(self, solver):
        # max_shard=1: a failure poisons its whole shard by design, so
        # keep the bad request from coalescing with the good ones
        with SolverService(workers=1, max_shard=1) as service:
            handle = service.register(solver)
            good = handle.submit(chain(8))
            # admitted, then explodes inside the worker's solve
            structure, td = unwalkable_request(8)
            bad = handle.submit(structure, td=td)
            assert good.result(timeout=120) == frozenset(range(8))
            exc = bad.exception(timeout=120)
            assert isinstance(exc, ShardFailed)
            assert "RuntimeError: tree walk failed" in str(exc)
            assert "worker traceback" in str(exc)
            # the worker survives a failed shard
            assert handle.submit(chain(4)).result(timeout=120) == frozenset(
                range(4)
            )
            assert service.stats.failed >= 1


# -- crash recovery ----------------------------------------------------

_LATCH = None  # set per-test via the fixture; forked workers inherit it


def _rebuild_crash_once(latch, signature, domain, relations):
    """Unpickled in the worker: first time (no latch file) simulate a
    worker crash; after resubmission build the structure normally."""
    if latch is not None and not os.path.exists(latch):
        open(latch, "w").close()
        os._exit(42)
    return Structure(signature, domain, relations)


class CrashOnce(Structure):
    """A structure whose first worker-side unpickle kills the worker."""

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


class TestCrashRecovery:
    def test_dead_worker_is_replaced_and_shard_resubmitted(
        self, solver, tmp_path
    ):
        latch = str(tmp_path / "crashed-once")
        structures = [
            chain(10),
            CrashOnce(chain(6), latch),
            chain(8),
        ]
        with SolverService(workers=2, max_shard=1) as service:
            handle = service.register(solver)
            futures = handle.submit_many(structures)
            answers = [f.result(timeout=120) for f in futures]
            stats = service.stats
        assert answers == [solver.query(s) for s in structures]
        assert stats.worker_restarts >= 1
        assert stats.shards_resubmitted >= 1
        assert os.path.exists(latch)


# ----------------------------------------------------------------------
# shutdown semantics
# ----------------------------------------------------------------------


class TestShutdown:
    def test_drain_completes_a_non_empty_queue(self, solver):
        # one worker + a slow head-of-line request: the rest are still
        # queued when shutdown starts, and must all resolve anyway
        service = SolverService(workers=1)
        try:
            handle = service.register(solver)
            futures = handle.submit_many([chain(300)] + [chain(i + 2) for i in range(5)])
            service.shutdown(drain=True)
            assert all(f.done() for f in futures)
            assert [len(f.result(0)) for f in futures] == [300, 2, 3, 4, 5, 6]
        finally:
            service.shutdown()

    def test_submit_and_register_after_shutdown_raise(self, solver):
        service = SolverService(workers=1)
        handle = service.register(solver)
        service.shutdown()
        with pytest.raises(ServiceClosed):
            handle.submit(chain(5))
        with pytest.raises(ServiceClosed):
            service.register(solver)

    def test_shutdown_is_idempotent(self, solver):
        service = SolverService(workers=1)
        service.shutdown()
        service.shutdown()  # no-op, no hang

    def test_no_drain_resolves_every_future(self, solver, monkeypatch):
        # a slow poll interval keeps the queue undispatched long enough
        # for shutdown(drain=False) to see it; every future must end up
        # done -- cancelled, ServiceClosed, or (if it won the race to a
        # worker) resolved with the real answer
        monkeypatch.setattr(service_module, "POLL_INTERVAL", 0.2)
        service = SolverService(workers=1)
        handle = service.register(solver)
        futures = handle.submit_many([chain(i + 5) for i in range(8)])
        service.shutdown(drain=False)
        for future in futures:
            assert future.done()
            if not future.cancelled() and future.exception() is not None:
                assert isinstance(future.exception(), ServiceClosed)

    def test_context_manager_drains_on_clean_exit(self, solver):
        with SolverService(workers=1) as service:
            future = service.register(solver).submit(chain(9))
        assert future.result(0) == frozenset(range(9))


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_saturated_submit_raises_without_blocking(self, solver):
        with SolverService(workers=1, max_pending=2) as service:
            handle = service.register(solver)
            blocker = handle.submit(chain(600))  # occupies the worker
            # wait until the blocker has been handed to the worker, so
            # the bounded queue is empty again
            for _ in range(400):
                if not service.queue_depth:
                    break
                time.sleep(0.01)
            fillers = [handle.submit(chain(5)), handle.submit(chain(6))]
            if not blocker.done():
                # queue full while the worker is busy: shed load
                with pytest.raises(ServiceSaturated):
                    handle.submit(chain(7), block=False)
                assert service.stats.peak_queue_depth >= 2
            for future in [blocker, *fillers]:
                assert future.result(timeout=120)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SolverService(workers=0)
        with pytest.raises(ValueError):
            SolverService(workers=1, max_pending=0)
        with pytest.raises(ValueError):
            SolverService(workers=1, max_shard=0)
