"""The benchmark's workloads: seeded inputs, reference answers, the
public call each request makes, and its stage-by-stage replay.

Every workload is a closed loop: a client sends its next request only
after the previous answer arrived.  Input ``i`` of a run depends only
on (workload, seed, i), and sizes follow a golden-ratio sequence over a
log-uniform range, so any prefix of a run's requests covers the whole
size range evenly whatever the machine's speed.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass

from repro.admission import MeterBudget, admit
from repro.core import (
    ANSWER_PREDICATE,
    CourcelleSolver,
    grid_graph_filter,
    undirected_graph_filter,
)
from repro.datalog import EvaluationStats, SetDatabase, solve
from repro.mso import formulas
from repro.mso import query as mso_query
from repro.problems import random_partial_ktree
from repro.problems.three_coloring import (
    ThreeColoringDatalog,
    encode_for_three_coloring,
    prepare_decomposition,
    three_coloring_direct,
)
from repro.service import SolverService
from repro.structures import GRAPH_SIGNATURE, Graph, graph_to_structure, subgraph
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.encode import encode_normalized
from repro.treewidth.heuristics import decompose_graph, decompose_structure
from repro.treewidth.normalize import normalize, widen

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class BenchmarkError(RuntimeError):
    """An input outside its workload's class, or a wrong answer."""


@dataclass
class Request:
    index: int
    #: |A|: the domain elements of the input
    size: int
    #: what the public call receives (a Structure, or a Graph)
    payload: object
    #: the reference answer
    expected: object
    #: the decomposition the request carries (service-untrusted only)
    td: object = None
    #: the input's class: a planned defect, or the colourability
    plan: str = "clean"


def _rng(*parts) -> random.Random:
    # str seeds hash with SHA-512, independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def log_uniform_sizes(rng: random.Random, lo: int, hi: int, count: int):
    start = rng.random()
    return [
        round(lo * (hi / lo) ** ((start + i * _GOLDEN) % 1.0))
        for i in range(count)
    ]


def non_isolated(graph: Graph) -> frozenset:
    """Closed form of ``has_neighbor``: the non-isolated vertices."""
    return frozenset(v for v in graph.vertices if graph.neighbors(v))


def random_forest(rng: random.Random, n: int) -> Graph:
    """Trees, paths, stars and isolated vertices on ``0..n-1``."""
    labels = list(range(n))
    rng.shuffle(labels)
    graph = Graph(labels)
    at = 0
    while at < n:
        kind = rng.choices(
            ("tree", "path", "star", "isolated"), weights=(4, 2, 2, 1)
        )[0]
        size = 1 if kind == "isolated" else rng.randint(2, max(2, n // 3))
        part = labels[at : at + size]
        at += size
        for i in range(1, len(part)):
            if kind == "path":
                other = part[i - 1]
            elif kind == "star":
                other = part[0]
            else:
                other = part[rng.randrange(i)]
            graph.add_edge(part[i], other)
    return graph


class Workload:
    name = ""
    #: inputs generated per run; a run that answers more cycles them
    inputs = 0
    #: (lo, hi) of the log-uniform size parameter
    size_range = (0, 0)
    #: inputs drawn again because they fell outside the class
    redrawn = 0

    def params(self) -> dict:
        return {"size_range": list(self.size_range), "inputs": self.inputs}

    def make(self, rng: random.Random, size: int, index: int) -> Request:
        raise NotImplementedError

    def warmup(self) -> Request:
        """The warm-up request: the same for every seed, so that set-up
        does the same work in every run."""
        lo, hi = self.size_range
        return self.make(_rng(self.name, "warmup"), round(math.sqrt(lo * hi)), -1)

    def generate(self, seed: int, count: int | None = None) -> list[Request]:
        """The run's requests; input ``i`` depends only on (workload,
        seed, i)."""
        count = self.inputs if count is None else count
        lo, hi = self.size_range
        sizes = log_uniform_sizes(_rng(self.name, seed, "sizes"), lo, hi, count)
        return [
            self.make(_rng(self.name, seed, i), size, i)
            for i, size in enumerate(sizes)
        ]

    def check_reference(self, requests) -> None:
        """Cross-check the reference once per run (outside timing)."""

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def call(self, request: Request):
        """The untraced public call."""
        raise NotImplementedError

    def replay(self, request: Request, tracer):
        """The same request stage by stage, one span per layer call;
        ``(answer, counts)``."""
        raise NotImplementedError

    def compile_counts(self) -> dict:
        return {}

    def check_served(self, requests) -> list[str]:
        """Errors in what the system reports about ``requests`` beyond
        their answers."""
        return []

    def mix(self, requests) -> dict:
        """The planned count of each input class among ``requests``."""
        out: dict[str, int] = {}
        for r in requests:
            out[r.plan] = out.get(r.plan, 0) + 1
        return out


class CompiledQueryWorkload(Workload):
    """``has_neighbor`` through a Theorem 4.5 program: ``query``."""

    width = 0
    structure_filter = None
    compile_s = 0.0

    def params(self) -> dict:
        return {
            **super().params(),
            "query": "has_neighbor(x)",
            "width": self.width,
            "structure_filter": self.structure_filter.__name__,
        }

    def setup(self) -> None:
        start = time.perf_counter()
        self.solver = CourcelleSolver(
            formulas.has_neighbor("x"),
            GRAPH_SIGNATURE,
            width=self.width,
            free_var="x",
            structure_filter=self.structure_filter,
        )
        self.compile_s = time.perf_counter() - start

    def teardown(self) -> None:
        self.solver = None

    def call(self, request):
        return self.solver.query(request.payload)

    def check_reference(self, requests) -> None:
        smallest = min(requests, key=lambda r: r.size)
        direct = mso_query(smallest.payload, formulas.has_neighbor("x"), "x")
        if direct != smallest.expected:
            raise BenchmarkError(
                f"{self.name}: closed-form has_neighbor differs from direct "
                f"MSO on input {smallest.index}"
            )

    def compile_counts(self) -> dict:
        stats = self.solver.compiled.stats
        return {
            "core.classes": stats.up_classes + stats.down_classes,
            "core.rules": stats.rules_after_passes,
        }

    def replay(self, request, tracer):
        structure = request.payload
        with tracer.span("treewidth.decompose"):
            td = decompose_structure(structure)
        if td.width > self.solver.compiled.width:
            raise BenchmarkError(
                f"input {request.index}: width {td.width} over the compiled "
                f"width {self.solver.compiled.width}"
            )
        answer, counts = self._solve_stages(structure, td, tracer, False)
        counts["treewidth.width"] = td.width
        return answer, counts

    def _solve_stages(self, structure, td, tracer, verified):
        """``CourcelleSolver._prepare`` and ``_finish`` after the
        decomposition is known."""
        solver = self.solver
        span = tracer.span
        if td.width < solver.compiled.width:
            with span("treewidth.widen"):
                td = widen(td, solver.compiled.width)
        with span("treewidth.normalize"):
            ntd = normalize(td)
        with span("treewidth.validate"):
            ntd.validate(None if verified else structure)
        with span("treewidth.encode"):
            encoded = encode_normalized(structure, ntd)
        with span("datalog.load"):
            sdb = SetDatabase.from_edb(encoded)
        with span("core.evaluate"):
            result = solver.evaluator.evaluate(sdb)
        with span("core.decode"):
            answer = result.unary_answers(ANSWER_PREDICATE)
        stats = result.stats
        return answer, {
            "treewidth.nodes": ntd.node_count(),
            "core.ground_rules": stats.ground_rules,
            "core.rules_pruned": stats.rules_pruned,
            "core.peak_live_rules": stats.peak_live_rules,
        }


class LadderW2(CompiledQueryWorkload):
    name = "ladder-w2"
    width = 2
    structure_filter = staticmethod(grid_graph_filter)
    #: ladder columns N of the 2 x N grid
    size_range = (32, 128)
    inputs = 100
    deleted = 0.10
    attempts = 20

    def params(self) -> dict:
        return {**super().params(), "deleted_vertex_share": self.deleted}

    def make(self, rng, columns, index):
        ladder = Graph.grid(2, columns)
        for _ in range(self.attempts):
            keep = [v for v in sorted(ladder.vertices) if rng.random() >= self.deleted]
            graph = subgraph(ladder, keep)
            structure = graph_to_structure(graph)
            # never time answers outside the compiled class
            if not grid_graph_filter(structure):
                raise BenchmarkError(f"ladder input {index} is outside the grid class")
            # the min-fill heuristic can exceed width 2 on a width-2
            # input, and the solver then refuses it: draw again
            if decompose_structure(structure).width <= self.width:
                return Request(index, len(keep), structure, non_isolated(graph))
            self.redrawn += 1
        raise BenchmarkError(f"ladder input {index}: no draw decomposes to width 2")


class TreesW1(CompiledQueryWorkload):
    name = "trees-w1"
    width = 1
    structure_filter = staticmethod(undirected_graph_filter)
    #: forest vertices
    size_range = (40, 240)
    inputs = 300

    def make(self, rng, n, index):
        graph = random_forest(rng, n)
        return Request(index, n, graph_to_structure(graph), non_isolated(graph))


class ThreeColKTree(Workload):
    name = "threecol-ktree"
    #: graph vertices
    size_range = (16, 48)
    inputs = 200
    k = 3
    edge_probability = 0.2

    def params(self) -> dict:
        return {
            **super().params(),
            "k": self.k,
            "edge_probability": self.edge_probability,
            "backend": "semi-naive",
        }

    def make(self, rng, n, index):
        graph, _ = random_partial_ktree(
            rng, n, self.k, edge_probability=self.edge_probability
        )
        colourable, _ = three_coloring_direct(graph)
        plan = "colourable" if colourable else "non-colourable"
        return Request(index, n, graph, colourable, plan=plan)

    def setup(self) -> None:
        self.solver = ThreeColoringDatalog()

    def teardown(self) -> None:
        self.solver = None

    def call(self, request):
        return self.solver.decide(request.payload)

    def replay(self, request, tracer):
        graph = request.payload
        span = tracer.span
        with span("treewidth.decompose"):
            td = decompose_graph(graph)
        with span("problems.nice"):
            nice = prepare_decomposition(graph, td)
        with span("problems.encode"):
            encoded = encode_for_three_coloring(graph, nice)
        with span("datalog.load"):
            sdb = SetDatabase.from_edb(encoded)
        stats = EvaluationStats()
        with span("datalog.solve"):
            db = solve(
                self.solver.program,
                sdb,
                backend="semi-naive",
                query="success",
                stats=stats,
            )
        return db.contains("success", ()), {
            "treewidth.width": td.width,
            "treewidth.nodes": nice.node_count(),
            "problems.allowed_facts": len(encoded.relation("allowed")),
            "datalog.facts_derived": stats.facts_derived,
            "datalog.rule_firings": stats.rule_firings,
            "datalog.bindings_explored": stats.bindings_explored,
        }


#: the admission verdict each planned input class must get
VERDICTS = {
    "clean": "admitted",
    "alien": "repaired",
    "dropped": "repaired",
    "over-width": "degraded",
}


class ServiceUntrusted(CompiledQueryWorkload):
    name = "service-untrusted"
    width = 1
    structure_filter = staticmethod(undirected_graph_filter)
    size_range = (20, 120)
    inputs = 300
    #: every block of 20 requests holds 16 clean ones, 3 with a
    #: repairable defect (an alien or a dropped bag element) and 1
    #: over-width one
    block = 20
    alien_element = -1
    #: seconds one request may take before it counts as failed
    timeout = 60.0

    def params(self) -> dict:
        return {
            **super().params(),
            "workers": 1,
            "admission": "degrade",
            "in_flight": 1,
            "mix_per_block": {
                "block": self.block,
                "clean": 16,
                "repairable": 3,
                "over-width": 1,
            },
        }

    def plan_of(self, seed: int, index: int) -> str:
        rng = _rng(self.name, seed, "plan", index // self.block)
        plan = ["clean"] * 16 + [
            "alien",
            "dropped",
            rng.choice(("alien", "dropped")),
            "over-width",
        ]
        rng.shuffle(plan)
        return plan[index % self.block]

    def generate(self, seed, count=None):
        self._seed = seed
        return super().generate(seed, count)

    def make(self, rng, n, index):
        plan = "clean" if index < 0 else self.plan_of(self._seed, index)
        graph = random_forest(rng, n)
        if plan == "over-width":
            # a chord between two neighbours of one vertex closes a
            # triangle: treewidth 2 on a width-1 program
            hubs = sorted(v for v in graph.vertices if len(graph.neighbors(v)) >= 2)
            if not hubs:
                raise BenchmarkError(f"forest {index} has no path of length 2")
            u, w = rng.sample(sorted(graph.neighbors(rng.choice(hubs))), 2)
            graph.add_edge(u, w)
        structure = graph_to_structure(graph)
        td = decompose_structure(structure)
        if plan == "alien":
            td = self._with_alien(rng, td)
        elif plan == "dropped":
            td = self._with_dropped(rng, td, structure, index)
        return Request(index, n, structure, non_isolated(graph), td=td, plan=plan)

    def _with_alien(self, rng, td):
        bags = dict(td.bags)
        node = rng.choice(sorted(bags))
        bags[node] = bags[node] | {self.alien_element}
        return TreeDecomposition(td.tree, bags)

    def _with_dropped(self, rng, td, structure, index):
        nodes = sorted(n for n, bag in td.bags.items() if bag)
        rng.shuffle(nodes)
        for node in nodes:
            bags = dict(td.bags)
            element = rng.choice(sorted(bags[node]))
            bags[node] = bags[node] - {element}
            broken = TreeDecomposition(td.tree, bags)
            if broken.structure_violations(structure):
                return broken
        raise BenchmarkError(f"no bag element of input {index} is load-bearing")

    def setup(self) -> None:
        # the driver and the worker it forks share one core, so that the
        # host-speed probes the driver takes describe the core the
        # requests are solved on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        super().setup()
        self.service = SolverService(workers=1, admission="degrade")
        self.handle = self.service.register(self.solver)

    def teardown(self) -> None:
        service, self.service, self.handle = self.service, None, None
        if service is not None:
            service.shutdown()
        super().teardown()

    def submit(self, request):
        return self.handle.submit(request.payload, td=request.td)

    def call(self, request):
        return self.submit(request).result(timeout=self.timeout)

    def expected_verdict(self, request) -> str:
        return VERDICTS[request.plan]

    def check_served(self, requests) -> list[str]:
        """The service's admission counters must match the planned mix
        of the requests it served."""
        planned = {"admitted": 0, "repaired": 0, "degraded": 0, "rejected": 0}
        for request in requests:
            planned[self.expected_verdict(request)] += 1
        stats = self.service.stats
        seen = {
            "admitted": stats.admitted,
            "repaired": stats.repaired,
            "degraded": stats.degraded,
            "rejected": stats.admission_rejected,
        }
        if seen != planned:
            return [f"service verdicts {seen} != planned {planned}"]
        return []

    def call_in_process(self, request):
        """The same request without the service: ``(answer, verdict)``."""
        answer, report = self.solver.solve_admitted(
            request.payload, request.td, policy="degrade"
        )
        return answer, report.verdict

    def replay(self, request, tracer):
        solver = self.solver
        with tracer.span("admission.admit"):
            result = admit(
                request.payload,
                signature=solver.compiled.signature,
                width=solver.compiled.width,
                td=request.td,
                policy="degrade",
            )
        counts = {"admission.verdict": result.report.verdict}
        if result.action != "solve":
            budget = (
                MeterBudget(result.meter)
                if result.action == "degrade" and result.meter is not None
                else None
            )
            with tracer.span("mso.degrade"):
                answer = mso_query(
                    result.structure,
                    solver.compiled_formula(),
                    solver.compiled.free_var,
                    budget=budget,
                )
            return answer, counts
        answer, more = self._solve_stages(result.structure, result.td, tracer, True)
        counts.update(more)
        counts["treewidth.width"] = result.report.width
        return answer, counts


WORKLOADS = {
    w.name: w for w in (LadderW2(), TreesW1(), ThreeColKTree(), ServiceUntrusted())
}
