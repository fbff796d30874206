"""The benchmark's workloads.

Each workload is a closed loop: one caller issues the next job only after
the previous one has returned. A workload object is built from the program
(its construction is the set-up that ``setup_s`` measures), lists the jobs
of one pass for a seed, executes a job (the timed part) and checks the
job's outputs (untimed). Jobs call the program only through module
attributes, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path
from time import perf_counter

from corpus import generate

HERE = Path(__file__).resolve().parent

SENSOR_NAMES = ["netDelay", "adminPeriod", "sensor0Period", "sensor1Period",
                "scientistDeadline", "rescueDeadline"]
UNSTABLE_ROW = (2, 1, 1, 1, 4, 7)
# The sensor-network rows of the README's result table.
SENSOR_GRID = [(1, 4, 2, 3, 2, 3), (1, 4, 2, 3, 2, 4), (2, 1, 1, 1, 4, 5),
               (2, 1, 1, 1, 4, 6), (2, 1, 1, 1, 4, 7), (2, 4, 1, 1, 4, 7)]

EXPLORE_HORIZON = 18
EXPLORE_MAX_STATES = 5_000
SWEEP_HORIZON = 200
SWEEP_SEEDS_PER_POINT = 10
CORPUS_HORIZON = 6
CORPUS_MAX_STATES = 200
CORPUS_RUN_MAX_STEPS = 200
# The run seeds every corpus model's runs use, and that make_strata.py
# measured its costs with, so a drawn corpus has the strata's cost profile.
CORPUS_RUN_SEEDS = (0, 1, 2)

END_MAX_STEPS = "max-steps"
END_TRUNCATED = "truncated"  # an explorer node left unexpanded by the state cap
PASS, FAIL = "pass", "fail"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(parts: list) -> str:
    return sha(json.dumps(parts, separators=(",", ":")))[:16]


def graph_counts(result) -> Counter:
    """States, edges, edges into an already-known state, faulted branches."""
    states, edges = len(result.nodes), len(result.edges)
    return Counter(states=states, edges=edges, revisits=edges - (states - 1),
                   error_branches=len(result.error_branches))


def trace_counts(trace) -> Counter:
    kinds = Counter(ev.kind for ev in trace.events)
    return Counter(steps=kinds["msg_selected"], purged=kinds["msg_purged"])


def graph_statuses(verdict) -> list:
    return [[c.exists_status, c.forall_status] for c in verdict.clauses]


def trace_statuses(verdict) -> list:
    return [c.status for c in verdict.clauses]


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    seeded = True  # whether the seed changes the jobs

    def jobs(self, seed: int) -> list:
        raise NotImplementedError

    def execute(self, job, work: Counter):
        """Run one job; add time spent inside explore/run and the steps
        they executed to ``work``. Returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, job, out) -> tuple[str, Counter, list[str]]:
        """Digest of the job's outputs, its layer counts, and problems found."""
        raise NotImplementedError

    def corpus_digest(self, jobs: list):
        """Digest of the generated inputs, for workloads that generate them."""
        return None

    def _explore(self, checked, env, bounds, work: Counter):
        start = perf_counter()
        result = self.api.explorer.explore(checked, env, bounds)
        work["explore_s"] += perf_counter() - start
        work["steps"] += len(result.edges) + len(result.error_branches)
        return result

    def _run(self, checked, env, seed, policy, work: Counter):
        start = perf_counter()
        trace = self.api.scheduler.run(checked, env, seed, policy)
        work["run_s"] += perf_counter() - start
        work["runs"] += 1
        work["steps"] += sum(1 for ev in trace.events if ev.kind == "msg_selected")
        return trace


def _bundled(api, *names: str) -> str:
    return "".join(api.trebeca.bundled(n).read_text(encoding="utf-8") for n in names)


class ExploreUnstable(Workload):
    """One capped exploration of the unstable sensor-network row, its graph
    verdicts and its JSON graph."""

    name = "explore_unstable"
    seeded = False  # the explorer has no randomness; every seed runs this job

    def __init__(self, api):
        self.api = api
        self.checked = api.parser.load_model(_bundled(api, "sensor_network.rebeca"))
        self.spec = api.monitors.parse_monitor(
            _bundled(api, "mission_failed.monitor", "mission_success.monitor"))
        self.env = dict(zip(SENSOR_NAMES, UNSTABLE_ROW))

    def jobs(self, seed: int) -> list:
        return [UNSTABLE_ROW]

    def execute(self, job, work: Counter):
        bounds = self.api.explorer.ExploreBounds(horizon=EXPLORE_HORIZON,
                                                 max_states=EXPLORE_MAX_STATES)
        result = self._explore(self.checked, self.env, bounds, work)
        verdict = self.api.monitors.check_graph(result, self.spec)
        return result, verdict, result.to_json()

    def check(self, job, out):
        result, verdict, graph = out
        counts = graph_counts(result)
        parts = [sha(graph), counts["states"], counts["edges"], counts["error_branches"],
                 graph_statuses(verdict)]
        return digest(parts), counts, []


class SimulateSweep(Workload):
    """Seeded runs over the ticket-service sweep grid and the sensor-network
    table rows, each monitored and serialized to JSON Lines."""

    name = "simulate_sweep"

    def __init__(self, api):
        self.api = api
        ticket = api.parser.load_model(_bundled(api, "ticket_service.rebeca"))
        sensor = api.parser.load_model(_bundled(api, "sensor_network.rebeca"))
        ticket_spec = api.monitors.parse_monitor(
            _bundled(api, "ticket_issued.monitor", "ticket_not_issued.monitor"))
        sensor_spec = api.monitors.parse_monitor(
            _bundled(api, "mission_failed.monitor", "mission_success.monitor"))
        sweep = api.cli.parse_sweep_spec(_bundled(api, "ticket_sweep.txt"), "ticket_sweep.txt")
        self.points = [(ticket, ticket_spec, dict(zip(sweep.names, p))) for p in sweep.points()]
        self.points += [(sensor, sensor_spec, dict(zip(SENSOR_NAMES, row))) for row in SENSOR_GRID]

    def jobs(self, seed: int) -> list:
        rng = random.Random(seed)
        return [(point, rng.randrange(2**31))
                for point in range(len(self.points)) for _ in range(SWEEP_SEEDS_PER_POINT)]

    def execute(self, job, work: Counter):
        point, run_seed = job
        checked, spec, env = self.points[point]
        policy = self.api.scheduler.SchedulePolicy(horizon=SWEEP_HORIZON)
        trace = self._run(checked, env, run_seed, policy, work)
        verdict = self.api.monitors.check_trace(trace, spec)
        return trace, verdict, trace.to_jsonl()

    def check(self, job, out):
        trace, verdict, lines = out
        parts = [sha(lines), trace.end_reason, trace_statuses(verdict)]
        return digest(parts), trace_counts(trace), []


def load_strata() -> list[list[int]]:
    return json.loads((HERE / "strata.json").read_text(encoding="utf-8"))["strata"]


class CorpusGenerated(Workload):
    """Generated models handed over as source text: parse and check, a
    capped exploration with a graph verdict, then a few monitored runs."""

    name = "corpus_generated"

    def __init__(self, api):
        self.api = api

    def jobs(self, seed: int) -> list:
        # One model from every cost stratum of the generator's seed pool, so
        # every benchmark seed gets a different corpus with the same profile.
        rng = random.Random(seed)
        return [generate(rng.choice(stratum)) for stratum in load_strata()]

    def corpus_digest(self, jobs: list):
        return digest([model.source for model in jobs])

    def execute(self, model, work: Counter):
        api = self.api
        checked = api.parser.load_model(model.source)
        spec = api.monitors.parse_monitor(model.clause)
        env = {decl.name: 1 for decl in checked.model.env_decls}
        bounds = api.explorer.ExploreBounds(horizon=CORPUS_HORIZON,
                                            max_states=CORPUS_MAX_STATES)
        result = self._explore(checked, env, bounds, work)
        graph_verdict = api.monitors.check_graph(result, spec)
        policy = api.scheduler.SchedulePolicy(horizon=CORPUS_HORIZON,
                                              max_steps=CORPUS_RUN_MAX_STEPS)
        runs = []
        for run_seed in CORPUS_RUN_SEEDS:
            trace = self._run(checked, env, run_seed, policy, work)
            runs.append((trace, api.monitors.check_trace(trace, spec), trace.to_jsonl()))
        return result, graph_verdict, runs

    def check(self, model, out):
        result, graph_verdict, runs = out
        counts = graph_counts(result)
        complete = not any(n.terminal == END_TRUNCATED for n in result.nodes)
        problems = []
        parts = [sha(model.source), sha(result.to_json()), counts["states"], counts["edges"],
                 counts["error_branches"], graph_statuses(graph_verdict)]
        for i, (trace, verdict, lines) in enumerate(runs):
            counts += trace_counts(trace)
            parts.append([sha(lines), trace.end_reason, trace_statuses(verdict)])
            problem = self._containment(result, trace)
            if problem:
                problems.append(f"run {i}: {problem}")
            elif complete and trace.end_reason != END_MAX_STEPS:
                # The run is a maximal path of a complete graph, so its
                # verdict is a witness for the graph's verdicts.
                for c, status in zip(graph_verdict.clauses, trace_statuses(verdict)):
                    if (status == PASS and c.exists_status != PASS) or \
                            (status == FAIL and c.forall_status != FAIL):
                        problems.append(f"run {i}: trace says {status}, graph says "
                                        f"{c.exists_status}/{c.forall_status} for {c.clause}")
        return digest(parts), counts, problems

    def _containment(self, result, trace) -> str:
        """The run's decision path must be a path of the explored graph and
        end where the graph ends, up to where the state cap cut the graph."""
        step = {(e.src, e.decision): e.dst for e in result.edges}
        node = result.root
        for decision in self.api.explorer.trace_decisions(trace):
            if result.nodes[node].terminal == END_TRUNCATED:
                return ""
            nxt = step.get((node, decision))
            if nxt is None:
                return f"no edge from node {node} for {decision}"
            node = nxt
        terminal = result.nodes[node].terminal
        if terminal == END_TRUNCATED or trace.end_reason == END_MAX_STEPS:
            return ""
        if terminal != trace.end_reason:
            return f"run ended with {trace.end_reason}, graph node {node} with {terminal}"
        return ""


WORKLOADS = {w.name: w for w in (ExploreUnstable, SimulateSweep, CorpusGenerated)}
