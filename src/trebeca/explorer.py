"""Bounded exhaustive exploration of the system transition graph.

At every state the explorer branches on each message carrying the minimal
time tag and, per message, on every nondeterministic-choice vector its
method body can take. States deduplicate by a canonical serialization, so
the result is a graph rather than a tree; simulation traces are paths in
that graph.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .interp import ExecError, Resolver
from .model import (
    Event,
    Message,
    MessageEvent,
    SystemState,
    json_int,
    json_str,
)
from .parser import CheckedModel
from .scheduler import (
    CHECK_LITERAL,
    END_MAX_STEPS,
    END_PARTIAL,
    END_TRUNCATED,
    TRUNCATED_REASONS,
    Trace,
    build_initial_state,
    execute_selected,
    prepare_step,
    require_bounds,
    start,
)

# Canonical identity of a message, JSON-friendly: the explorer's decisions
# (``Message.key``) and the trace's msg_selected events both reduce to this.
MessageKey = tuple  # (tt, receiver, method, (args...), sender, dl)


@dataclass(frozen=True)
class Decision:
    """What one scheduler step decided: which message, and which index each
    nondeterministic-choice site took while the method ran."""

    message: MessageKey
    choices: tuple[tuple[str, int, int], ...] = ()


def trace_decisions(trace: Trace) -> list[Decision]:
    """Recover the decision path a simulation took from its trace."""
    return [Decision(ev.msg.key, ev.choices) for ev in trace.selected()]


def state_key(state: SystemState) -> str:
    """Canonical serialization: equal keys iff structurally equal states.

    ``new`` numbers a rebec by the live rebec count, so the key needs no
    counter of its own. The key joins the fragments each rebec record and
    each message caches, so it costs a sort of the ids, not a rendering of
    every value; the bag is already in canonical order.
    """
    envs = state.envs
    return ("|".join([envs[rid].key() for rid in sorted(envs)]) + "#"
            + ";".join([m.text for m in state.bag]))


@dataclass
class ExploreBounds:
    horizon: Optional[int] = None
    max_steps: Optional[int] = None
    max_states: Optional[int] = None

    def require_bound(self) -> None:
        require_bounds("exploration needs a horizon, max-steps or max-states bound",
                       horizon=self.horizon, max_steps=self.max_steps,
                       max_states=self.max_states)


@dataclass
class Edge:
    src: int
    dst: int
    decision: Decision
    time: int  # execution time of the step
    events: tuple[Event, ...]  # the step's own, msg_selected first


@dataclass
class Node:
    """A state of the graph. Its terminal, its error branches and every one
    of its out-edges come after its ``purge_events``."""

    key: str
    depth: int
    terminal: Optional[str] = None  # reason, for states with no outgoing edges
    purge_events: tuple[MessageEvent, ...] = ()
    earliest_time: int = 0  # least time of a step into it; the root's is 0


@dataclass
class ErrorBranch:
    """A branch whose body faulted, after its source node's purges."""

    src: int
    decision: Decision
    message: str


@dataclass
class ExploreResult:
    checked: CheckedModel
    env_bindings: dict
    bounds: ExploreBounds
    deadline_check: str
    nodes: list[Node]
    edges: list[Edge]
    root_events: tuple[Event, ...]
    truncated: bool
    error_branches: list[ErrorBranch] = field(default_factory=list)

    @property
    def root(self) -> int:
        return 0

    def key_set(self) -> set[str]:
        return {n.key for n in self.nodes}

    def terminals(self) -> list[tuple[int, str]]:
        return [(i, n.terminal) for i, n in enumerate(self.nodes) if n.terminal]

    def out_edges(self) -> dict[int, list[Edge]]:
        out: dict[int, list[Edge]] = {i: [] for i in range(len(self.nodes))}
        for e in self.edges:
            out[e.src].append(e)
        return out

    def to_json(self) -> str:
        """The graph document (README "Graph JSON") exactly as
        ``json.dumps(doc, indent=2)`` writes it, without building ``doc``."""
        nodes = [
            f'    {{\n      "id": {i},\n      "key": {json_str(n.key)},\n'
            f'      "depth": {n.depth},\n      "earliest_time": {n.earliest_time},\n'
            f'      "terminal": {json_str(n.terminal)}\n    }}'
            for i, n in enumerate(self.nodes)
        ]
        # Memo hits share their Decision objects, so each block is written
        # once per object; the edges keep every decision alive meanwhile.
        blocks: dict[int, str] = {}
        edges = []
        for e in self.edges:
            block = blocks.get(id(e.decision))
            if block is None:
                block = blocks[id(e.decision)] = _decision_json(e.decision)
            edges.append(f'    {{\n      "src": {e.src},\n      "dst": {e.dst},\n'
                         f'      "time": {e.time},\n{block}')
        # Only a graph with faults has the member, so fault-free graphs keep
        # their bytes.
        errors = [f'    {{\n      "src": {b.src},\n      "error": {json_str(b.message)},\n'
                  f'{_decision_json(b.decision)}' for b in self.error_branches]
        return (
            f'{{\n  "root": 0,\n  "truncated": {"true" if self.truncated else "false"},\n'
            f'  "bounds": {{\n    "horizon": {json_int(self.bounds.horizon)},\n'
            f'    "max_steps": {json_int(self.bounds.max_steps)},\n'
            f'    "max_states": {json_int(self.bounds.max_states)}\n  }},\n'
            f'  "nodes": {_json_array(nodes, "  ")},\n'
            f'  "edges": {_json_array(edges, "  ")}'
            + (f',\n  "error_branches": {_json_array(errors, "  ")}' if errors else "")
            + "\n}\n"
        )

    def to_dot(self) -> str:
        lines = ["digraph exploration {"]
        for i, n in enumerate(self.nodes):
            shape = "doublecircle" if n.terminal else "circle"
            label = f"{i}" + (f"\\n{n.terminal}" if n.terminal else "")
            lines.append(f'  n{i} [shape={shape}, label="{label}"];')
        for e in self.edges:
            tt, receiver, method = e.decision.message[:3]
            lines.append(f'  n{e.src} -> n{e.dst} [label="{receiver}.{method}@{tt}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _decision_json(decision: Decision) -> str:
    """An edge's or error branch's ``"message"`` and ``"choices"`` members
    and its closing brace."""
    tt, receiver, method, args, sender, dl = decision.message
    arg_items = [f"          {json_str(a)}" for a in args]
    choice_items = [
        f"        [\n          {json_str(site)},\n          {arity},\n"
        f"          {idx}\n        ]"
        for site, arity, idx in decision.choices
    ]
    return (f'      "message": [\n        {tt},\n        {json_str(receiver)},\n'
            f'        {json_str(method)},\n        {_json_array(arg_items, "        ")},\n'
            f'        {json_str(sender)},\n        {json_str(dl)}\n      ],\n'
            f'      "choices": {_json_array(choice_items, "      ")}\n    }}')


def _json_array(items: list[str], pad: str) -> str:
    """A JSON array of written, indented items; ``pad`` indents its ``]``."""
    return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"


class StalePathError(Exception):
    """A decision path no longer matches the graph (model or bindings changed)."""


def _enumerate_decisions(base: SystemState, msg: Message):
    """Run ``msg``'s method under every nondeterministic-choice vector.

    Yields (decision, state-after, step-events tuple) per vector, and
    (decision, None, error-text) for vectors whose execution faults.
    """
    pending: list[list[int]] = [[]]
    while pending:
        prefix = pending.pop()
        work = base.clone()
        resolver = Resolver(prefix)
        try:
            events = tuple(execute_selected(work, msg, resolver))
        except ExecError as exc:
            work, events = None, str(exc)
        taken = resolver.taken
        # Queue the unexplored siblings of every choice made past the prefix.
        for p in range(len(prefix), len(taken)):
            _site, arity, idx = taken[p]
            for alt in range(idx + 1, arity):
                pending.append([t[2] for t in taken[:p]] + [alt])
        yield Decision(message=msg.key, choices=tuple(taken)), work, events


def transition_key(state: SystemState, msg: Message):
    """The memo key of serving ``msg`` in ``state``: its receiver's record
    and the message, all that a message server reads (``_local_transitions``)."""
    return state.envs[msg.receiver].key(), msg.sort_key


def _local_transitions(memo: dict, base: SystemState, msg: Message):
    """``_enumerate_decisions``, run once per receiver record and message.

    A message server reads only its receiver's record, the message, the env
    bindings and the model, and writes only the receiver, the bag and new
    rebecs. So every branch that serves ``msg`` in a state with an equal
    ``transition_key`` is that state minus ``msg``, plus the stored receiver
    record and sent messages.

    ``new`` numbers its rebec by the state's live rebec count, and a fault's
    text may depend on it, so ``memo`` stores an enumeration only when every
    branch completes with as many rebecs as ``base``. The miss and every
    later hit yield the same Decision and events tuple objects, which become
    the edges' own, so ``check_graph`` and ``to_json`` do their work once per
    shared transition.
    """
    key = transition_key(base, msg)
    outcomes = memo.get(key)
    if outcomes is None:
        results = list(_enumerate_decisions(base, msg))
        if all(work is not None and len(work.envs) == len(base.envs)
               for _, work, _ in results):
            queued = {id(m) for m in base.bag}
            memo[key] = [(decision, work.envs[msg.receiver],
                          [m for m in work.bag if id(m) not in queued], events)
                         for decision, work, events in results]
        yield from results
        return
    for decision, record, sent, events in outcomes:
        work = base.clone()
        work.remove_message(msg)
        work.envs[msg.receiver] = record
        for m in sent:
            work.add_message(m)
        yield decision, work, events


def explore(checked: CheckedModel, env_bindings: dict, bounds: ExploreBounds,
            deadline_check: str = CHECK_LITERAL) -> ExploreResult:
    """Enumerate every reachable state within the bounds, breadth first.

    States left unexpanded when ``max_states`` cuts the search become
    truncated terminals. The reachable key set is independent of tie
    enumeration order whenever no bound is hit.
    """
    root_state, root_events = start(checked, env_bindings, deadline_check, bounds)

    keys: dict[str, int] = {}
    nodes: list[Node] = []
    frontier: deque[tuple[int, SystemState]] = deque()  # interned, not yet expanded
    edges: list[Edge] = []
    error_branches: list[ErrorBranch] = []
    memo: dict = {}  # transition_key -> stored outcomes (_local_transitions)

    def intern_state(st: SystemState, depth: int, time: int) -> int:
        # FIFO order interns every key first at its least depth; ``time``, the
        # step's, lowers the node's earliest time.
        key = state_key(st)
        nid = keys.get(key)
        if nid is None:
            nid = keys[key] = len(nodes)
            nodes.append(Node(key=key, depth=depth, earliest_time=time))
            frontier.append((nid, st))
        elif time < nodes[nid].earliest_time:
            nodes[nid].earliest_time = time
        return nid

    def expand(nid: int, state: SystemState) -> None:
        node = nodes[nid]
        depth = node.depth
        if bounds.max_steps is not None and depth >= bounds.max_steps:
            node.terminal = END_MAX_STEPS
            return
        # The state is expanded once and then dropped, so it is purged in place.
        purge_events, end, candidates = prepare_step(state, deadline_check, bounds.horizon)
        node.purge_events = tuple(purge_events)
        if end is not None:
            node.terminal = end
            return
        for msg in candidates:
            for decision, result_state, payload in _local_transitions(memo, state, msg):
                if result_state is None:
                    error_branches.append(ErrorBranch(nid, decision, payload))
                    continue
                time = payload[0].time
                dst = intern_state(result_state, depth + 1, time)
                edges.append(Edge(nid, dst, decision, time, payload))

    def over_budget() -> bool:
        return bounds.max_states is not None and len(nodes) >= bounds.max_states

    intern_state(root_state, 0, 0)
    while frontier and not over_budget():
        expand(*frontier.popleft())
    for nid, _ in frontier:
        nodes[nid].terminal = END_TRUNCATED

    result = ExploreResult(
        checked=checked, env_bindings=dict(env_bindings), bounds=bounds,
        deadline_check=deadline_check, nodes=nodes, edges=edges,
        root_events=tuple(root_events),
        truncated=any(n.terminal in TRUNCATED_REASONS for n in nodes),
        error_branches=error_branches,
    )
    _canonicalize(result)
    return result


def _canonicalize(result: ExploreResult) -> None:
    """Renumber nodes as (depth, key) and sort edges so the result is
    byte-identical however the frontier was scheduled."""
    order = sorted(range(len(result.nodes)),
                   key=lambda i: (result.nodes[i].depth, result.nodes[i].key))
    # Root keeps id 0: it is the unique depth-0 node.
    remap = {old: new for new, old in enumerate(order)}
    result.nodes = [result.nodes[old] for old in order]
    for e in result.edges:
        e.src = remap[e.src]
        e.dst = remap[e.dst]
    for b in result.error_branches:
        b.src = remap[b.src]
    result.edges.sort(key=lambda e: (e.src, e.decision.message, e.decision.choices, e.dst))
    result.error_branches.sort(key=lambda b: (b.src, b.decision.message, b.decision.choices))


def follow(result: ExploreResult, path: list[Decision]) -> int:
    """Walk a decision path through the graph's edges; returns the final
    node id. Raises StalePathError when a decision has no matching edge."""
    by_src: dict[tuple[int, Decision], int] = {}
    for e in result.edges:
        by_src[(e.src, e.decision)] = e.dst
    node = result.root
    for decision in path:
        nxt = by_src.get((node, decision))
        if nxt is None:
            raise StalePathError(f"no edge from node {node} for {decision}")
        node = nxt
    return node


# ---------------------------------------------------------------------------
# Replay


def replay(result: ExploreResult, path: list[Decision]) -> Trace:
    """Re-execute a decision path from the initial state.

    Each decision must name a candidate of the scheduler's next step under
    the result's deadline mode and horizon, and a path may not be longer
    than its max-steps bound. The final run_ended reason is what the
    scheduler would do next: a path ending where the run ends (empty bag,
    all expired, horizon) ends the same way a simulation would, anything
    else is marked partial.
    """
    state, events = build_initial_state(result.checked, result.env_bindings)
    trace = Trace(events)
    horizon, max_steps = result.bounds.horizon, result.bounds.max_steps
    for step, decision in enumerate(path):
        if max_steps is not None and step >= max_steps:
            raise StalePathError(f"the run ends ({END_MAX_STEPS}) before {decision.message}")
        purge_events, end, candidates = prepare_step(state, result.deadline_check, horizon)
        if end is not None:
            raise StalePathError(f"the run ends ({end}) before {decision.message}")
        msg = next((m for m in candidates if m.key == decision.message), None)
        if msg is None:
            raise StalePathError(f"no eligible message matches {decision.message}")
        resolver = Resolver([idx for _, _, idx in decision.choices])
        try:
            step_events = execute_selected(state, msg, resolver)
        except ExecError as exc:
            raise StalePathError(f"stale decision vector: {exc}") from exc
        if tuple(resolver.taken) != decision.choices:
            raise StalePathError(f"stale decision vector: recorded {decision.choices},"
                                 f" the body took {tuple(resolver.taken)}")
        events += purge_events + step_events
    purge_events, end, _ = prepare_step(state, result.deadline_check, horizon)
    if end is None:
        end = END_PARTIAL  # the purges belong to a step the path does not take
    else:
        events += purge_events
    trace.end(end, horizon)
    return trace
