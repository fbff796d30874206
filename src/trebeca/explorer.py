"""Bounded exhaustive exploration of the system transition graph.

At every state the explorer branches on each message carrying the minimal
time tag and, per message, on every nondeterministic-choice vector its
method body can take. States deduplicate by a canonical serialization, so
the result is a graph rather than a tree; simulation traces are paths in
that graph.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter
from typing import Iterator, Optional

from .interp import ExecError, Resolver
from .model import (
    EV_SENT,
    Event,
    Message,
    MessageEvent,
    SystemState,
    json_int,
    json_str,
    message_sort_key,
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


def state_key(state: SystemState, parts: Optional[list] = None,
              msg: Optional[Message] = None, record=None, sent=(),
              work: Optional[SystemState] = None) -> str:
    """Canonical serialization: equal keys iff structurally equal states.

    ``new`` numbers a rebec by the live rebec count, so the key needs no
    counter of its own. The key joins the fragment each rebec record caches,
    in sorted-id order, and the text each message caches, in bag order,
    which is canonical.

    Without ``msg`` it renders ``state``. With it, it is the key of ``state``
    less ``msg`` (in its bag) with the receiver's new ``record``, the messages
    ``sent`` (largest first) and the rebecs that ``work``, the successor if
    built, created. ``parts``, a fresh list ``[ids, records, texts]`` of
    ``state``'s sorted rebec ids, record keys and bag texts (``[[], [], []]``
    for the root), is left holding the key's own: less ``msg``'s text at its
    bag index ``i``, plus each sent text at its ``bisect_right`` in the bag
    less one past ``i`` (equal sort keys have equal texts).
    """
    ids, records, texts = parts or ([], [], [])
    records = records.copy()
    if msg is None:
        texts = [m.text for m in state.bag]
    else:
        records[bisect_left(ids, msg.receiver)] = record.key()
        bag = state.bag
        i = bisect_left(bag, msg.sort_key, key=message_sort_key)
        texts = texts[:i] + texts[i + 1:]
        for m in sent:  # largest first, so no insertion moves a later one's place
            j = bisect_right(bag, m.sort_key, key=message_sort_key)
            texts.insert(j - (i < j), m.text)
    envs = (state if work is None else work).envs
    if len(envs) > len(ids):
        ids = ids.copy()
        for rid in islice(envs, len(ids), None):
            i = bisect_left(ids, rid)
            ids.insert(i, rid)
            records.insert(i, envs[rid].key())
    if parts is not None:
        parts[:] = ids, records, texts
    return "|".join(records) + "#" + ";".join(texts)


@dataclass
class ExploreBounds:
    horizon: Optional[int] = None
    max_steps: Optional[int] = None
    max_states: Optional[int] = None

    def require_bound(self) -> None:
        require_bounds("exploration needs a horizon, max-steps or max-states bound",
                       horizon=self.horizon, max_steps=self.max_steps,
                       max_states=self.max_states)


@dataclass(slots=True)
class Edge:
    src: int
    dst: int
    decision: Decision
    time: int  # execution time of the step
    events: tuple[Event, ...]  # the step's own, msg_selected first


@dataclass(slots=True)
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

    def out_edges(self) -> list[list[Edge]]:
        """Each node's out-edges in edge order, indexed by node id."""
        out: list[list[Edge]] = [[] for _ in self.nodes]
        for e in self.edges:
            out[e.src].append(e)
        return out

    def json_pieces(self) -> Iterator[str]:
        """The graph document (README "Graph JSON") exactly as
        ``json.dumps(doc, indent=2)`` writes it, in pieces, without
        building ``doc``: a header, one piece per node, and per edge its own
        fields followed by its decision's block."""
        bounds = self.bounds
        yield (f'{{\n  "root": 0,\n  "truncated": {"true" if self.truncated else "false"},\n'
               f'  "bounds": {{\n    "horizon": {json_int(bounds.horizon)},\n'
               f'    "max_steps": {json_int(bounds.max_steps)},\n'
               f'    "max_states": {json_int(bounds.max_states)}\n  }},\n  "nodes": ')
        # Each item starts with what separates it from the one before.
        sep = "[\n"
        for i, n in enumerate(self.nodes):
            yield (f'{sep}    {{\n      "id": {i},\n      "key": {json_str(n.key)},\n'
                   f'      "depth": {n.depth},\n      "earliest_time": {n.earliest_time},\n'
                   f'      "terminal": {json_str(n.terminal)}\n    }}')
            sep = ",\n"
        yield ("\n  ]" if self.nodes else "[]") + ',\n  "edges": '
        # Memo hits share their Decision objects, so each block is written
        # once per object and handed on by reference for every edge that
        # shares it; the edges keep every decision alive meanwhile.
        blocks: dict[int, str] = {}
        sep = "[\n"
        for e in self.edges:
            block = blocks.get(id(e.decision))
            if block is None:
                block = blocks[id(e.decision)] = _decision_json(e.decision)
            yield (f'{sep}    {{\n      "src": {e.src},\n      "dst": {e.dst},\n'
                   f'      "time": {e.time},\n')
            yield block
            sep = ",\n"
        yield "\n  ]" if self.edges else "[]"
        # Only a graph with faults has the member, so fault-free graphs keep
        # their bytes.
        if self.error_branches:
            sep = ',\n  "error_branches": [\n'
            for b in self.error_branches:
                yield f'{sep}    {{\n      "src": {b.src},\n      "error": {json_str(b.message)},\n'
                yield _decision_json(b.decision)
                sep = ",\n"
            yield "\n  ]"
        yield "\n}\n"

    def to_json(self) -> str:
        """The graph document as one string: ``json_pieces`` joined."""
        return "".join(self.json_pieces())

    def dot_pieces(self) -> Iterator[str]:
        """The Graphviz rendering of the graph, one line per piece."""
        yield "digraph exploration {\n"
        for i, n in enumerate(self.nodes):
            shape = "doublecircle" if n.terminal else "circle"
            label = f"{i}" + (f"\\n{n.terminal}" if n.terminal else "")
            yield f'  n{i} [shape={shape}, label="{label}"];\n'
        for e in self.edges:
            tt, receiver, method = e.decision.message[:3]
            yield f'  n{e.src} -> n{e.dst} [label="{receiver}.{method}@{tt}"];\n'
        yield "}\n"

    def to_dot(self) -> str:
        """The Graphviz rendering as one string: ``dot_pieces`` joined."""
        return "".join(self.dot_pieces())


def _decision_json(decision: Decision) -> str:
    """An edge's or error branch's ``"message"`` and ``"choices"`` members
    and its closing brace."""
    tt, receiver, method, args, sender, dl = decision.message
    args_json = ("[\n" + ",\n".join(f"          {json_str(a)}" for a in args) + "\n        ]"
                 if args else "[]")
    choices_json = ("[\n" + ",\n".join(
        f"        [\n          {json_str(site)},\n          {arity},\n"
        f"          {idx}\n        ]" for site, arity, idx in decision.choices) + "\n      ]"
        if decision.choices else "[]")
    return (f'      "message": [\n        {tt},\n        {json_str(receiver)},\n'
            f'        {json_str(method)},\n        {args_json},\n'
            f'        {json_str(sender)},\n        {json_str(dl)}\n      ],\n'
            f'      "choices": {choices_json}\n    }}')


class StalePathError(Exception):
    """A decision path no longer matches the graph (model or bindings changed)."""


def transition_key(state: SystemState, msg: Message):
    """The memo key of serving ``msg`` in ``state``: its receiver's record
    and the message, all that a message server reads (``_local_transitions``)."""
    return state.envs[msg.receiver].key(), msg.sort_key


def _local_transitions(memo: dict, base: SystemState, msg: Message) -> list:
    """Serve ``msg`` in ``base`` under every nondeterministic-choice vector.

    Returns (decision, record, sent, step-events tuple, state-after) per
    vector: the receiver's new record and the messages that its ``msg_sent``
    events name, largest ``sort_key`` first. A vector whose execution faults
    gives (decision, None, (), error-text, None).

    A message server reads only its receiver's record, the message, the env
    bindings and the model, and writes only the receiver, the bag and new
    rebecs. So every branch that serves ``msg`` in a state with an equal
    ``transition_key`` is that state minus ``msg``, plus the stored receiver
    record and sent messages, and a hit has no state-after.

    ``new`` numbers its rebec by the state's live rebec count, and a fault's
    text may depend on it, so ``memo`` stores the vectors only when every
    branch completes with as many rebecs as ``base``. The miss and every
    later hit yield the same Decision and events tuple objects, which become
    the edges' own, so ``check_graph`` and ``to_json`` do their work once per
    shared transition.
    """
    key = transition_key(base, msg)
    outcomes = memo.get(key)
    if outcomes is not None:
        return outcomes
    results = []
    pending: list[list[int]] = [[]]
    while pending:
        prefix = pending.pop()
        work = base.clone()
        resolver = Resolver(prefix)
        try:
            events = tuple(execute_selected(work, msg, resolver))
        except ExecError as exc:
            results.append((Decision(msg.key, tuple(resolver.taken)), None, (), str(exc), None))
        else:
            # Stable: equal copies keep send order, so adding these rebuilds the body's bag.
            sent = sorted([ev.msg for ev in events if ev.kind == EV_SENT],
                          key=message_sort_key, reverse=True)
            results.append((Decision(msg.key, tuple(resolver.taken)),
                            work.envs[msg.receiver], sent, events, work))
        taken = resolver.taken
        # Queue the unexplored siblings of every choice made past the prefix.
        for p in range(len(prefix), len(taken)):
            _site, arity, idx = taken[p]
            for alt in range(idx + 1, arity):
                pending.append([t[2] for t in taken[:p]] + [alt])
    if all(work is not None and len(work.envs) == len(base.envs)
           for *_, work in results):
        memo[key] = [branch[:4] + (None,) for branch in results]
    return results


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
    # interned, not yet expanded: id, state and its key parts (state_key)
    frontier: deque[tuple[int, SystemState, list]] = deque()
    edges: list[Edge] = []
    error_branches: list[ErrorBranch] = []
    memo: dict = {}  # transition_key -> stored outcomes (_local_transitions)

    def expand(nid: int, state: SystemState, parts: list) -> None:
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
        if purge_events:
            parts[2] = [m.text for m in state.bag]
        for msg in candidates:
            for decision, record, sent, payload, work in _local_transitions(memo, state, msg):
                if record is None:
                    error_branches.append(ErrorBranch(nid, decision, payload))
                    continue
                time = payload[0].time
                # FIFO order interns every key first at its least depth; the
                # step's time lowers the node's earliest time.
                child_parts = [*parts]
                key = state_key(state, child_parts, msg, record, sent, work)
                dst = keys.get(key)
                if dst is None:
                    if work is None:
                        work = state.clone()
                        work.remove_message(msg)
                        work.envs[msg.receiver] = record
                        for m in sent:
                            work.add_message(m)
                    dst = keys[key] = len(nodes)
                    nodes.append(Node(key, depth + 1, earliest_time=time))
                    frontier.append((dst, work, child_parts))
                elif time < nodes[dst].earliest_time:
                    nodes[dst].earliest_time = time
                edges.append(Edge(nid, dst, decision, time, payload))

    root_parts: list = [[], [], []]
    root_key = state_key(root_state, root_parts)
    keys[root_key] = 0
    nodes.append(Node(root_key, 0))
    frontier.append((0, root_state, root_parts))
    while frontier and (bounds.max_states is None or len(nodes) < bounds.max_states):
        expand(*frontier.popleft())
    for nid, _, _ in frontier:
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


# An edge's place among its source's out-edges. A source and a decision fix
# the destination, so this orders them totally.
_decision_order = attrgetter("decision.message", "decision.choices")


def _canonicalize(result: ExploreResult) -> None:
    """Renumber nodes as (depth, key) and order edges by source, then
    decision, so the result is byte-identical however the frontier was
    scheduled.

    The FIFO search interns nodes in nondecreasing depth, so each depth is a
    run of ids that sorts by key alone. Each node's out-edges sort by
    decision alone and are written at the node's new place."""
    nodes = result.nodes
    keys = [n.key for n in nodes]
    depths = [n.depth for n in nodes]
    order: list[int] = []
    lo = 0
    while lo < len(nodes):
        hi = bisect_right(depths, depths[lo], lo)
        order += sorted(range(lo, hi), key=keys.__getitem__)
        lo = hi
    # Root keeps id 0: it is the unique depth-0 node.
    remap = [0] * len(order)
    for new, old in enumerate(order):
        remap[old] = new
    runs = result.out_edges()
    for run in runs:
        run.sort(key=_decision_order)
    result.nodes = [nodes[old] for old in order]
    result.edges = list(chain.from_iterable(map(runs.__getitem__, order)))
    for e in result.edges:
        e.src = remap[e.src]
        e.dst = remap[e.dst]
    for b in result.error_branches:
        b.src = remap[b.src]
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
    scheduler would do next, as in a simulation: max-steps, unpurged, after
    max-steps decisions; else the end where the run ends (empty bag, all
    expired, horizon), and partial anywhere else.
    """
    state, events = build_initial_state(result.checked, result.env_bindings)
    trace = Trace(events)
    horizon, max_steps = result.bounds.horizon, result.bounds.max_steps
    if max_steps is not None and len(path) > max_steps:
        raise StalePathError(f"the run ends ({END_MAX_STEPS}) before {path[max_steps].message}")
    for decision in path:
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
    if len(path) == max_steps:
        trace.end(END_MAX_STEPS, horizon)
        return trace
    purge_events, end, _ = prepare_step(state, result.deadline_check, horizon)
    if end is None:
        end = END_PARTIAL  # the purges belong to a step the path does not take
    else:
        events += purge_events
    trace.end(end, horizon)
    return trace
