"""Trace and graph monitors.

A monitor is a list of clauses over observable events (message selections,
purges, sends). ``check_trace`` scans one run; ``check_graph`` lifts the
same clause semantics to a whole exploration graph and reports both an
exists- and a forall-verdict per clause.

Verdicts on runs that were cut short (horizon, step budget) are bounded
claims: NEVER reports pass when nothing matched up to the cut, EVENTUALLY
without a match reports inconclusive unless the bound already decides it.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Optional

from .explorer import Decision, ExploreResult
from .model import EV_ENDED, EV_PURGED, EV_SELECTED, EV_SENT, Event
from .parser import ParseError, SourceError, parse_int
from .scheduler import END_HORIZON, TRUNCATED_REASONS, Trace

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

EVENTUALLY = "eventually"
NEVER = "never"
PRECEDES = "always-precedes"

_KIND_TO_EVENT = {"selected": EV_SELECTED, "purged": EV_PURGED, "sent": EV_SENT}


@dataclass(frozen=True)
class EventPattern:
    kind: str  # "selected" | "purged" | "sent"
    rebec: str  # instance pattern, * wildcards
    method: str

    def matches(self, ev: Event) -> bool:
        return (
            ev.kind == _KIND_TO_EVENT[self.kind]
            and ev.rebec is not None
            and fnmatchcase(ev.rebec, self.rebec)
            and ev.method is not None
            and fnmatchcase(ev.method, self.method)
        )

    def __str__(self) -> str:
        return f"{self.kind} {self.rebec}.{self.method}"


@dataclass(frozen=True)
class Clause:
    op: str  # EVENTUALLY | NEVER | PRECEDES
    event: EventPattern
    within: Optional[int] = None  # EVENTUALLY only
    before: Optional[EventPattern] = None  # PRECEDES: the required earlier event
    line: int = field(default=1, compare=False)  # in the monitor file

    def __str__(self) -> str:
        if self.op == EVENTUALLY:
            bound = f" WITHIN {self.within}" if self.within is not None else ""
            return f"EVENTUALLY {self.event}{bound}"
        if self.op == NEVER:
            return f"NEVER {self.event}"
        return f"ALWAYS-PRECEDES({self.before}, {self.event})"


@dataclass
class MonitorSpec:
    clauses: list[Clause]


def _parse_event(text: str, lineno: int, errors: list[ParseError]) -> Optional[EventPattern]:
    parts = text.strip().split()
    if len(parts) != 2 or parts[0] not in _KIND_TO_EVENT:
        errors.append(ParseError((lineno, 1),
                                 f"expected '<selected|purged|sent> rebec.method', found {text.strip()!r}"))
        return None
    target = parts[1]
    if target.count(".") != 1:
        errors.append(ParseError((lineno, 1), f"event target must be rebec.method, found {target!r}"))
        return None
    rebec, method = target.split(".")
    return EventPattern(kind=parts[0], rebec=rebec, method=method)


def parse_monitor(text: str) -> MonitorSpec:
    """Parse a monitor file: one clause per line, '#' starts a comment."""
    clauses: list[Clause] = []
    errors: list[ParseError] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("EVENTUALLY "):
            body = line[len("EVENTUALLY "):]
            within = None
            if " WITHIN " in body:
                body, _, bound = body.rpartition(" WITHIN ")
                try:
                    within = parse_int(bound.strip())
                except ValueError:
                    errors.append(ParseError((lineno, 1), f"WITHIN bound must be an integer, found {bound.strip()!r}"))
                    continue
                if within < 0:
                    errors.append(ParseError((lineno, 1), "WITHIN bound must be non-negative"))
                    continue
            event = _parse_event(body, lineno, errors)
            if event:
                clauses.append(Clause(op=EVENTUALLY, event=event, within=within, line=lineno))
        elif line.startswith("NEVER "):
            event = _parse_event(line[len("NEVER "):], lineno, errors)
            if event:
                clauses.append(Clause(op=NEVER, event=event, line=lineno))
        elif line.startswith("ALWAYS-PRECEDES"):
            body = line[len("ALWAYS-PRECEDES"):].strip()
            if not (body.startswith("(") and body.endswith(")")) or "," not in body:
                errors.append(ParseError((lineno, 1),
                                         "expected ALWAYS-PRECEDES(event_a, event_b)"))
                continue
            first_text, _, second_text = body[1:-1].partition(",")
            first = _parse_event(first_text, lineno, errors)
            second = _parse_event(second_text, lineno, errors)
            if first and second:
                clauses.append(Clause(op=PRECEDES, event=second, before=first, line=lineno))
        else:
            errors.append(ParseError((lineno, 1), f"unknown clause {line.split()[0]!r}"))
    if errors:
        raise SourceError(errors)
    return MonitorSpec(clauses=clauses)


def validate_monitor(spec: MonitorSpec, checked) -> list[ParseError]:
    """Cross-check patterns against a model: non-wildcard names should exist."""
    instance_names = {inst.name for inst in checked.model.main}
    method_names = {m for info in checked.classes.values() for m in info.methods}
    warnings: list[ParseError] = []
    for clause in spec.clauses:
        events = [clause.event] + ([clause.before] if clause.before else [])
        for ev in events:
            if "*" not in ev.rebec and "?" not in ev.rebec and ev.rebec not in instance_names:
                warnings.append(ParseError((clause.line, 1),
                                           f"rebec {ev.rebec!r} is not an instance in main",
                                           severity="warning"))
            if "*" not in ev.method and "?" not in ev.method and ev.method not in method_names:
                warnings.append(ParseError((clause.line, 1),
                                           f"method {ev.method!r} is not declared by any class",
                                           severity="warning"))
    return warnings


# ---------------------------------------------------------------------------
# Clause automata
#
# Each clause compiles to a tiny deterministic automaton over trace events;
# traces fold it left to right, the graph product-reachability uses the same
# transition function, so per-path verdicts agree by construction.

_ST_OPEN = 0      # still undecided
_ST_GOOD = 1      # pass, absorbing
_ST_BAD = 2       # fail, absorbing
_ST_SEEN = 3      # PRECEDES only: required earlier event has occurred


def _step(clause: Clause, st: int, ev: Event) -> tuple[int, Optional[Event]]:
    """Advance one event; returns (state, witness) where witness is set the
    moment the clause becomes decided."""
    if st in (_ST_GOOD, _ST_BAD):
        return st, None
    if clause.op == EVENTUALLY:
        if clause.event.matches(ev) and (clause.within is None or ev.time <= clause.within):
            return _ST_GOOD, ev
        return st, None
    if clause.op == NEVER:
        if clause.event.matches(ev):
            return _ST_BAD, ev
        return st, None
    # PRECEDES: clause.event must never occur before clause.before has;
    # an event cannot precede itself.
    if st == _ST_OPEN and clause.event.matches(ev):
        return _ST_BAD, ev
    if st == _ST_OPEN and clause.before is not None and clause.before.matches(ev):
        return _ST_SEEN, None
    return st, None


def _end_status(clause: Clause, st: int, reason: Optional[str],
                horizon: Optional[int]) -> str:
    """Verdict for a finished path given its final automaton state and the
    reason it ended (None for a trace without a run_ended event)."""
    if st == _ST_GOOD:
        return PASS
    if st == _ST_BAD:
        return FAIL
    truncated = reason is None or reason in TRUNCATED_REASONS
    if clause.op == EVENTUALLY:
        if not truncated:
            return FAIL
        if (
            clause.within is not None
            and clause.event.kind in ("selected", "sent")
            and horizon is not None
            and clause.within <= horizon
        ):
            # Everything past a horizon cut of a selected/sent event happens
            # after the bound, so the WITHIN deadline is already missed.
            return FAIL
        return INCONCLUSIVE
    return PASS  # NEVER / PRECEDES undecided at the end of the path


@dataclass
class ClauseVerdict:
    clause: Clause
    status: str
    witness: Optional[Event] = None

    def __str__(self) -> str:
        return f"{self.status.upper():12s} {self.clause}"


@dataclass
class Verdict:
    clauses: list[ClauseVerdict]


def check_trace(trace: Trace, spec: MonitorSpec) -> Verdict:
    """Evaluate every clause over one complete trace."""
    end = next((ev for ev in reversed(trace.events) if ev.kind == EV_ENDED), None)
    reason = end.reason if end is not None else None
    horizon = end.time if reason == END_HORIZON else None
    out: list[ClauseVerdict] = []
    for clause in spec.clauses:
        st = _ST_OPEN
        witness: Optional[Event] = None
        for ev in trace.events:
            st, hit = _step(clause, st, ev)
            if hit is not None:
                witness = hit
                break
        status = _end_status(clause, st, reason, horizon)
        if witness is None and status in (PASS, FAIL):
            witness = end  # the scan of the whole run is the evidence
        out.append(ClauseVerdict(clause=clause, status=status, witness=witness))
    return Verdict(clauses=out)


# ---------------------------------------------------------------------------
# Graph checking


@dataclass
class GraphClauseVerdict:
    clause: Clause
    exists_status: str
    forall_status: str
    exists_witness: Optional[list[Decision]] = None
    forall_witness: Optional[list[Decision]] = None

    def __str__(self) -> str:
        return (f"exists={self.exists_status.upper():12s} "
                f"forall={self.forall_status.upper():12s} {self.clause}")


@dataclass
class GraphVerdict:
    clauses: list[GraphClauseVerdict]


# The status of a path that ends in an automaton state, where it is final.
_DECIDED = {_ST_GOOD: PASS, _ST_BAD: FAIL}


def _fold_events(clause: Clause, st: int, events) -> int:
    for ev in events:
        st, _ = _step(clause, st, ev)
    return st


def _fold_shared(folds: dict, clause: Clause, st: int, events) -> int:
    """``_fold_events`` once per automaton state and events object.

    Memo hits share their events tuples (``explorer._local_transitions``),
    and an edge holds its step's tuple whether or not its source purged, so
    ``folds``, one dict per clause, is keyed by the object's id. The graph
    holds every events object while ``check_graph`` runs, so no id is reused
    meanwhile.
    """
    key = (st, id(events))
    nxt = folds.get(key)
    if nxt is None:
        nxt = folds[key] = _fold_events(clause, st, events)
    return nxt


def check_graph(result: ExploreResult, spec: MonitorSpec) -> GraphVerdict:
    """Exists/forall verdicts over all maximal paths of an exploration graph.

    Per-path semantics match ``check_trace`` on the replayed path. Two
    additions: a cycle inside the bounds is a real infinite run (a zero-time
    loop), so an EVENTUALLY clause that stays unmet on it fails, while the
    safety clauses hold along it; the reported witness path then leads to
    the looping state. And a branch that faults is a path that ends at its
    source state, after that state's purges: it passes or fails where the
    clause is decided once those purges are folded in, and is inconclusive
    otherwise.

    Each product node folds its node's purges once, then judges its
    terminal, its faults and its out-edges from there. Each clause folds an
    edge's (automaton state, events object) pair once, however many product
    states and edges share it (``_fold_shared``).
    """
    out_edges = result.out_edges()
    faulted = {branch.src for branch in result.error_branches}
    horizon = result.bounds.horizon
    verdicts = []
    for clause in spec.clauses:
        folds: dict[tuple[int, int], int] = {}
        root_state = _fold_events(clause, _ST_OPEN, result.root_events)
        start = (result.root, root_state)
        # parents: product node -> (previous product node, edge taken)
        parents: dict[tuple[int, int], Optional[tuple[tuple[int, int], object]]] = {start: None}
        # product node -> one successor per out-edge, for the cycle search.
        successors: dict[tuple[int, int], list[tuple[int, int]]] = {}
        queue = deque([start])
        path_outcomes: dict[str, tuple[int, int]] = {}  # status -> product node
        while queue:
            prod = queue.popleft()
            succs = successors[prod] = []
            nid, st = prod
            node = result.nodes[nid]
            if node.purge_events:
                st = _fold_events(clause, st, node.purge_events)
            if node.terminal is not None:
                # The bound refinement only applies where the horizon itself
                # cut the path; other truncations end at arbitrary times.
                bound = horizon if node.terminal == END_HORIZON else None
                path_outcomes.setdefault(_end_status(clause, st, node.terminal, bound), prod)
            if nid in faulted:
                path_outcomes.setdefault(_DECIDED.get(st, INCONCLUSIVE), prod)
            for edge in out_edges[nid]:
                nxt = (edge.dst, _fold_shared(folds, clause, st, edge.events))
                succs.append(nxt)
                if nxt not in parents:
                    parents[nxt] = (prod, edge)
                    queue.append(nxt)
        # A cycle inside the bounds is a real infinite run (zero-time loop):
        # it never decides the clause, so EVENTUALLY fails along it and the
        # safety clauses hold along it.
        undecided = FAIL if clause.op == EVENTUALLY else PASS
        for prod in _cycle_states(successors, start):
            path_outcomes.setdefault(_DECIDED.get(prod[1], undecided), prod)

        exists_status = _aggregate(path_outcomes, prefer=(PASS, INCONCLUSIVE, FAIL))
        forall_status = _aggregate(path_outcomes, prefer=(FAIL, INCONCLUSIVE, PASS))
        exists_witness = _path_to(parents, path_outcomes.get(PASS))
        forall_witness = _path_to(parents, path_outcomes.get(FAIL))
        verdicts.append(GraphClauseVerdict(
            clause=clause, exists_status=exists_status, forall_status=forall_status,
            exists_witness=exists_witness, forall_witness=forall_witness,
        ))
    return GraphVerdict(clauses=verdicts)


def _aggregate(outcomes: dict, prefer: tuple[str, ...]) -> str:
    for status in prefer:
        if status in outcomes:
            return status
    return prefer[-1]


def _path_to(parents, prod) -> Optional[list[Decision]]:
    if prod is None or prod not in parents:
        return None
    path = []
    cur = prod
    while parents[cur] is not None:
        prev, edge = parents[cur]
        path.append(edge.decision)
        cur = prev
    path.reverse()
    return path


def _cycle_states(successors: dict, start) -> list:
    """The target of every back edge of a depth-first search of the product
    graph from ``start``.

    That is all ``check_graph`` needs of the cycles. ``_step`` never leaves
    GOOD, BAD or SEEN, so the automaton state changes at most once along a
    path and every product cycle keeps one automaton state. Every cyclic
    strongly connected component holds a back edge, so the targets cover
    each automaton state found on a cycle, though not every product state.
    """
    targets = []
    on_path, done = {start}, set()
    work = [(start, iter(successors[start]))]
    while work:
        prod, it = work[-1]
        for nxt in it:
            if nxt in on_path:
                targets.append(nxt)
            elif nxt not in done:
                on_path.add(nxt)
                work.append((nxt, iter(successors[nxt])))
                break
        else:
            work.pop()
            on_path.remove(prod)
            done.add(prod)
    return targets
