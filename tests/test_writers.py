"""The trace and graph writers against ``json.dumps``.

``Trace.to_jsonl`` and ``ExploreResult.to_json`` write their JSON text
directly. The reference writers below build the dict tree and hand it to
``json.dumps``, the way both methods once did; every case here must come
out byte for byte the same from both.
"""
import json

import pytest

from conftest import TICKET_ENV, bundled_text
from gen import generate_model
from test_golden import BUNDLED_CASES, GENERATED_BOUNDS, GENERATED_SEEDS, RUN_CASES, run_trace
from trebeca.explorer import Decision, Edge, ExploreBounds, ExploreResult, Node, explore
from trebeca.model import (EV_ENDED, EV_PURGED, EV_SELECTED, EV_SENT, NEVER, Message, RebecRef,
                           TraceEvent)
from trebeca.parser import load_model, validate_model
from trebeca.scheduler import SchedulePolicy, Trace, run


def reference_jsonl(trace: Trace) -> str:
    lines = []
    for step, ev in enumerate(trace.events):
        record = {
            "step": step,
            "kind": ev.kind,
            "time": ev.time,
            "rebec": ev.rebec,
            "method": ev.method,
            "sender": ev.sender,
            "tt": ev.tt,
            "dl": ev.dl,
        }
        if ev.kind == EV_ENDED:
            record["reason"] = ev.reason
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    return "".join(lines)


def reference_graph_json(result: ExploreResult) -> str:
    doc = {
        "root": 0,
        "truncated": result.truncated,
        "bounds": {
            "horizon": result.bounds.horizon,
            "max_steps": result.bounds.max_steps,
            "max_states": result.bounds.max_states,
        },
        "nodes": [
            {
                "id": i,
                "key": n.key,
                "depth": n.depth,
                "earliest_time": n.earliest_time,
                "terminal": n.terminal,
            }
            for i, n in enumerate(result.nodes)
        ],
        "edges": [
            {
                "src": e.src,
                "dst": e.dst,
                "time": e.time,
                "message": list(e.decision.message[:3])
                + [list(e.decision.message[3])]
                + list(e.decision.message[4:]),
                "choices": [list(c) for c in e.decision.choices],
            }
            for e in result.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def assert_same_text(actual: str, expected: str) -> None:
    """Equality that reports the first differing line, not a full diff."""
    if actual != expected:
        got, want = actual.splitlines(True), expected.splitlines(True)
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
        pytest.fail(f"line {i + 1} differs: {got[i:i + 1]} != {want[i:i + 1]}"
                    f" ({len(got)} vs {len(want)} lines)")


def assert_writers_match(result: ExploreResult) -> None:
    assert_same_text(result.to_json(), reference_graph_json(result))


def assert_jsonl_matches(trace: Trace) -> None:
    assert_same_text(trace.to_jsonl(), reference_jsonl(trace))


def explore_bundled(label: str) -> ExploreResult:
    name, env, bounds, check = BUNDLED_CASES[label]
    return explore(load_model(bundled_text(name)), env, bounds, deadline_check=check)


@pytest.mark.parametrize("label", sorted(BUNDLED_CASES))
def test_graph_json_matches_json_dumps_on_bundled_cases(label):
    assert_writers_match(explore_bundled(label))


@pytest.mark.parametrize("label", sorted(BUNDLED_CASES))
def test_jsonl_matches_json_dumps_on_bundled_cases(label):
    name, env, bounds, check = BUNDLED_CASES[label]
    checked = load_model(bundled_text(name))
    policy = SchedulePolicy(horizon=bounds.horizon, max_steps=bounds.max_steps or 200,
                            deadline_check=check)
    for seed in range(3):
        trace = run(checked, env, seed, policy)
        assert_jsonl_matches(trace)


@pytest.mark.parametrize("label", sorted(RUN_CASES))
def test_jsonl_matches_json_dumps_on_golden_runs(label):
    trace = run_trace(label)
    assert_jsonl_matches(trace)


def test_both_writers_match_json_dumps_on_generated_models():
    for seed in GENERATED_SEEDS:
        model = generate_model(seed)
        checked = validate_model(model)
        env = {d.name: 1 for d in model.env_decls}
        assert_writers_match(explore(checked, env, ExploreBounds(**GENERATED_BOUNDS)))
        trace = run(checked, env, seed, SchedulePolicy(horizon=4, max_steps=60))
        assert_jsonl_matches(trace)


def test_zero_edge_graph(ticket_model):
    result = explore(ticket_model, TICKET_ENV, ExploreBounds(max_steps=0))
    assert result.edges == [] and result.truncated
    assert_writers_match(result)
    assert '"edges": []\n}\n' in result.to_json()


@pytest.mark.parametrize("bounds", [
    ExploreBounds(max_steps=3),
    ExploreBounds(max_states=7),
    ExploreBounds(horizon=6, max_steps=4, max_states=50),
])
def test_bounds_with_and_without_a_horizon(ping_pong_model, choice_delay_model, bounds):
    for checked in (ping_pong_model, choice_delay_model):
        assert_writers_match(explore(checked, {}, bounds))


def test_truncated_and_complete_graphs(choice_delay_model, ticket_model):
    complete = explore(choice_delay_model, {}, ExploreBounds(horizon=10))
    assert not complete.truncated
    assert_writers_match(complete)
    cut = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=6))
    assert cut.truncated
    assert_writers_match(cut)


def test_edges_with_and_without_args_and_choices():
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars { int x; }"
        " msgsrv initial() { x = ?(1, 2); self.m(x, true); self.k(); }"
        " msgsrv m(int v, boolean b) { x = ?(v, 0); self.n(x); }"
        " msgsrv n(int w) {} msgsrv k() {} }"
        " main { A a():(); }")
    result = explore(checked, {}, ExploreBounds(horizon=5))
    shapes = {(bool(e.decision.message[3]), bool(e.decision.choices)) for e in result.edges}
    assert shapes == {(False, True), (True, True), (True, False), (False, False)}
    assert_writers_match(result)


def reference_graph_json_with_faults(result: ExploreResult) -> str:
    """The fault-free reference plus ``"error_branches"`` after ``"edges"``:
    per branch its source, its fault's text, then the decision's members."""
    doc = json.loads(reference_graph_json(result))
    doc["error_branches"] = [
        {
            "src": b.src,
            "error": b.message,
            "message": list(b.decision.message[:3]) + [list(b.decision.message[3])]
            + list(b.decision.message[4:]),
            "choices": [list(c) for c in b.decision.choices],
        }
        for b in result.error_branches
    ]
    return json.dumps(doc, indent=2) + "\n"


def test_error_branches_follow_the_edges():
    # ``initial`` faults on one of its two choices; ``m(0)`` faults on both
    # of its own, ``m(1)`` on neither.
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars { int n; }"
        " msgsrv initial() { n = 1 / ?(0, 1); self.m(?(0, 1)); }"
        " msgsrv m(int d) { n = ?(4, 6) / d; } }"
        " main { A a():(); }")
    result = explore(checked, {}, ExploreBounds(horizon=5))
    assert [(b.decision.message[2], b.decision.message[3], len(b.decision.choices))
            for b in result.error_branches] == [("initial", (), 1), ("m", ("0",), 1),
                                               ("m", ("0",), 1)]
    assert "division by zero" in result.error_branches[0].message
    assert result.edges
    assert_same_text(result.to_json(), reference_graph_json_with_faults(result))


def test_run_ended_line_carries_its_reason(ticket_model):
    trace = run(ticket_model, TICKET_ENV, 0, SchedulePolicy(horizon=12))
    last = trace.to_jsonl().splitlines()[-1]
    assert last.endswith('"reason":"horizon"}')
    assert_jsonl_matches(trace)


def test_strings_are_escaped_as_json_dumps_escapes_them():
    odd = 'q"b\\s/\n\t\x01é€😀'
    trace = Trace(events=[
        TraceEvent(kind=EV_SELECTED, time=3, rebec=odd, method=odd, sender=odd, tt=0, dl=odd),
        TraceEvent(kind=EV_ENDED, time=2**63, reason=odd),
        TraceEvent(kind=odd, time=-1),
    ])
    assert_jsonl_matches(trace)
    decision = Decision(message=(-5, odd, odd, (odd, "1", "@x#0"), odd, odd),
                        choices=((odd, 2, 1), ("A.m?0", 3, 2)))
    result = ExploreResult(
        checked=None, env_bindings={}, bounds=ExploreBounds(horizon=0), deadline_check="literal",
        nodes=[Node(key=odd, depth=0), Node(key="", depth=1, terminal=odd, earliest_time=9)],
        edges=[Edge(src=0, dst=1, decision=decision, time=9, events=())],
        root_events=(), truncated=True,
    )
    assert_writers_match(result)


def test_message_events_are_written_from_their_message():
    odd = 'q"b\\s/\n\t\x01é€😀'
    messages = [Message(odd, odd, (), odd, 0, NEVER),
                Message("r", f"m{odd}", (1, True, RebecRef(odd)), f"{odd}s", 2**63 - 1, NEVER),
                Message(f"{odd}r", "m", (-3,), "s", 4, 9)]
    events = []
    for msg in messages:
        events += [msg.event(EV_SENT, 0), msg.event(EV_SELECTED, msg.tt, ((odd, 2, 1),)),
                   msg.event(EV_PURGED, 12)]
    expected = "".join(
        json.dumps({"step": step, "kind": ev.kind, "time": ev.time, "rebec": msg.receiver,
                    "method": msg.method, "sender": msg.sender, "tt": msg.tt,
                    "dl": "inf" if msg.dl == NEVER else str(msg.dl)},
                   separators=(",", ":")) + "\n"
        for step, (ev, msg) in enumerate(zip(events, [m for m in messages for _ in range(3)])))
    trace = Trace(events=events)
    assert trace.to_jsonl() == expected
    assert_jsonl_matches(trace)
