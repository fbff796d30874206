import random
from collections import Counter

import pytest

from conftest import SENSOR_NAMES, TICKET_ENV, bundled_text, explore_without_memo, graph_outputs
from test_golden import RUN_CASES
from test_properties import checked_model, env_for
from test_writers import reference_graph_json
from trebeca import explorer, scheduler
from trebeca.explorer import (
    Decision,
    Edge,
    ExploreBounds,
    ExploreResult,
    Node,
    StalePathError,
    explore,
    follow,
    replay,
    state_key,
    trace_decisions,
)
from trebeca.interp import Resolver
from trebeca.model import EV_PURGED, EV_SELECTED, EV_SENT, RebecEnv, SystemState
from trebeca.monitors import PASS, check_graph, check_trace, parse_monitor
from trebeca.parser import load_model
from trebeca.scheduler import (
    CHECK_EFFECTIVE,
    CHECK_LITERAL,
    END_MAX_STEPS,
    SchedulePolicy,
    build_initial_state,
    execute_selected,
    normalize_env_bindings,
    run,
)


def test_deterministic_model_is_a_single_path():
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars { int n; }"
        " msgsrv initial() { n = 1; self.step(); } msgsrv step() { n = 2; } }"
        " main { A a():(); }")
    res = explore(checked, {}, ExploreBounds(horizon=10))
    assert len(res.edges) == 2
    assert [t for _, t in res.terminals()] == ["empty-bag"]
    trace = run(checked, {}, 0, SchedulePolicy(horizon=10))
    assert follow(res, trace_decisions(trace)) == res.terminals()[0][0]


def test_choice_delay_has_exactly_two_terminals(choice_delay_model):
    res = explore(choice_delay_model, {}, ExploreBounds(horizon=10))
    terminals = res.terminals()
    assert len(terminals) == 2
    assert all(reason == "empty-bag" for _, reason in terminals)
    assert not res.truncated
    # the two runs end with different clocks, hence different keys
    keys = {res.nodes[i].key for i, _ in terminals}
    assert len(keys) == 2


def test_k_way_choice_gives_k_maximal_paths():
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars { int picked; }"
        " msgsrv initial() { picked = ?(1, 2, 3); } }"
        " main { A a():(); }")
    res = explore(checked, {}, ExploreBounds(horizon=10))
    assert len(res.terminals()) == 3
    assert len({res.nodes[i].key for i, _ in res.terminals()}) == 3


def test_replay_empty_path_is_initial_state_only(choice_delay_model):
    res = explore(choice_delay_model, {}, ExploreBounds(horizon=10))
    trace = replay(res, [])
    kinds = [ev.kind for ev in trace.events]
    assert kinds == ["rebec_created", "msg_sent", "run_ended"]
    assert trace.end_reason == "partial"


def test_replay_reaches_the_edge_target(choice_delay_model):
    res = explore(choice_delay_model, {}, ExploreBounds(horizon=10))
    for edge in res.edges:
        trace = replay(res, [edge.decision])
        bindings = normalize_env_bindings(res.checked, res.env_bindings)
        state, _ = build_initial_state(res.checked, bindings)
        # re-execute through the scheduler to recompute the final key
        from trebeca.scheduler import execute_selected, min_tt_candidates, purge_expired

        purge_expired(state, "literal")
        (msg,) = [m for m in min_tt_candidates(state)]
        execute_selected(state, msg, Resolver([idx for _, _, idx in edge.decision.choices]))
        assert state_key(state) == res.nodes[edge.dst].key


def test_seeded_run_decisions_replay_to_identical_trace(ticket_model):
    res = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=20))
    for seed in range(10):
        trace = run(ticket_model, TICKET_ENV, seed, SchedulePolicy(horizon=20))
        replayed = replay(res, trace_decisions(trace))
        assert replayed.to_jsonl() == trace.to_jsonl()


def test_simulation_contained_in_graph(ticket_model):
    res = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=20))
    for seed in range(50):
        trace = run(ticket_model, TICKET_ENV, seed, SchedulePolicy(horizon=20))
        node = follow(res, trace_decisions(trace))
        assert res.nodes[node].terminal == trace.end_reason


def test_stale_path_detected(ticket_model, choice_delay_model):
    res = explore(choice_delay_model, {}, ExploreBounds(horizon=10))
    bogus = Decision(message=(0, "nobody", "initial", (), "external", "inf"))
    with pytest.raises(StalePathError):
        replay(res, [bogus])
    with pytest.raises(StalePathError):
        follow(res, [bogus])


def test_replay_rejects_a_choice_the_body_did_not_take(choice_delay_model):
    res = explore(choice_delay_model, {}, ExploreBounds(horizon=10))
    edge = next(e for e in res.edges if e.src == res.root)
    padded = Decision(message=edge.decision.message,
                      choices=edge.decision.choices + (("bogus", 2, 1),))
    assert replay(res, [edge.decision]).end_reason == "empty-bag"
    with pytest.raises(StalePathError):
        replay(res, [padded])


def test_replay_rejects_a_path_past_the_horizon(ticket_model):
    res = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=4))
    path = trace_decisions(run(ticket_model, TICKET_ENV, 0, SchedulePolicy(horizon=12)))
    with pytest.raises(StalePathError):
        follow(res, path)
    with pytest.raises(StalePathError, match="horizon"):
        replay(res, path)


def test_replay_rejects_a_path_past_max_steps(ticket_model):
    res = explore(ticket_model, TICKET_ENV, ExploreBounds(max_steps=3))
    path = trace_decisions(run(ticket_model, TICKET_ENV, 0, SchedulePolicy(max_steps=10)))
    assert len(path) == 10
    with pytest.raises(StalePathError):
        follow(res, path)
    with pytest.raises(StalePathError, match="max-steps"):
        replay(res, path)
    assert len(replay(res, path[:3]).selected()) == 3


def test_a_path_of_max_steps_decisions_ends_max_steps_with_no_purge():
    """Replay checks the step budget before it purges, as ``run`` does and
    as the graph does at a node of depth max-steps."""
    checked = load_model(bundled_text("deadline_miss.rebeca"))
    res = explore(checked, {}, ExploreBounds(max_steps=1))
    spec = parse_monitor("NEVER purged s.work")
    clause = check_graph(res, spec).clauses[0]
    assert clause.exists_status == clause.forall_status == PASS
    trace = replay(res, clause.exists_witness)
    assert trace.end_reason == END_MAX_STEPS
    assert all(ev.kind != EV_PURGED for ev in trace.events)
    assert check_trace(trace, spec).clauses[0].status == PASS
    cut = 0
    for label, (name, env, seed, policy) in RUN_CASES.items():
        checked = load_model(bundled_text(name))
        trace = run(checked, env, seed, policy)
        if trace.end_reason != END_MAX_STEPS:
            continue
        bounds = ExploreBounds(horizon=policy.horizon, max_steps=policy.max_steps, max_states=1)
        res = explore(checked, env, bounds, deadline_check=policy.deadline_check)
        assert replay(res, trace_decisions(trace)).to_jsonl() == trace.to_jsonl(), label
        cut += 1
    assert cut == 2


def test_order_independence_of_reachable_keys(ticket_model, monkeypatch):
    base = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=15))
    rng = random.Random(5)
    ties = []
    min_tt_candidates = scheduler.min_tt_candidates

    def shuffled_candidates(state):
        candidates = min_tt_candidates(state)
        if len(candidates) > 1:
            ties.append(len(candidates))
        rng.shuffle(candidates)
        return candidates

    monkeypatch.setattr(scheduler, "min_tt_candidates", shuffled_candidates)
    shuffled = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=15))
    assert ties  # the explorer saw the shuffled order
    assert base.key_set() == shuffled.key_set()
    assert len(base.edges) == len(shuffled.edges)


def test_max_states_truncates(ticket_model):
    res = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=50, max_states=50))
    assert res.truncated
    assert any(reason == "truncated" for _, reason in res.terminals())


@pytest.mark.parametrize("bounds, message", [
    (dict(), "exploration needs a horizon, max-steps or max-states bound"),
    (dict(horizon=-1), "horizon must be non-negative, got -1"),
    (dict(max_steps=-2), "max-steps must be non-negative, got -2"),
    (dict(horizon=5, max_states=-1), "max-states must be non-negative, got -1"),
], ids=["none", "horizon", "max-steps", "max-states"])
def test_bounds_are_set_and_non_negative(ticket_model, bounds, message):
    with pytest.raises(ValueError, match=message):
        explore(ticket_model, TICKET_ENV, ExploreBounds(**bounds))


def test_max_steps_depth_bound(ticket_model):
    res = explore(ticket_model, TICKET_ENV, ExploreBounds(max_steps=3))
    assert res.truncated
    assert all(n.depth <= 3 for n in res.nodes)
    assert any(t == "max-steps" for _, t in res.terminals())


def test_error_branches_recorded_not_raised():
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars { int n; }"
        " msgsrv initial() { n = 1 / ?(0, 1); } }"
        " main { A a():(); }")
    res = explore(checked, {}, ExploreBounds(horizon=5))
    assert len(res.error_branches) == 1
    assert "division by zero" in res.error_branches[0].message
    assert res.error_branches[0].message.startswith("a.initial at ")
    assert len(res.terminals()) == 1  # the 1/1 branch still completed


def test_graph_exports(choice_delay_model, tmp_path):
    res = explore(choice_delay_model, {}, ExploreBounds(horizon=10))
    doc = res.to_json()
    assert '"nodes"' in doc and '"edges"' in doc
    dot = res.to_dot()
    assert dot.startswith("digraph") and "->" in dot


def test_a_shared_decision_is_written_with_each_edges_own_fields():
    # to_json writes each Decision object's block once; equal decisions in
    # distinct objects are written once each, to the same text.
    def decision():
        return Decision(message=(2, "a", "m", ("1", "@x#0"), "b", "inf"),
                        choices=(("A.m?0", 2, 1),))

    shared, twin = decision(), decision()
    assert shared == twin and shared is not twin
    other = Decision(message=(3, "b", "n", (), "a", "7"))
    result = ExploreResult(
        checked=None, env_bindings={}, bounds=ExploreBounds(horizon=9), deadline_check="literal",
        nodes=[Node(key=f"k{i}", depth=i) for i in range(4)],
        edges=[Edge(0, 1, shared, 2, ()), Edge(0, 2, other, 3, ()), Edge(1, 3, shared, 5, ()),
               Edge(2, 3, twin, 4, ()), Edge(2, 1, shared, 4, ())],
        root_events=(), truncated=False,
    )
    assert result.to_json() == reference_graph_json(result)


def test_state_key_distinguishes_clock_and_values(choice_delay_model):
    bindings = normalize_env_bindings(choice_delay_model, {})
    a, _ = build_initial_state(choice_delay_model, bindings)
    b, _ = build_initial_state(choice_delay_model, bindings)
    assert state_key(a) == state_key(b)
    env = b.envs["w"]
    b.envs["w"] = RebecEnv("w", env.class_name, env.now + 1, dict(env.state_vars), env.knowns)
    assert state_key(a) != state_key(b)
    b.envs["w"] = RebecEnv("w", env.class_name, env.now, {"finished": 1}, env.knowns)
    assert state_key(a) != state_key(b)


COW_SRC = (
    "reactiveclass A { knownrebecs { B peer; } statevars { int n; }"
    " msgsrv initial() { n = n + 1; delay(2); c = new B(); peer.poke(n); } }"
    " reactiveclass B { knownrebecs {} statevars { int hits; }"
    " msgsrv initial() {} msgsrv poke(int v) { hits = hits + v; } }"
    " main { A a(b):(); B b():(); }")


def _records(state):
    return {rid: (env, env.now, dict(env.state_vars), dict(env.knowns))
            for rid, env in state.envs.items()}


def test_clone_copies_only_the_receiver_it_executes():
    checked = load_model(COW_SRC)
    original, _ = build_initial_state(checked, normalize_env_bindings(checked, {}))
    key = state_key(original)  # caches every fragment, as interning does
    records, bag = _records(original), list(original.bag)

    work = original.clone()
    (msg,) = [m for m in work.bag if m.receiver == "a"]
    execute_selected(work, msg, Resolver())

    assert state_key(original) == key
    assert _records(original) == records
    assert original.bag == bag
    assert set(work.envs) == {"a", "b", "b#0"}
    assert work.envs["a"] is not original.envs["a"]
    assert work.envs["b"] is original.envs["b"]  # untouched records stay shared
    n = work.envs["a"].state_vars["n"]
    assert (work.envs["a"].now, n, type(n)) == (2, 1, int)
    assert state_key(work) != key


def test_a_step_never_writes_a_record(choice_delay_model):
    bindings = normalize_env_bindings(choice_delay_model, {})
    state, _ = build_initial_state(choice_delay_model, bindings)
    env = state.envs["w"]
    assert env.key() == "w:Waiter:0:finished=0:"  # caches the key
    (msg,) = state.bag
    execute_selected(state, msg, Resolver([1]))  # the state itself, not a clone
    assert state.envs["w"].key() == "w:Waiter:1:finished=1:"
    assert (env.now, dict(env.state_vars), env.key()) == (0, {"finished": 0},
                                                        "w:Waiter:0:finished=0:")
    with pytest.raises(TypeError):
        env.state_vars["finished"] = 4  # read-only view: no write can bypass the cache


def _count_method_runs(monkeypatch) -> Counter:
    """Count every method body the scheduler runs, by message server name."""
    runs: Counter = Counter()
    exec_method = scheduler.exec_method

    def counted(msg, state, resolver):
        runs[msg.method] += 1
        return exec_method(msg, state, resolver)

    monkeypatch.setattr(scheduler, "exec_method", counted)
    return runs


def test_a_body_with_new_is_never_memoized(monkeypatch):
    # a's record does not change, so both ticks see the same (record, message).
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars {}"
        " msgsrv initial() { self.tick(); self.tick(); } msgsrv tick() { c = new B(); } }"
        " reactiveclass B { knownrebecs {} statevars {} msgsrv initial() {} }"
        " main { A a():(); }")
    runs = _count_method_runs(monkeypatch)
    res = explore(checked, {}, ExploreBounds(horizon=5))
    ticks = [e for e in res.edges if e.decision.message[2] == "tick"]
    assert runs["tick"] == len(ticks) > 1
    assert graph_outputs(res) == graph_outputs(explore_without_memo(checked, {},
                                                                    ExploreBounds(horizon=5)))


def test_new_numbers_rebecs_across_classes_in_creation_order():
    # b and c are created in one step; d and e in whichever order b and c run.
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars {}"
        " msgsrv initial() { b = new B(); c = new C(); } }"
        " reactiveclass B { knownrebecs {} statevars {} msgsrv initial() { d = new D(); } }"
        " reactiveclass C { knownrebecs {} statevars {} msgsrv initial() { e = new E(); } }"
        " reactiveclass D { knownrebecs {} statevars {} msgsrv initial() {} }"
        " reactiveclass E { knownrebecs {} statevars {} msgsrv initial() {} }"
        " main { A a():(); }")
    res = explore(checked, {}, ExploreBounds(horizon=5))
    created = sorted(
        sorted(rid for rid in (record.split(":")[0] for record in res.nodes[nid].key.split("|"))
               if rid != "a")
        for nid, reason in res.terminals() if reason == "empty-bag")
    assert created == [["b#0", "c#1", "d#2", "e#3"], ["b#0", "c#1", "d#3", "e#2"]]
    assert len(res.terminals()) == 2


def test_a_faulting_branch_is_reported_on_every_visit_and_never_memoized(monkeypatch):
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars {}"
        " msgsrv initial() { self.go(); self.go(); } msgsrv go() { x = 1 / ?(0, 1); } }"
        " main { A a():(); }")
    runs = _count_method_runs(monkeypatch)
    res = explore(checked, {}, ExploreBounds(horizon=5))
    # go runs both branches from each of the two states that hold a go.
    assert runs["go"] == 4
    assert len(res.error_branches) == 2
    assert len({b.src for b in res.error_branches}) == 2
    for branch in res.error_branches:
        assert branch.message.startswith("a.go at ")
        assert branch.message.endswith("division by zero")
    assert graph_outputs(res) == graph_outputs(explore_without_memo(checked, {},
                                                                    ExploreBounds(horizon=5)))


def test_one_path_fires_a_memoized_transition_twice(monkeypatch):
    checked = load_model(
        "reactiveclass A { knownrebecs { B k; } statevars {}"
        " msgsrv initial() { self.go(); self.go(); } msgsrv go() { k.hit(); } }"
        " reactiveclass B { knownrebecs {} statevars { int n; }"
        " msgsrv initial() {} msgsrv hit() { n = n + 1; } }"
        " main { A a(b):(); B b():(); }")
    runs = _count_method_runs(monkeypatch)
    bags = []
    prepare_step = explorer.prepare_step

    def recording_prepare(state, *args):
        bags.append(list(state.bag))
        return prepare_step(state, *args)

    # With no step or state bound, every state the explorer interns is purged.
    monkeypatch.setattr(explorer, "prepare_step", recording_prepare)
    res = explore(checked, {}, ExploreBounds(horizon=5))
    # The second go reuses the first one's stored hit message.
    assert runs["go"] == 1
    assert any(len({id(m) for m in bag}) < len(bag) for bag in bags)
    assert graph_outputs(res) == graph_outputs(explore_without_memo(checked, {},
                                                                    ExploreBounds(horizon=5)))
    assert [t for _, t in res.terminals()] == ["empty-bag"]
    assert res.nodes[res.terminals()[0][0]].key.split("#")[0].endswith("b:B:0:n=2:")


def test_a_state_is_built_once_per_new_key(sensor_model, monkeypatch):
    """Every edge's key comes before its state: a state is cloned only for
    a message server run or for a key that is new, and the key of every
    edge and of the root passes through ``state_key`` once."""
    runs = _count_method_runs(monkeypatch)
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(explorer, "state_key", counting("keys", explorer.state_key))
    monkeypatch.setattr(SystemState, "clone", counting("clones", SystemState.clone))
    res = explore(sensor_model, dict(zip(SENSOR_NAMES, (2, 1, 1, 1, 4, 7))),
                  ExploreBounds(horizon=18, max_states=5000))
    assert len(res.edges) > 2 * len(res.nodes) > 2 * 1000
    assert calls["clones"] <= len(res.nodes) - 1 + sum(runs.values()), calls
    assert calls["keys"] == len(res.edges) + 1


def test_edges_share_their_steps_events():
    # A node keeps its purges, so an edge holds only its step's own events,
    # and every edge of one stored transition holds the memo's one tuple.
    purging_sources = 0
    for seed in range(120):
        model, checked = checked_model(seed)
        for mode in (CHECK_LITERAL, CHECK_EFFECTIVE):
            res = explore(checked, env_for(model), ExploreBounds(horizon=6, max_states=300),
                          deadline_check=mode)
            held: dict[int, set[int]] = {}
            for e in res.edges:
                assert e.events[0].kind == EV_SELECTED, f"seed {seed} {mode}"
                assert all(ev.kind != EV_PURGED for ev in e.events), f"seed {seed} {mode}"
                held.setdefault(id(e.decision), set()).add(id(e.events))
                purging_sources += bool(res.nodes[e.src].purge_events)
            assert all(len(ids) == 1 for ids in held.values()), f"seed {seed} {mode}"
    assert purging_sources > 0


@pytest.mark.parametrize("label", sorted(RUN_CASES))
def test_a_message_event_refers_to_the_message_that_was_sent(label):
    """A message's events share the one Message object: every selected or
    purged message is one that a msg_sent event carries, and leaves the bag
    once. The decision path reads the selected messages' keys, and replaying
    it gives equal events."""
    name, env, seed, policy = RUN_CASES[label]
    checked = load_model(bundled_text(name))
    trace = run(checked, env, seed, policy)
    sent = {id(ev.msg) for ev in trace.events if ev.kind == EV_SENT}
    served = [id(ev.msg) for ev in trace.events if ev.kind in (EV_SELECTED, EV_PURGED)]
    assert served and set(served) <= sent and len(served) == len(set(served))
    assert all((ev.msg is None) == (ev.kind not in (EV_SENT, EV_SELECTED, EV_PURGED))
               for ev in trace.events)
    selected = trace.selected()
    decisions = trace_decisions(trace)
    assert [d.message for d in decisions] == [ev.msg.key for ev in selected]
    assert [d.message for d in decisions] == [
        (ev.tt, ev.rebec, ev.method, ev.args, ev.sender, ev.dl) for ev in selected]
    assert [d.choices for d in decisions] == [ev.choices for ev in selected]
    bounds = ExploreBounds(horizon=policy.horizon, max_steps=policy.max_steps, max_states=1)
    replayed = replay(explore(checked, env, bounds, deadline_check=policy.deadline_check),
                      decisions)
    assert replayed.events == trace.events
