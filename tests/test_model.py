from types import MappingProxyType

import pytest

from conftest import bundled_text
from trebeca import explorer, scheduler
from trebeca.explorer import ExploreBounds, explore
from trebeca.interp import ExecError, Resolver, make_rebec_env
from trebeca.model import MAX_TICKS, NEVER, Message, RebecEnv, message_sort_key, pretty_print
from trebeca.parser import load_model, parse_model
from trebeca.scheduler import (
    CHECK_EFFECTIVE,
    CHECK_LITERAL,
    SchedulePolicy,
    build_initial_state,
    eligible,
    execute_selected,
    min_tt_candidates,
    normalize_env_bindings,
    prepare_step,
    purge_expired,
    run,
)

# ``initial`` moves the clock to MAX_TICKS; ``go`` then tries to pass it.
OVERFLOW_SRC = """reactiveclass A {{ knownrebecs {{}} statevars {{}}
    msgsrv initial() {{ delay({max_ticks}); self.go(); }}
    msgsrv go() {{ {stmt} }}
}}
main {{ A a():(); }}
"""


def overflow_model(stmt):
    return load_model(OVERFLOW_SRC.format(max_ticks=MAX_TICKS, stmt=stmt))


def run_fault(stmt):
    with pytest.raises(ExecError) as exc:
        run(overflow_model(stmt), {}, 0, SchedulePolicy(max_steps=2))
    return exc.value


@pytest.mark.parametrize("stmt", ["delay(1);", "self.go() after(1);", "self.go() deadline(1);"],
                         ids=["delay", "after", "deadline"])
def test_time_past_max_ticks_is_a_positioned_fault(stmt):
    err = run_fault(stmt)
    assert (err.rebec, err.method, err.pos) == ("a", "go", (3, 19))
    assert str(err) == "a.go at 3:19: logical time overflow"


def test_time_may_reach_max_ticks_but_never_move_backwards():
    trace = run(overflow_model("self.go() after(0);"), {}, 0, SchedulePolicy(max_steps=3))
    assert trace.end_reason == "max-steps"
    assert trace.events[-1].time == MAX_TICKS
    for stmt in ("delay(0 - 1);", "self.go() after(0 - 1);"):
        assert "negative" in str(run_fault(stmt))


def test_time_overflow_is_an_explore_error_branch():
    res = explore(overflow_model("delay(5);"), {}, ExploreBounds(max_steps=10))
    assert [b.message for b in res.error_branches] == ["a.go at 3:19: logical time overflow"]
    assert len(res.nodes) == 2 and len(res.edges) == 1


# ``a.initial`` runs ``{stmt}``, which starts at line 2, column 24.
FAULT_SRC = """reactiveclass A {{ knownrebecs {{ B peer; }} statevars {{ int n; }}
    msgsrv initial() {{ {stmt} }}
}}
reactiveclass B {{ knownrebecs {{}} statevars {{}} msgsrv initial() {{}} msgsrv poke() {{}} }}
main {{ A a(b):(); B b():(); }}
"""


def initial_fault(stmt, resolver=None):
    checked = load_model(FAULT_SRC.format(stmt=stmt))
    state, _ = build_initial_state(checked, {})
    (msg,) = [m for m in state.bag if m.receiver == "a"]
    with pytest.raises(ExecError) as exc:
        execute_selected(state, msg, resolver or Resolver())
    return str(exc.value)


@pytest.mark.parametrize("stmt, message", [
    ("n = 7 % n;", "a.initial at 2:30: division by zero"),
    ("delay(n - 2);", "a.initial at 2:24: negative delay amount -2"),
    ("peer.poke() after(n - 1);", "a.initial at 2:24: negative after offset -1"),
    ("peer.poke() deadline(n);", "a.initial at 2:24: deadline offset must be positive, got 0"),
], ids=["modulo", "delay", "after", "deadline"])
def test_runtime_faults_have_exact_positioned_messages(stmt, message):
    assert initial_fault(stmt) == message


@pytest.mark.parametrize("expr, value", [
    ("9007199254740993 / 1", 9007199254740993),
    ("9007199254740993 % 2", 1),
    (f"{7 * 10**400 + 5} / 7", 10**400),
    (f"{7 * 10**400 + 5} / (0 - 7)", -10**400),
    (f"{7 * 10**400 + 5} % 7", 5),
    ("-7 / 2", -3),
    ("-7 % 2", -1),
    ("7 % -2", 1),
    ("7 / -2", -3),
    ("-8 / 2", -4),
    ("-1 / 5", 0),
], ids=["above-2^53", "above-2^53-mod", "huge", "huge-negative", "huge-mod", "neg-div",
        "neg-mod", "mod-neg", "div-neg", "neg-exact", "neg-small"])
def test_integer_division_is_exact_and_truncates_toward_zero(expr, value):
    checked = load_model(FAULT_SRC.format(stmt=f"n = {expr};"))
    state, _ = build_initial_state(checked, {})
    (msg,) = [m for m in state.bag if m.receiver == "a"]
    execute_selected(state, msg, Resolver())
    assert state.envs["a"].state_vars["n"] == value


def test_decision_out_of_range_blames_the_innermost_statement():
    stmt = "if (?(1, 2) == 1) { n = ?(3, 4); }"
    assert initial_fault(stmt, Resolver([0, 5])) == (
        "a.initial at 2:44: decision index 5 out of range at site A.initial?1")
    assert initial_fault(stmt, Resolver([2])) == (
        "a.initial at 2:24: decision index 2 out of range at site A.initial?0")


def test_a_body_that_faults_leaves_its_receivers_record_as_it_found_it():
    checked = load_model("env int d; reactiveclass A { knownrebecs {} statevars { int n; }"
                         " msgsrv initial() { delay(2); n = 5; x = 1 / d; } }"
                         " main { A a():(); }")
    state, _ = build_initial_state(checked, normalize_env_bindings(checked, {"d": 0}))
    record = state.envs["a"]
    (msg,) = state.bag
    with pytest.raises(ExecError, match="a.initial at 1:108: division by zero"):
        execute_selected(state, msg, Resolver())
    assert state.envs["a"] is record
    assert (record.now, dict(record.state_vars), record.key()) == (0, {"n": 0}, "a:A:0:n=0:")


def test_int_one_and_boolean_true_stay_apart():
    one, true = (RebecEnv("r", "C", 0, {"v": v}, MappingProxyType({})) for v in (1, True))
    assert (one.key(), true.key()) == ("r:C:0:v=1:", "r:C:0:v=true:")
    sent = [Message(receiver="r", method="m", args=(v,), sender="r", tt=0, dl=NEVER)
            for v in (1, True)]
    assert sent[0] != sent[1] and sent[0].text != sent[1].text


def test_a_parameter_shadows_an_env_variable():
    checked = load_model("env int k; reactiveclass A { knownrebecs {} statevars { int n; }"
                         " msgsrv initial() { self.m(5); n = k; } msgsrv m(int k) { n = k; } }"
                         " main { A a():(); }")
    state, _ = build_initial_state(checked, normalize_env_bindings(checked, {"k": 9}))
    for n in (9, 5):
        _, _, (msg,) = prepare_step(state, CHECK_LITERAL, None)
        execute_selected(state, msg, Resolver())
        assert state.envs["a"].state_vars["n"] == n


def test_env_bindings_keep_bool_and_int_apart():
    checked = load_model("env int k; env boolean on;"
                         " reactiveclass A { knownrebecs {} statevars {} msgsrv initial() {} }"
                         " main { A a():(); }")
    assert normalize_env_bindings(checked, {"k": 1, "on": True}) == {"k": 1, "on": True}
    with pytest.raises(ValueError, match="'k' must be an integer"):
        normalize_env_bindings(checked, {"k": True, "on": True})
    with pytest.raises(ValueError, match="'on' must be boolean"):
        normalize_env_bindings(checked, {"k": 1, "on": 1})


def deadline_state(now, *messages):
    checked = load_model("reactiveclass A { knownrebecs {} statevars {} msgsrv initial() {}"
                         " msgsrv m(int v) {} msgsrv slow() { delay(3); } } main { A a():(); }")
    state, _ = build_initial_state(checked, normalize_env_bindings(checked, {}))
    state.envs["a"] = make_rebec_env("a", checked.classes["A"], now, {})
    state.bag.clear()
    for m in messages:
        state.add_message(m)
    return state


def msg(tt, dl):
    return Message(receiver="a", method="m", args=(0,), sender="a", tt=tt, dl=dl)


def test_deadline_equal_to_clock_is_eligible_in_both_modes():
    due = msg(tt=5, dl=5)
    state = deadline_state(5, due)
    assert eligible(due, state, CHECK_LITERAL) and eligible(due, state, CHECK_EFFECTIVE)
    for mode in (CHECK_LITERAL, CHECK_EFFECTIVE):
        assert purge_expired(state, mode) == [] and state.bag == [due]


def test_deadline_one_tick_past_is_purged():
    late, live = msg(tt=5, dl=5), msg(tt=5, dl=NEVER)
    for mode in (CHECK_LITERAL, CHECK_EFFECTIVE):
        state = deadline_state(6, late, live)
        (event,) = purge_expired(state, mode)
        assert (event.kind, event.time, event.dl) == ("msg_purged", 6, "5")
        assert state.bag == [live]


def test_a_tag_past_its_deadline_is_purged_in_effective_mode_at_the_next_step():
    checked = load_model("reactiveclass A { knownrebecs {} statevars {}"
                         " msgsrv initial() { self.m() after(3) deadline(1); } msgsrv m() {} }"
                         " main { A a():(); }")
    for mode, purged in ((CHECK_LITERAL, 0), (CHECK_EFFECTIVE, 1)):
        state, _ = build_initial_state(checked, {})
        _, _, (initial,) = prepare_step(state, mode, None)
        execute_selected(state, initial, Resolver())
        (late,) = state.bag
        assert (late.tt, late.dl, state.envs["a"].now) == (3, 1, 0)  # no clock is past 1
        events, end, candidates = prepare_step(state, mode, None)
        assert [(ev.kind, ev.time, ev.tt, ev.dl) for ev in events] == [
            ("msg_purged", 0, 3, "1")] * purged
        assert (end, candidates) == ((scheduler.END_EXPIRED, []) if purged else (None, [late]))


def test_a_clone_purges_an_inherited_deadline_its_receiver_passes():
    for mode in (CHECK_LITERAL, CHECK_EFFECTIVE):
        state = deadline_state(0, msg(tt=0, dl=2), Message(receiver="a", method="slow", args=(),
                                                           sender="a", tt=0, dl=NEVER))
        assert purge_expired(state, mode) == []
        child = state.clone()
        (slow,) = [m for m in child.bag if m.method == "slow"]
        execute_selected(child, slow, Resolver())
        assert child.envs["a"].now == 3
        (event,) = purge_expired(child, mode)
        assert (event.kind, event.time, event.method, event.dl) == ("msg_purged", 3, "m", "2")
        assert child.bag == []
        assert purge_expired(state, mode) == [] and len(state.bag) == 2


def test_never_sorts_after_an_equal_finite_deadline():
    never, finite = msg(tt=3, dl=NEVER), msg(tt=3, dl=MAX_TICKS)
    assert min_tt_candidates(deadline_state(0, never, finite)) == [finite, never]
    assert never.key[-1] == "inf" and finite.key[-1] == str(MAX_TICKS)


def test_a_bag_filled_in_reverse_gives_the_same_candidates():
    messages = [
        Message(receiver="a", method="m", args=(v,), sender=sender, tt=tt, dl=dl)
        for tt, v, sender, dl in [(4, 0, "a", NEVER), (2, 1, "b", 9), (2, 1, "b", 9),
                                  (2, 0, "b", NEVER), (2, 0, "a", NEVER), (3, 5, "a", 7),
                                  (2, 1, "a", 3)]
    ]
    forward = deadline_state(0, *messages)
    backward = deadline_state(0, *reversed(messages))
    candidates = min_tt_candidates(forward)
    assert min_tt_candidates(backward) == candidates
    assert [m.sort_key for m in candidates] == sorted({m.sort_key for m in messages
                                                       if m.tt == 2})
    assert forward.bag == backward.bag == sorted(messages, key=message_sort_key)
    # messages[1] and messages[2] are equal copies: each removal takes the
    # very object it is given, wherever it sits in their run.
    first, second = messages[1], messages[2]
    for state in (forward, backward):
        state.remove_message(second)
        (kept,) = [m for m in state.bag if m == first]
        assert kept is first
        with pytest.raises(ValueError, match="not in the bag"):
            state.remove_message(second)
        state.remove_message(first)
        assert state.bag == sorted(set(messages) - {first}, key=message_sort_key)


def test_every_reached_bag_is_in_canonical_order(monkeypatch):
    """Every state the golden explorations intern and expand, and every
    state the golden runs step from, holds its bag in ``sort_key`` order."""
    from test_golden import BUNDLED_CASES, RUN_CASES

    checked = []

    def watch(fn):
        def watched(state, *args):
            checked.append(state.bag == sorted(state.bag, key=message_sort_key))
            return fn(state, *args)
        return watched

    monkeypatch.setattr(explorer, "prepare_step", watch(explorer.prepare_step))
    monkeypatch.setattr(scheduler, "prepare_step", watch(scheduler.prepare_step))
    for name, env, bounds, check in BUNDLED_CASES.values():
        explore(load_model(bundled_text(name)), env, bounds, deadline_check=check)
    explored = len(checked)
    for name, env, seed, policy in RUN_CASES.values():
        run(load_model(bundled_text(name)), env, seed, policy)
    assert explored > 1000 and len(checked) > explored + 300
    assert all(checked)


@pytest.mark.parametrize("name", [
    "ticket_service.rebeca", "sensor_network.rebeca", "ping_pong.rebeca",
    "choice_delay.rebeca", "deadline_miss.rebeca",
])
def test_round_trip_bundled(name):
    model = parse_model(bundled_text(name))
    assert parse_model(pretty_print(model)) == model


def test_round_trip_is_a_fixpoint():
    model = parse_model(bundled_text("ticket_service.rebeca"))
    once = pretty_print(model)
    assert pretty_print(parse_model(once)) == once
