import pytest

from conftest import bundled_text
from trebeca.explorer import ExploreBounds, explore
from trebeca.interp import ExecError
from trebeca.model import MAX_TICKS, NEVER, IntV, Message, pretty_print
from trebeca.parser import load_model, parse_model
from trebeca.scheduler import (
    CHECK_EFFECTIVE,
    CHECK_LITERAL,
    SchedulePolicy,
    build_initial_state,
    eligible,
    min_tt_candidates,
    normalize_env_bindings,
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


def deadline_state(now, *messages):
    checked = load_model("reactiveclass A { knownrebecs {} statevars {}"
                         " msgsrv initial() {} msgsrv m(int v) {} } main { A a():(); }")
    state, _ = build_initial_state(checked, normalize_env_bindings(checked, {}))
    state.envs["a"].now = now
    state.bag = list(messages)
    return state


def msg(tt, dl):
    return Message(receiver="a", method="m", args=(IntV(0),), sender="a", tt=tt, dl=dl)


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


def test_never_sorts_after_an_equal_finite_deadline():
    never, finite = msg(tt=3, dl=NEVER), msg(tt=3, dl=MAX_TICKS)
    assert min_tt_candidates(deadline_state(0, never, finite)) == [finite, never]
    assert never.key[-1] == "inf" and finite.key[-1] == str(MAX_TICKS)


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
