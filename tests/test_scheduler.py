import json
import random
from unittest import mock

import pytest

from conftest import SENSOR_ENV, TICKET_ENV
from trebeca import explorer, scheduler
from trebeca.explorer import ExploreBounds, explore
from trebeca.model import EV_DELAY, EV_ENDED, EV_PURGED, EV_SELECTED, NEVER, Message, SystemState
from trebeca.parser import load_model
from trebeca.scheduler import (
    CHECK_EFFECTIVE,
    CHECK_LITERAL,
    SchedulePolicy,
    build_initial_state,
    min_tt_candidates,
    normalize_env_bindings,
    run,
)


def test_policy_requires_a_bound(ticket_model):
    with pytest.raises(ValueError):
        run(ticket_model, TICKET_ENV, 0, SchedulePolicy())


@pytest.mark.parametrize("bounds, message", [
    (dict(horizon=-3), "horizon must be non-negative, got -3"),
    (dict(horizon=5, max_steps=-1), "max-steps must be non-negative, got -1"),
], ids=["horizon", "max-steps"])
def test_policy_rejects_a_negative_bound(ticket_model, bounds, message):
    with pytest.raises(ValueError, match=message):
        run(ticket_model, TICKET_ENV, 0, SchedulePolicy(**bounds))


@pytest.mark.parametrize("start", [
    lambda checked: run(checked, TICKET_ENV, 0,
                        SchedulePolicy(deadline_check="eventual", horizon=5)),
    lambda checked: explore(checked, TICKET_ENV, ExploreBounds(horizon=5),
                            deadline_check="eventual"),
], ids=["run", "explore"])
def test_an_unknown_deadline_mode_is_rejected_before_any_step(ticket_model, monkeypatch,
                                                              start):
    def no_step(*args):
        raise AssertionError("a step started")
    monkeypatch.setattr(scheduler, "prepare_step", no_step)
    monkeypatch.setattr(explorer, "prepare_step", no_step)
    with pytest.raises(ValueError, match="unknown deadline check mode 'eventual'"):
        start(ticket_model)


def test_missing_env_binding_reported(ticket_model):
    partial = dict(TICKET_ENV)
    partial.pop("serviceTime1")
    with pytest.raises(ValueError, match="serviceTime1"):
        run(ticket_model, partial, 0, SchedulePolicy(horizon=5))


def test_unknown_env_binding_reported(ticket_model):
    bindings = dict(TICKET_ENV, bogus=1)
    with pytest.raises(ValueError, match="bogus"):
        run(ticket_model, bindings, 0, SchedulePolicy(horizon=5))


def test_smallest_possible_run():
    from trebeca.parser import load_model

    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars {} msgsrv initial() {} }"
        " main { A a():(); }")
    trace = run(checked, {}, 0, SchedulePolicy(horizon=10))
    assert [ev.kind for ev in trace.events] == [
        "rebec_created", "msg_sent", "msg_selected", "run_ended"]
    assert trace.end_reason == "empty-bag"


def test_deadline_miss_model_expires(deadline_miss_model):
    trace = run(deadline_miss_model, {}, 0, SchedulePolicy(horizon=10))
    assert trace.end_reason == "all-expired"
    purged = [ev for ev in trace.events if ev.kind == EV_PURGED]
    assert len(purged) == 1 and purged[0].method == "work"
    assert purged[0].time == 3 and purged[0].dl == "1"


def test_selected_time_tags_non_decreasing(ticket_model, sensor_model):
    for checked, env in ((ticket_model, TICKET_ENV), (sensor_model, SENSOR_ENV)):
        for seed in range(5):
            trace = run(checked, env, seed, SchedulePolicy(horizon=25))
            tts = [ev.tt for ev in trace.events if ev.kind == EV_SELECTED]
            assert tts == sorted(tts)


def test_clocks_frozen_between_executions(ticket_model):
    trace = run(ticket_model, TICKET_ENV, 3, SchedulePolicy(horizon=25))
    clock = {}
    for ev in trace.events:
        if ev.kind == EV_SELECTED:
            expected = max(ev.tt, clock.get(ev.rebec, 0))
            assert expected >= clock.get(ev.rebec, 0)
            clock[ev.rebec] = expected
        elif ev.kind == EV_DELAY:
            assert ev.time >= clock[ev.rebec]
            clock[ev.rebec] = ev.time


def test_run_is_deterministic(ticket_model):
    a = run(ticket_model, TICKET_ENV, 11, SchedulePolicy(horizon=30)).to_jsonl()
    b = run(ticket_model, TICKET_ENV, 11, SchedulePolicy(horizon=30)).to_jsonl()
    assert a == b
    c = run(ticket_model, TICKET_ENV, 12, SchedulePolicy(horizon=30)).to_jsonl()
    assert c != a  # different seed takes different choices eventually


def test_max_steps_bound(ticket_model):
    trace = run(ticket_model, TICKET_ENV, 0, SchedulePolicy(max_steps=4))
    assert trace.end_reason == "max-steps"
    assert len([ev for ev in trace.events if ev.kind == EV_SELECTED]) == 4


def test_horizon_end_event_carries_the_bound(ticket_model):
    trace = run(ticket_model, TICKET_ENV, 0, SchedulePolicy(horizon=19))
    end = trace.events[-1]
    assert end.kind == EV_ENDED and end.reason == "horizon" and end.time == 19


def test_jsonl_schema_stable(ticket_model):
    trace = run(ticket_model, TICKET_ENV, 0, SchedulePolicy(horizon=10))
    lines = trace.to_jsonl().strip().split("\n")
    for line in lines:
        record = json.loads(line)
        keys = list(record)
        assert keys[:8] == ["step", "kind", "time", "rebec", "method", "sender", "tt", "dl"]
    last = json.loads(lines[-1])
    assert last["kind"] == "run_ended" and "reason" in last
    infinite = [json.loads(l) for l in lines if json.loads(l)["dl"] == "inf"]
    assert infinite, "infinite deadlines serialize as the string 'inf'"


def test_main_state_initializers_take_literals_and_env_values():
    checked = load_model(
        "env int k;\nreactiveclass A { knownrebecs {} statevars { int x; boolean b; int y; }"
        " msgsrv initial() {} }\nmain { A a():(-3, true, k); }")
    state, _ = build_initial_state(checked, normalize_env_bindings(checked, {"k": 7}))
    values = state.envs["a"].state_vars
    assert dict(values) == {"x": -3, "b": True, "y": 7}
    assert [type(v) for v in values.values()] == [int, bool, int]


def scan_clocks(checked, mode, horizon):
    """Run ``checked`` and return the trace and, for every ``eligible`` call,
    the clock of the message's receiver: a purge that skips the bag makes
    no call."""
    clocks = []
    eligible = scheduler.eligible

    def counted(msg, state, mode=CHECK_LITERAL):
        clocks.append(state.envs[msg.receiver].now)
        return eligible(msg, state, mode)

    with mock.patch.object(scheduler, "eligible", counted):
        trace = run(checked, {}, 0, SchedulePolicy(deadline_check=mode, horizon=horizon))
    return trace, clocks


def test_a_clock_past_another_receivers_deadline_does_not_scan():
    # b's clock is 40 from its first step, past a.m's deadline of 30, but
    # a's own clock never passes it; c ticks at tags 1 to 19 meanwhile.
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars {}"
        " msgsrv initial() { self.m() after(20) deadline(30); } msgsrv m() {} }"
        " reactiveclass B { knownrebecs {} statevars {} msgsrv initial() { delay(40); } }"
        " reactiveclass C { knownrebecs {} statevars { int k; }"
        " msgsrv initial() { self.tick() after(1); }"
        " msgsrv tick() { k = k + 1; if (k < 19) { self.tick() after(1); } } }"
        " main { A a():(); B b():(); C c():(); }")
    for mode in (CHECK_LITERAL, CHECK_EFFECTIVE):
        trace, clocks = scan_clocks(checked, mode, 50)
        assert clocks == []
        ticks = [ev.tt for ev in trace.events if ev.kind == EV_SELECTED and ev.method == "tick"]
        assert ticks == list(range(1, 20))
        assert [(ev.time, ev.method) for ev in trace.events if ev.kind == EV_SELECTED][-1] == (
            20, "m")
        assert trace.end_reason == "empty-bag"


def test_a_tag_past_its_deadline_scans_only_when_its_mode_purges_it():
    # a.m has tt=10 and dl=5. Literal mode keeps it until a's clock passes 5,
    # effective mode purges it at the next step.
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars { int k; }"
        " msgsrv initial() { self.m() after(10) deadline(5); self.tick() after(1); }"
        " msgsrv m() {} msgsrv tick() { k = k + 1; if (k < 8) { self.tick() after(1); } } }"
        " main { A a():(); }")
    for mode, clock in ((CHECK_LITERAL, 6), (CHECK_EFFECTIVE, 0)):
        trace, clocks = scan_clocks(checked, mode, 20)
        assert clocks == [clock]
        purged = [(ev.time, ev.method) for ev in trace.events if ev.kind == EV_PURGED]
        assert purged == [(clock, "m")]


def plain_candidates(bag):
    """The definition: the first message of each run of equal messages
    among those with the least time tag."""
    lowest = min(msg.tt for msg in bag)
    out = []
    for msg in bag:
        if msg.tt == lowest and (not out or msg.sort_key != out[-1].sort_key):
            out.append(msg)
    return out


@pytest.mark.parametrize("shape", ["runs", "distinct", "single"])
def test_candidates_are_the_first_of_each_run_of_the_least_tag(shape):
    rng = random.Random(shape)
    for _ in range(300):
        state = SystemState(None, {})
        lowest = rng.randrange(4)
        prefix = {"runs": rng.randrange(1, 60), "distinct": rng.randrange(1, 20),
                  "single": 1}[shape]
        later = [Message(receiver="r", method="m", args=(rng.randrange(3),), sender="s",
                         tt=lowest + rng.randrange(1, 4), dl=NEVER)
                 for _ in range(rng.randrange(30))]
        if shape == "runs":
            # Few distinct values, so most of the prefix is copies.
            first = [Message(receiver=rng.choice("ab"), method="m",
                             args=(rng.randrange(3),), sender="s", tt=lowest,
                             dl=rng.choice((NEVER, 9)))
                     for _ in range(prefix)]
        else:
            first = [Message(receiver="r", method="m", args=(v,), sender="s", tt=lowest,
                             dl=NEVER)
                     for v in rng.sample(range(100), prefix)]
        for msg in rng.sample(first + later, len(first) + len(later)):
            state.add_message(msg)
        candidates = min_tt_candidates(state)
        expected = plain_candidates(state.bag)
        assert [id(m) for m in candidates] == [id(m) for m in expected]
        if shape == "single":
            assert candidates == [first[0]]
