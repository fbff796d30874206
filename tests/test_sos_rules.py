"""One unit test per method-execution rule and per scheduler side condition,
each asserting the exact post-state the rule prescribes."""
from types import SimpleNamespace

import pytest

from trebeca.interp import ExecError, Frame, Resolver, compile_method, exec_method
from trebeca.model import (
    Assign,
    BinaryOp,
    ChoiceExpr,
    DelayStmt,
    EV_CREATED,
    EXTERNAL_ID,
    IfStmt,
    IntLit,
    Message,
    MethodDef,
    NEVER,
    NewStmt,
    NowExpr,
    RebecEnv,
    RebecRef,
    SendStmt,
    SenderExpr,
    VarRef,
)
from trebeca.parser import MethodInfo, load_model
from trebeca.scheduler import (
    CHECK_EFFECTIVE,
    CHECK_LITERAL,
    build_initial_state,
    eligible,
    execute_selected,
    min_tt_candidates,
    normalize_env_bindings,
    prepare_step,
)

HARNESS_SRC = """
reactiveclass Alpha {
    knownrebecs {
        Beta peer;
    }
    statevars {
        int x;
        time t;
    }
    msgsrv initial() {
    }
    msgsrv probe(int v) {
        x = v;
    }
}

reactiveclass Beta {
    knownrebecs {
    }
    statevars {
        int y;
    }
    msgsrv initial() {
    }
    msgsrv ping(int v) {
    }
}

reactiveclass Spawned {
    knownrebecs {
    }
    statevars {
    }
    msgsrv initial(int v) {
    }
}

main {
    Alpha alpha(beta):();
    Beta beta():();
}
"""


def fresh_state():
    checked = load_model(HARNESS_SRC)
    state, _ = build_initial_state(checked, normalize_env_bindings(checked, {}))
    state.bag.clear()  # rule tests drive the bag by hand
    return state


def no_choice():
    return Resolver()


def body_checker(checked):
    """What the compiling walk needs of a checker, over ``checked``: a body
    built by hand that does not type-check fails the test."""
    def error(pos, message):
        raise AssertionError(f"{pos}: {message}")
    return SimpleNamespace(classes=checked.classes, env_types=checked.env_types,
                           new_targets={}, error=error)


def run_stmt(stmt, state, resolver, events=None, rebec_id="alpha"):
    """Compile ``stmt`` as the whole body of a method of ``rebec_id``'s
    class, with the compiler every checked method goes through, run it on
    that rebec's record and put the record it builds into ``state``, as
    ``exec_method`` does; returns the frame's locals by name."""
    checked, env = state.checked, state.envs[rebec_id]
    code = compile_method(MethodInfo(MethodDef("rule", [], [stmt]), []),
                          checked.classes[env.class_name], body_checker(checked))
    fr = Frame(env, env.now, state, resolver, EXTERNAL_ID, list(code.padding))
    for compiled in code.body:
        compiled(fr)
    state.envs[rebec_id] = RebecEnv(rebec_id, env.class_name, fr.now, fr.vars, env.knowns)
    if events is not None:
        events.extend(fr.events)
    return dict(zip(code.local_names, fr.locals))


def eval_expr(expr, state, resolver):
    """The value of ``expr``, compiled as the right side of an assignment."""
    return run_stmt(Assign("result", expr), state, resolver)["result"]


def set_clock(state, rebec_id, now):
    """Replace ``rebec_id``'s record by one whose clock reads ``now``."""
    env = state.envs[rebec_id]
    state.envs[rebec_id] = RebecEnv(rebec_id, env.class_name, now, dict(env.state_vars),
                                    env.knowns)


def recompile(state, class_name, method_name):
    """Compile a method again after a test edited its body."""
    info = state.checked.classes[class_name]
    method = info.methods[method_name]
    method.code = compile_method(method, info, body_checker(state.checked))


def is_int(value, expected):
    return type(value) is int and value == expected


# ---------------------------------------------------------------------------
# eval


def test_eval_arithmetic():
    state = fresh_state()
    value = eval_expr(BinaryOp("+", IntLit(2), IntLit(3)), state, no_choice())
    assert is_int(value, 5)


def test_eval_now_reads_local_clock():
    state = fresh_state()
    set_clock(state, "alpha", 7)
    assert is_int(eval_expr(NowExpr(), state, no_choice()), 7)


def test_eval_choice_consults_resolver():
    state = fresh_state()
    expr = ChoiceExpr([IntLit(3), IntLit(4)])
    assert is_int(eval_expr(expr, state, Resolver([1])), 4)
    assert is_int(eval_expr(expr, state, Resolver([0])), 3)


# ---------------------------------------------------------------------------
# Method-execution rules


def test_rule_assign():
    state = fresh_state()
    stmt = Assign("x", BinaryOp("+", IntLit(2), IntLit(3)))
    run_stmt(stmt, state, no_choice())
    env = state.envs["alpha"]
    assert is_int(env.state_vars["x"], 5)
    assert state.bag == [] and env.now == 0


def test_rule_delay():
    state = fresh_state()
    set_clock(state, "alpha", 5)
    run_stmt(DelayStmt(IntLit(3)), state, no_choice())
    assert state.envs["alpha"].now == 8
    assert state.bag == []


def test_rule_delay_rejects_negative():
    state = fresh_state()
    with pytest.raises(ExecError):
        run_stmt(DelayStmt(BinaryOp("-", IntLit(0), IntLit(1))), state, no_choice())


def test_rule_msg_with_after_and_deadline():
    state = fresh_state()
    set_clock(state, "alpha", 10)
    stmt = SendStmt(target="peer", method="ping", args=[IntLit(1)],
                    after=IntLit(4), deadline=IntLit(7))
    run_stmt(stmt, state, no_choice())
    assert state.bag == [Message(receiver="beta", method="ping", args=(1,),
                                 sender="alpha", tt=14, dl=17)]
    assert type(state.bag[0].args[0]) is int
    assert state.envs["alpha"].now == 10  # sending does not advance the clock


def test_rule_msg_defaults_zero_after_infinite_deadline():
    state = fresh_state()
    set_clock(state, "alpha", 10)
    stmt = SendStmt(target="peer", method="ping", args=[IntLit(0)])
    run_stmt(stmt, state, no_choice())
    (msg,) = state.bag
    assert msg.tt == 10
    assert msg.dl == NEVER


def test_rule_msg_rejects_nonpositive_deadline():
    state = fresh_state()
    stmt = SendStmt(target="peer", method="ping", args=[IntLit(0)], deadline=IntLit(0))
    with pytest.raises(ExecError):
        run_stmt(stmt, state, no_choice())


def test_rule_create():
    state = fresh_state()
    set_clock(state, "alpha", 6)
    events = []
    locals_ = run_stmt(NewStmt("fresh", "Spawned", [IntLit(4)]), state, no_choice(), events)
    new_id = "spawned#0"
    assert locals_["fresh"] == RebecRef(new_id)
    created = state.envs[new_id]
    assert created.now == 6 and created.rebec_id == new_id
    assert state.bag == [Message(receiver=new_id, method="initial", args=(4,),
                                 sender="alpha", tt=6, dl=NEVER)]
    assert type(state.bag[0].args[0]) is int
    assert [ev.rebec for ev in events if ev.kind == EV_CREATED] == [new_id]


def test_rule_cond1_true_branch():
    state = fresh_state()
    stmt = IfStmt(BinaryOp("==", IntLit(1), IntLit(1)),
                  [Assign("x", IntLit(1))], [Assign("x", IntLit(2))])
    run_stmt(stmt, state, no_choice())
    assert is_int(state.envs["alpha"].state_vars["x"], 1)


def test_rule_cond2_false_branch():
    state = fresh_state()
    stmt = IfStmt(BinaryOp("==", IntLit(1), IntLit(2)),
                  [Assign("x", IntLit(1))], [Assign("x", IntLit(2))])
    run_stmt(stmt, state, no_choice())
    assert is_int(state.envs["alpha"].state_vars["x"], 2)


def test_rule_seq_threads_effects_left_to_right():
    state = fresh_state()
    set_clock(state, "alpha", 5)
    events = []
    # delay(2); x = now();  entered at now=5 leaves x = 7
    run_stmt(DelayStmt(IntLit(2)), state, no_choice(), events)
    run_stmt(Assign("t", NowExpr()), state, no_choice(), events)
    env = state.envs["alpha"]
    assert is_int(env.state_vars["t"], 7)
    assert env.now == 7


# ---------------------------------------------------------------------------
# Scheduler side conditions


def _msg(receiver, method, tt, dl=None, args=(), sender="alpha"):
    return Message(receiver=receiver, method=method, args=tuple(args),
                   sender=sender, tt=tt, dl=NEVER if dl is None else dl)


def system_step(state, horizon):
    """One system transition of a state with at most one candidate:
    ``(events in trace order, end reason or None)``."""
    events, end, candidates = prepare_step(state, CHECK_LITERAL, horizon)
    if end is None:
        (msg,) = candidates
        events += execute_selected(state, msg, no_choice())
    return events, end


def test_scheduler_now_becomes_max_of_tt_and_clock():
    state = fresh_state()
    set_clock(state, "alpha", 2)
    exec_method(_msg("alpha", "initial", tt=5), state, no_choice())
    assert state.envs["alpha"].now == 5


def test_scheduler_now_keeps_larger_clock():
    state = fresh_state()
    set_clock(state, "alpha", 9)
    exec_method(_msg("alpha", "initial", tt=5), state, no_choice())
    assert state.envs["alpha"].now == 9


def test_exec_method_touches_only_the_receiver():
    # fresh_state reparses the harness, so patching this body is isolated
    state = fresh_state()
    stmt = SendStmt(target="peer", method="ping", args=[IntLit(1)], after=IntLit(2))
    state.checked.classes["Alpha"].methods["initial"].definition.body.append(stmt)
    recompile(state, "Alpha", "initial")
    before = {rid: (env.now, dict(env.state_vars)) for rid, env in state.envs.items()
              if rid != "alpha"}
    exec_method(_msg("alpha", "initial", tt=4), state, no_choice())
    after = {rid: (env.now, dict(env.state_vars)) for rid, env in state.envs.items()
             if rid != "alpha"}
    assert before == after  # only messages cross rebec boundaries
    assert len(state.bag) == 1


def test_scheduler_binds_sender_and_params_then_discards():
    state = fresh_state()
    # probe(v) { x = v; if (sender == peer) { t = v; } }
    state.checked.classes["Alpha"].methods["probe"].definition.body.append(
        IfStmt(BinaryOp("==", SenderExpr(), VarRef("peer")), [Assign("t", VarRef("v"))]))
    recompile(state, "Alpha", "probe")
    exec_method(_msg("alpha", "probe", tt=0, args=(42,), sender="beta"), state,
                no_choice())
    env = state.envs["alpha"]
    assert is_int(env.state_vars["x"], 42) and is_int(env.state_vars["t"], 42)
    # The record keeps its clock, state variables and knowns; the sender and
    # the locals lived in the discarded frame.
    assert env.key() == "alpha:Alpha:0:x=42,t=42:peer=@beta"


def test_scheduler_purges_expired_deadline():
    state = fresh_state()
    set_clock(state, "alpha", 9)
    state.add_message(_msg("alpha", "probe", tt=0, dl=8, args=(1,)))
    assert not eligible(state.bag[0], state, CHECK_LITERAL)
    events, end = system_step(state, horizon=100)
    assert end == "all-expired"
    assert [ev.kind for ev in events] == ["msg_purged"]
    assert state.bag == []


def test_scheduler_infinite_deadline_always_eligible():
    state = fresh_state()
    state.add_message(_msg("alpha", "probe", tt=0, args=(1,)))
    assert eligible(state.bag[0], state, CHECK_LITERAL)


def test_eligible_literal_vs_effective_divergence():
    # receiver clock 0, tt 10, dl 5: serving it would start past the deadline
    state = fresh_state()
    msg = _msg("alpha", "probe", tt=10, dl=5, args=(1,))
    state.add_message(msg)
    assert eligible(msg, state, CHECK_LITERAL) is True
    assert eligible(msg, state, CHECK_EFFECTIVE) is False


def test_scheduler_selects_minimal_time_tag():
    state = fresh_state()
    m1 = _msg("alpha", "probe", tt=3, args=(1,))
    m2 = _msg("beta", "ping", tt=5, args=(2,))
    state.add_message(m2)
    state.add_message(m1)
    assert min_tt_candidates(state) == [m1]
    events, end = system_step(state, horizon=100)
    assert end is None
    assert (events[0].kind, events[0].rebec, events[0].tt) == ("msg_selected", "alpha", 3)
    assert state.bag == [m2]


def test_scheduler_purges_before_selecting():
    state = fresh_state()
    set_clock(state, "alpha", 2)
    expired = _msg("alpha", "probe", tt=3, dl=1, args=(1,))
    valid = _msg("beta", "ping", tt=5, args=(2,))
    state.add_message(expired)
    state.add_message(valid)
    events, end = system_step(state, horizon=100)
    assert [ev.kind for ev in events[:2]] == ["msg_purged", "msg_selected"]
    assert (events[1].rebec, events[1].tt) == ("beta", 5)
    assert state.bag == []


def test_scheduler_empty_bag_terminates():
    state = fresh_state()
    assert system_step(state, horizon=100) == ([], "empty-bag")


def test_scheduler_horizon_stops_before_executing():
    state = fresh_state()
    state.add_message(_msg("alpha", "probe", tt=31, args=(1,)))
    events, end = system_step(state, horizon=30)
    assert (events, end) == ([], "horizon")
    assert state.bag != []  # nothing executed


ALL_RULE_TESTS = [
    test_eval_arithmetic,
    test_eval_now_reads_local_clock,
    test_eval_choice_consults_resolver,
    test_rule_assign,
    test_rule_delay,
    test_rule_delay_rejects_negative,
    test_rule_msg_with_after_and_deadline,
    test_rule_msg_defaults_zero_after_infinite_deadline,
    test_rule_msg_rejects_nonpositive_deadline,
    test_rule_create,
    test_rule_cond1_true_branch,
    test_rule_cond2_false_branch,
    test_rule_seq_threads_effects_left_to_right,
    test_scheduler_now_becomes_max_of_tt_and_clock,
    test_scheduler_now_keeps_larger_clock,
    test_scheduler_binds_sender_and_params_then_discards,
    test_scheduler_purges_expired_deadline,
    test_scheduler_infinite_deadline_always_eligible,
    test_eligible_literal_vs_effective_divergence,
    test_scheduler_selects_minimal_time_tag,
    test_scheduler_purges_before_selecting,
    test_scheduler_empty_bag_terminates,
    test_scheduler_horizon_stops_before_executing,
]
