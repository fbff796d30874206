import pytest

from conftest import TICKET_ENV, bundled_text
from trebeca.explorer import ExploreBounds, explore, follow, replay
from trebeca.model import EV_PURGED
from trebeca.monitors import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    check_graph,
    check_trace,
    parse_monitor,
    validate_monitor,
)
from trebeca.parser import SourceError, load_model
from trebeca.scheduler import SchedulePolicy, run


def test_parse_single_eventually():
    spec = parse_monitor("EVENTUALLY selected a.ticketIssued\n")
    assert len(spec.clauses) == 1
    assert str(spec.clauses[0]) == "EVENTUALLY selected a.ticketIssued"


def test_parse_wildcard_never():
    spec = parse_monitor("NEVER purged admin.*")
    clause = spec.clauses[0]
    assert clause.op == "never" and clause.event.method == "*"


def test_parse_within_bound():
    spec = parse_monitor("EVENTUALLY selected rescue.go WITHIN 7")
    assert spec.clauses[0].within == 7


@pytest.mark.parametrize("bound", ["soon", "1_0", "\u0663", "+7"])
def test_a_within_bound_must_be_an_integer(bound):
    with pytest.raises(SourceError) as exc:
        parse_monitor(f"NEVER purged *.*\nEVENTUALLY selected a.go WITHIN {bound}\n")
    assert [e.render() for e in exc.value.errors] == [
        f"<input>:2:1: error: WITHIN bound must be an integer, found {bound!r}"]


def test_parse_always_precedes_and_comments():
    text = "# header\nALWAYS-PRECEDES(selected a.request, selected a.reply)\n\n"
    spec = parse_monitor(text)
    clause = spec.clauses[0]
    assert clause.op == "always-precedes"
    assert clause.before.method == "request" and clause.event.method == "reply"


def test_parse_errors_have_positions():
    with pytest.raises(SourceError) as exc:
        parse_monitor("EVENTUALLY\nNEVER selected a.b\n")
    assert exc.value.errors[0].pos[0] == 1


@pytest.mark.parametrize("text, rendered", [
    ("# kinds\nNEVER moved a.b\n",
     "<input>:2:1: error: expected '<selected|purged|sent> rebec.method', found 'moved a.b'"),
    ("\nNEVER sent a.b.c\n", "<input>:2:1: error: event target must be rebec.method,"
                             " found 'a.b.c'"),
    ("NEVER sent *.*\nEVENTUALLY selected a.b WITHIN -1\n",
     "<input>:2:1: error: WITHIN bound must be non-negative"),
    ("# order\n\nALWAYS-PRECEDES selected a.b\n",
     "<input>:3:1: error: expected ALWAYS-PRECEDES(event_a, event_b)"),
], ids=["event-kind", "event-target", "negative-within", "precedes-form"])
def test_each_monitor_diagnostic_has_its_text_and_line(text, rendered):
    with pytest.raises(SourceError) as exc:
        parse_monitor(text)
    assert [e.render() for e in exc.value.errors] == [rendered]


def test_validate_monitor_warns_on_unknown_names(ticket_model):
    spec = parse_monitor("EVENTUALLY selected nobody.nothing")
    warnings = validate_monitor(spec, ticket_model)
    assert len(warnings) == 2


def trace_for(seed, horizon=25, env=TICKET_ENV, model_name="ticket_service.rebeca"):
    checked = load_model(bundled_text(model_name))
    return run(checked, env, seed, SchedulePolicy(horizon=horizon))


def find_issue_seed(horizon=25):
    checked = load_model(bundled_text("ticket_service.rebeca"))
    for seed in range(3000):
        trace = run(checked, TICKET_ENV, seed, SchedulePolicy(horizon=horizon))
        if any(ev.kind == "msg_selected" and ev.method == "ticketIssued"
               for ev in trace.events):
            return seed, trace
    raise AssertionError("no seed delivers a ticket within the scan budget")


def test_eventually_pass_with_witness():
    _, trace = find_issue_seed()
    verdict = check_trace(trace, parse_monitor("EVENTUALLY selected a.ticketIssued"))
    clause = verdict.clauses[0]
    assert clause.status == PASS
    assert clause.witness.method == "ticketIssued"


def test_never_purged_passes_when_nothing_purged(ping_pong_model):
    trace = run(ping_pong_model, {}, 0, SchedulePolicy(horizon=6))
    verdict = check_trace(trace, parse_monitor("NEVER purged *.*"))
    assert verdict.clauses[0].status == PASS


def test_truncated_run_gives_inconclusive_eventually(ticket_model):
    trace = run(ticket_model, TICKET_ENV, 0, SchedulePolicy(max_steps=3))
    verdict = check_trace(trace, parse_monitor("EVENTUALLY selected a.ticketIssued"))
    assert verdict.clauses[0].status == INCONCLUSIVE
    assert verdict.clauses[0].witness is None


def test_completed_run_fails_unmet_eventually(deadline_miss_model):
    trace = run(deadline_miss_model, {}, 0, SchedulePolicy(horizon=50))
    assert trace.end_reason == "all-expired"
    verdict = check_trace(trace, parse_monitor("EVENTUALLY selected s.work"))
    assert verdict.clauses[0].status == FAIL


def test_within_bound_decided_by_horizon(ticket_model):
    # horizon 50 covers WITHIN 20: unmet means fail, not inconclusive
    env = dict(TICKET_ENV, checkIssuedPeriod=1)  # the never-issued row
    trace = run(ticket_model, env, 0, SchedulePolicy(horizon=50))
    spec = parse_monitor("EVENTUALLY selected a.ticketIssued WITHIN 20\n"
                         "EVENTUALLY selected a.ticketIssued\n")
    verdict = check_trace(trace, spec)
    assert verdict.clauses[0].status == FAIL
    assert verdict.clauses[1].status == INCONCLUSIVE


def test_within_checks_execution_time():
    _, trace = find_issue_seed()
    issue_time = next(ev.time for ev in trace.events
                      if ev.kind == "msg_selected" and ev.method == "ticketIssued")
    ok = parse_monitor(f"EVENTUALLY selected a.ticketIssued WITHIN {issue_time}")
    assert check_trace(trace, ok).clauses[0].status == PASS


def test_purged_events_observable(deadline_miss_model):
    trace = run(deadline_miss_model, {}, 0, SchedulePolicy(horizon=50))
    verdict = check_trace(trace, parse_monitor("NEVER purged s.work"))
    clause = verdict.clauses[0]
    assert clause.status == FAIL and clause.witness.kind == "msg_purged"


def test_always_precedes():
    _, trace = find_issue_seed()
    good = parse_monitor("ALWAYS-PRECEDES(selected *.requestTicket, selected a.ticketIssued)")
    assert check_trace(trace, good).clauses[0].status == PASS
    bad = parse_monitor("ALWAYS-PRECEDES(selected a.ticketIssued, selected *.requestTicket)")
    assert check_trace(trace, bad).clauses[0].status == FAIL


def test_deterministic_model_graph_equals_trace_verdict():
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars {} "
        "msgsrv initial() { self.done() after(1); } msgsrv done() {} }"
        " main { A a():(); }")
    spec = parse_monitor("EVENTUALLY selected a.done\nNEVER purged *.*\n")
    trace = run(checked, {}, 0, SchedulePolicy(horizon=10))
    tv = check_trace(trace, spec)
    res = explore(checked, {}, ExploreBounds(horizon=10))
    gv = check_graph(res, spec)
    for t, g in zip(tv.clauses, gv.clauses):
        assert g.exists_status == g.forall_status == t.status


def test_graph_exists_and_forall_on_ticket_rows(ticket_model):
    spec = parse_monitor("EVENTUALLY selected a.ticketIssued\n"
                         "NEVER selected a.ticketIssued\n")
    issued = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=20))
    gv = check_graph(issued, spec)
    assert gv.clauses[0].exists_status == PASS
    assert gv.clauses[1].exists_status == PASS  # some path avoids the ticket
    assert gv.clauses[1].forall_status == FAIL

    never_env = dict(TICKET_ENV, serviceTime1=4)
    never = explore(ticket_model, never_env, ExploreBounds(horizon=20))
    gv2 = check_graph(never, spec)
    assert gv2.clauses[1].forall_status == PASS
    assert gv2.clauses[0].exists_status == INCONCLUSIVE


def test_graph_witness_replays_to_same_verdict(ticket_model):
    spec = parse_monitor("EVENTUALLY selected a.ticketIssued")
    res = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=20))
    clause = check_graph(res, spec).clauses[0]
    assert clause.exists_status == PASS
    trace = replay(res, clause.exists_witness)
    assert check_trace(trace, spec).clauses[0].status == PASS


def test_graph_forall_witness_replays_to_a_failing_trace(ticket_model):
    spec = parse_monitor("NEVER selected a.ticketIssued")
    res = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=20))
    clause = check_graph(res, spec).clauses[0]
    assert clause.forall_status == FAIL
    trace = replay(res, clause.forall_witness)
    assert check_trace(trace, spec).clauses[0].status == FAIL


def test_zero_time_loop_detected_as_divergence():
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars {} "
        "msgsrv initial() { self.spin(); } msgsrv spin() { self.spin(); } }"
        " main { A a():(); }")
    res = explore(checked, {}, ExploreBounds(horizon=5))
    assert not res.truncated  # the loop folds into finitely many states
    spec = parse_monitor("EVENTUALLY selected a.never\nNEVER selected a.missing\n")
    gv = check_graph(res, spec)
    assert gv.clauses[0].forall_status == FAIL  # the loop never reaches it
    assert gv.clauses[1].forall_status == PASS


def test_two_rebec_zero_time_cycle():
    checked = load_model(
        "reactiveclass P { knownrebecs { Q q; } statevars {} "
        "msgsrv initial() { q.back(); } msgsrv go() { q.back(); } }\n"
        "reactiveclass Q { knownrebecs { P p; } statevars {} "
        "msgsrv initial() {} msgsrv back() { p.go(); } }\n"
        "main { P p(q):(); Q q(p):(); }")
    res = explore(checked, {}, ExploreBounds(horizon=5))
    spec = parse_monitor("EVENTUALLY selected p.never\nNEVER purged *.*\n")
    gv = check_graph(res, spec)
    assert gv.clauses[0].forall_status == FAIL
    assert gv.clauses[1].forall_status == PASS


def test_one_graph_cycle_reached_at_two_automaton_states():
    # Both branches reach the state whose bag holds only spin; it loops on
    # itself, once after mark was selected and once without it.
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars {} msgsrv initial()"
        " { if (?(0, 1) == 1) { self.mark(); } else { self.spin(); } }"
        " msgsrv mark() { self.spin(); } msgsrv spin() { self.spin(); } }"
        " main { A a():(); }")
    res = explore(checked, {}, ExploreBounds(horizon=5))
    assert not res.truncated and not res.terminals()
    spec = parse_monitor("EVENTUALLY selected a.mark\nNEVER selected a.mark\n"
                         "ALWAYS-PRECEDES(selected a.mark, selected a.spin)\n")
    clauses = check_graph(res, spec).clauses
    assert [(c.exists_status, c.forall_status) for c in clauses] == [(PASS, FAIL)] * 3
    # Each witness leads onto the loop, down the branch its status needs:
    # (exists, forall) witnesses select mark or not.
    for clause, want in zip(clauses, [(True, False), (False, True), (True, False)]):
        marked = []
        for path in (clause.exists_witness, clause.forall_witness):
            loop_state = follow(res, path)
            assert any(e.src == e.dst == loop_state for e in res.edges)
            marked.append(any(d.message[2] == "mark" for d in path))
        assert tuple(marked) == want, clause.clause


def test_a_state_reached_twice_is_not_a_cycle():
    # x and y tie at time 0, so both orders reach one state before z runs.
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars {}"
        " msgsrv initial() { self.x(); self.y(); } msgsrv x() {}"
        " msgsrv y() { self.z() after(1); } msgsrv z() {} }"
        " main { A a():(); }")
    res = explore(checked, {}, ExploreBounds(horizon=5))
    assert len({e.dst for e in res.edges}) < len(res.edges)
    spec = parse_monitor("EVENTUALLY selected a.z\nNEVER selected a.z\n")
    assert [(c.exists_status, c.forall_status) for c in check_graph(res, spec).clauses] == [
        (PASS, PASS), (FAIL, FAIL)]


def test_an_error_branch_ends_a_path_at_its_source():
    # go faults on its first choice, after initial was selected and before done.
    checked = load_model(
        "reactiveclass A { knownrebecs {} statevars { int n; }"
        " msgsrv initial() { self.go(); } msgsrv go() { n = 10 / ?(0, 1); self.done(); }"
        " msgsrv done() {} } main { A a():(); }")
    res = explore(checked, {}, ExploreBounds(horizon=5))
    (branch,) = res.error_branches
    assert branch.message == "a.go at 1:108: division by zero"
    assert [t for _, t in res.terminals()] == ["empty-bag"]
    spec = parse_monitor("EVENTUALLY selected a.done\nEVENTUALLY selected a.initial\n"
                         "NEVER selected a.initial\nNEVER selected a.done\n")
    assert [(c.exists_status, c.forall_status) for c in check_graph(res, spec).clauses] == [
        (PASS, INCONCLUSIVE), (PASS, PASS), (FAIL, FAIL), (INCONCLUSIVE, FAIL)]


@pytest.mark.parametrize("d", [0, 1])
def test_an_error_branch_is_judged_after_its_steps_purges(d):
    # m misses its deadline while initial delays, so the step that serves
    # boom at time 3 purges m first, whether or not boom then faults.
    checked = load_model(
        "env int d;\nreactiveclass A { knownrebecs {} statevars { int n; }\n"
        "  msgsrv initial() { self.m() deadline(1); delay(3); self.boom(); }\n"
        "  msgsrv m() {}\n  msgsrv boom() { n = 1 / d; }\n}\nmain { A a():(); }\n")
    res = explore(checked, {"d": d}, ExploreBounds(horizon=10))
    src = res.error_branches[0].src if res.error_branches else res.edges[-1].src
    assert [(ev.kind, ev.method) for ev in res.nodes[src].purge_events] == [(EV_PURGED, "m")]
    spec = parse_monitor("NEVER purged a.m\nEVENTUALLY purged a.m\n")
    assert [(c.exists_status, c.forall_status) for c in check_graph(res, spec).clauses] == [
        (FAIL, FAIL), (PASS, PASS)]


def test_verdict_stability_under_horizon_extension(ticket_model):
    spec = parse_monitor("NEVER selected a.ticketIssued\n"
                         "EVENTUALLY selected a.ticketIssued\n")
    seed, _ = find_issue_seed(horizon=25)
    short = run(ticket_model, TICKET_ENV, seed, SchedulePolicy(horizon=25))
    long = run(ticket_model, TICKET_ENV, seed, SchedulePolicy(horizon=40))
    v_short = check_trace(short, spec)
    v_long = check_trace(long, spec)
    # a NEVER violation cannot disappear, an EVENTUALLY witness cannot either
    assert v_short.clauses[0].status == FAIL
    assert v_long.clauses[0].status == FAIL
    assert v_short.clauses[1].status == PASS
    assert v_long.clauses[1].status == PASS
