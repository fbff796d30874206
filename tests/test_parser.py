import random
import signal

import pytest

import trebeca
from conftest import TICKET_ENV, bundled_text
from trebeca.explorer import ExploreBounds, explore
from trebeca.model import EV_SELECTED, IntLit, pretty_print
from trebeca.parser import SourceError, load_model, parse_model
from trebeca.scheduler import SchedulePolicy, run

MINIMAL = "reactiveclass A { knownrebecs {} statevars {} msgsrv initial() {} } main { A a():(); }"


def errors_of(source: str):
    try:
        load_model(source)
    except SourceError as exc:
        return exc.errors
    return []


def test_minimal_model():
    model = parse_model(MINIMAL)
    assert len(model.classes) == 1
    assert len(model.main) == 1
    assert model.main[0].class_name == "A"


def test_ticket_service_shape():
    model = parse_model(bundled_text("ticket_service.rebeca"))
    assert [c.name for c in model.classes] == ["Agent", "TicketService"]
    assert [i.name for i in model.main] == ["a", "ts1", "ts2"]
    assert len(model.env_decls) == 6


def test_after_and_deadline_clauses_recorded():
    src = """
    reactiveclass A {
        knownrebecs {}
        statevars {}
        msgsrv initial() { self.m() after(2) deadline(1); }
        msgsrv m() {}
    }
    main { A a():(); }
    """
    model = parse_model(src)
    send = model.classes[0].methods[0].body[0]
    assert send.after == IntLit(2)
    assert send.deadline == IntLit(1)


def test_delay_outside_method_is_an_error():
    errs = errors_of("delay(5); " + MINIMAL)
    assert errs and errs[0].pos == (1, 1)


def test_duplicate_block_keyword():
    src = "reactiveclass A { knownrebecs {} knownrebecs {} statevars {} } main { A a():(); }"
    with pytest.raises(SourceError) as exc:
        parse_model(src)
    assert any("duplicate knownrebecs" in e.message for e in exc.value.errors)


def test_choice_needs_two_alternatives():
    src = MINIMAL.replace("msgsrv initial() {}", "msgsrv initial() { x = ?(1); }")
    with pytest.raises(SourceError):
        parse_model(src)


def test_comments_and_unterminated_block_comment():
    parse_model("// line\n/* block\n comment */" + MINIMAL)
    with pytest.raises(SourceError):
        parse_model("/* never closed " + MINIMAL)


def test_known_arity_mismatch():
    src = """
    reactiveclass A {
        knownrebecs { B peer; }
        statevars {}
        msgsrv initial() {}
    }
    reactiveclass B { knownrebecs {} statevars {} msgsrv initial() {} }
    main { A a(b, b):(); B b():(); }
    """
    errs = errors_of(src)
    assert any("passes 2 known" in e.message for e in errs)


def test_call_arity_and_types_checked():
    good = """
    reactiveclass TicketService {
        knownrebecs {}
        statevars {}
        msgsrv initial() {}
        msgsrv requestTicket(int token) {}
    }
    main { TicketService ts1():(); }
    """
    model = load_model(good.replace("msgsrv initial() {}",
                                    "msgsrv initial() { self.requestTicket(5); }"))
    assert "TicketService" in model.classes
    bad = good.replace("msgsrv initial() {}",
                       "msgsrv initial() { self.requestTicket(true); }")
    assert any("argument" in e.message for e in errors_of(bad))
    bad2 = good.replace("msgsrv initial() {}",
                        "msgsrv initial() { self.requestTicket(); }")
    assert any("expects 1 argument" in e.message for e in errors_of(bad2))


def test_missing_initial_detected():
    src = "reactiveclass A { knownrebecs {} statevars {} msgsrv go() {} } main { A a():(); }"
    assert any("no initial" in e.message for e in errors_of(src))


@pytest.mark.parametrize("body, main, message", [
    ("self.nope();", "A a(b):(); B b():();", "class 'A' has no message server 'nope'"),
    ("r = new C();", "A a(b):(); B b():();", "class 'C' has no initial message server"),
    ("r = new B(1);", "A a(b):(); B b():();", "initial of 'B' expects 0 argument(s), got 1"),
    ("", "A a(c):(); B b():(); C c():();",
     "known rebec 'peer' of 'a' must be a B, 'c' is a C"),
    ("", "A a(z):(); B b():();", "unknown rebec 'z' passed to 'a'"),
], ids=["server", "new-initial", "new-arity", "known-class", "known-unbound"])
def test_every_queued_message_has_a_receiver_that_serves_it(body, main, message):
    # The step runs a message without looking: these are the checks that
    # make its receiver exist and serve it with the message's arguments.
    src = ("reactiveclass A { knownrebecs { B peer; } statevars {}"
           f" msgsrv initial() {{ {body} }} }}"
           " reactiveclass B { knownrebecs {} statevars {} msgsrv initial() {} }"
           " reactiveclass C { knownrebecs {} statevars {} msgsrv go() {} }"
           f" main {{ {main} }}")
    assert message in [e.message for e in errors_of(src)]


def test_unknown_class_in_main():
    src = MINIMAL.replace("A a():();", "A a():(); Z z():();")
    assert any("unknown class 'Z'" in e.message for e in errors_of(src))


def test_queue_bound_parsed_and_warned():
    src = MINIMAL.replace("reactiveclass A {", "reactiveclass A(5) {")
    checked = load_model(src)
    assert checked.model.classes[0].queue_bound == 5
    assert any("queue bound" in w.message for w in checked.warnings)


def test_env_vars_resolve_and_unknown_names_rejected():
    src = "env int speed;\n" + MINIMAL.replace(
        "msgsrv initial() {}", "msgsrv initial() { x = speed + 1; }")
    load_model(src)
    bad = MINIMAL.replace("msgsrv initial() {}", "msgsrv initial() { x = speed + 1; }")
    assert any("unknown name 'speed'" in e.message for e in errors_of(bad))


def test_reserved_names_cannot_be_shadowed():
    # self/now/sender are keywords, so using one as a variable name is
    # already a parse error.
    src = MINIMAL.replace("statevars {}", "statevars { int sender; }")
    errs = errors_of(src)
    assert errs and "'sender'" in errs[0].message


def test_send_target_must_be_rebec_valued():
    src = MINIMAL.replace("msgsrv initial() {}",
                          "msgsrv initial() { x = 1; x.m(); }")
    assert any("send target" in e.message for e in errors_of(src))


def test_read_before_assignment_of_local():
    src = MINIMAL.replace("msgsrv initial() {}", "msgsrv initial() { x = y + 1; }")
    assert any("unknown name 'y'" in e.message for e in errors_of(src))


def test_branch_local_needs_both_branches():
    body = "if (true) { v = 1; } else { v = 2; } x = v;"
    src = MINIMAL.replace("msgsrv initial() {}", "msgsrv initial() { %s }" % body)
    load_model(src)
    body_one = "if (true) { v = 1; } x = v;"
    src_one = MINIMAL.replace("msgsrv initial() {}", "msgsrv initial() { %s }" % body_one)
    assert any("unknown name 'v'" in e.message for e in errors_of(src_one))


def test_new_target_must_not_declare_knownrebecs():
    src = """
    reactiveclass A {
        knownrebecs { B peer; }
        statevars {}
        msgsrv initial() { r = new A(); }
    }
    reactiveclass B { knownrebecs {} statevars {} msgsrv initial() {} }
    main { A a(b):(); B b():(); }
    """
    assert any("declares knownrebecs" in e.message for e in errors_of(src))


def test_assign_and_new_share_one_write_check():
    src = ("env int e;\n"
           "reactiveclass A {\n"
           "    knownrebecs { B peer; }\n"
           "    statevars { int n; }\n"
           "    msgsrv initial() { peer = new B(); e = new B(); n = new B(); r = new B(); r = new C(); }\n"
           "    msgsrv poke() { peer = self; e = 1; n = true; }\n"
           "}\n"
           "reactiveclass B { knownrebecs {} statevars {} msgsrv initial() {} }\n"
           "reactiveclass C { knownrebecs {} statevars {} msgsrv initial() {} }\n"
           "main { A a(b):(); B b():(); }\n")
    assert [e.render() for e in errors_of(src)] == [
        "<input>:5:24: error: cannot assign to known rebec 'peer'",
        "<input>:5:40: error: cannot assign to env variable 'e'",
        "<input>:5:53: error: cannot assign rebec:B value to int variable 'n'",
        "<input>:5:79: error: cannot assign rebec:C value to rebec:B variable 'r'",
        "<input>:6:21: error: cannot assign to known rebec 'peer'",
        "<input>:6:34: error: cannot assign to env variable 'e'",
        "<input>:6:41: error: cannot assign boolean value to int variable 'n'",
    ]


def test_main_initial_must_be_parameterless():
    src = """
    reactiveclass A {
        knownrebecs {}
        statevars {}
        msgsrv initial(int v) {}
    }
    main { A a():(); }
    """
    assert any("parameterless initial" in e.message for e in errors_of(src))


def test_a_state_initializer_may_not_name_a_state_variable():
    src = ("reactiveclass A { knownrebecs {} statevars { int n; int m; }"
           " msgsrv initial() {} } main { A a():(1, n); }")
    assert [(e.pos, e.message) for e in errors_of(src)] == [
        ((1, 101), "state initializers must be literals or env variables")]


def test_error_positions_point_into_source():
    src = "reactiveclass A {\n  knownrebecs {}\n  statevars {}\n  msgsrv initial() { x = ; }\n}\nmain { A a():(); }"
    with pytest.raises(SourceError) as exc:
        parse_model(src)
    line, col = exc.value.errors[0].pos
    assert line == 4 and col >= 1


def test_a_model_cut_after_any_line_checks_or_fails_without_hanging():
    def hang(*_):
        raise AssertionError("load_model did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        for path in trebeca.bundled_models():
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            for cut in range(len(lines) + 1):
                try:
                    load_model("".join(lines[:cut]))
                except SourceError as exc:
                    assert exc.errors
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_end_of_input_inside_main_is_an_error():
    (err,) = errors_of("main {")
    assert (err.pos, err.message) == ((1, 7), "unexpected end of input inside main")


def test_a_duplicated_message_server_walks_each_body_once():
    src = MINIMAL.replace("msgsrv initial() {}",
                          "msgsrv initial() { x = y; } msgsrv initial() { x = z; }")
    assert [e.message for e in errors_of(src)] == [
        "duplicate message server 'initial' in class 'A'", "unknown name 'y'"]


SENDER_SRC = """
reactiveclass Sink {
    knownrebecs { Source a; }
    statevars {}
    msgsrv initial() {}
    msgsrv hello() {
        if (sender == a) { self.fromA(); }
        if (sender != self) { self.fromOther(); }
    }
    msgsrv fromA() {}
    msgsrv fromOther() {}
}
reactiveclass Source {
    knownrebecs { Sink sink; }
    statevars { int wait; }
    msgsrv initial() { sink.hello() after(wait); }
}
main { Sink sink(a):(); Source a(sink):(1); Source b(sink):(5); }
"""


def test_sender_compares_with_any_rebec():
    checked = load_model(SENDER_SRC)
    for seed in range(4):
        trace = run(checked, {}, seed, SchedulePolicy(max_steps=20))
        served = [(ev.method, ev.sender) for ev in trace.events
                  if ev.kind == EV_SELECTED and ev.method != "initial"]
        # a's hello arrives at time 1 and b's at time 5.
        assert served[0] == ("hello", "a") and served[3] == ("hello", "b")
        assert sorted(served[1:3]) == [("fromA", "sink"), ("fromOther", "sink")]
        assert served[4:] == [("fromOther", "sink")]


def test_sender_stays_apart_from_other_types():
    store = SENDER_SRC.replace("if (sender == a) { self.fromA(); }", "p = a; p = sender;")
    assert [e.message for e in errors_of(store)] == [
        "cannot assign rebec:? value to rebec:Source variable 'p'"]
    number = SENDER_SRC.replace("sender == a", "sender == 1")
    assert [e.message for e in errors_of(number)] == ["cannot compare rebec:? with int"]


def test_choice_sites_are_stable_ids(ticket_model):
    res = explore(ticket_model, TICKET_ENV, ExploreBounds(horizon=6))
    sites = {site for e in res.edges for site, _, _ in e.decision.choices}
    assert sites == {"TicketService.requestTicket?0"}


def test_fuzzed_mutations_never_crash_and_report_positions():
    source = bundled_text("ticket_service.rebeca")
    lines = source.count("\n") + 1
    rng = random.Random(7)
    for _ in range(300):
        pos = rng.randrange(len(source))
        op = rng.randrange(3)
        if op == 0:
            mutated = source[:pos] + source[pos + 1:]
        elif op == 1:
            mutated = source[:pos] + rng.choice("{}();=?.,xz19 ") + source[pos:]
        else:
            mutated = source[:pos] + rng.choice("{}();=?.,xz19 ") + source[pos + 1:]
        try:
            load_model(mutated)
        except SourceError as exc:
            assert exc.errors
            line, col = exc.errors[0].pos
            assert 1 <= line <= mutated.count("\n") + 2
            assert col >= 1
        # a mutation may also still be a valid model; that is fine


def test_pretty_print_echoes_choice_spacing():
    src = MINIMAL.replace("msgsrv initial() {}", "msgsrv initial() { x = ?(3,4); }")
    model = parse_model(src)
    assert "?(3, 4)" in pretty_print(model)


def test_pretty_print_minimal_layout_order():
    text = pretty_print(parse_model(MINIMAL))
    assert text.index("reactiveclass") < text.index("main")


def test_pretty_print_empty_class():
    model = parse_model("reactiveclass A { knownrebecs {} statevars {} } main {}")
    text = pretty_print(model)
    assert text.index("reactiveclass") < text.index("main")
    assert parse_model(text) == model


def test_comma_separated_declarations():
    src = """
    env int a, b;
    reactiveclass A {
        knownrebecs {}
        statevars { int x, y; boolean f; }
        msgsrv initial() { x = a + b; }
    }
    main { A r():(); }
    """
    model = parse_model(src)
    assert [d.name for d in model.env_decls] == ["a", "b"]
    assert [d.name for d in model.classes[0].state_decls] == ["x", "y", "f"]
    assert parse_model(pretty_print(model)) == model


def test_braceless_if_branches():
    src = MINIMAL.replace(
        "msgsrv initial() {}",
        "msgsrv initial() { if (true) x = 1; else x = 2; }")
    model = load_model(src)
    stmt = model.model.classes[0].methods[0].body[0]
    assert len(stmt.then_body) == 1 and len(stmt.else_body) == 1
