import functools
import re
from pathlib import Path

import pytest

import trebeca
from conftest import bundled_text
from gen import generate_model
from trebeca.cli import main as main_cli
from trebeca.erlgen import UnsupportedFeatureError, emit
from trebeca.parser import load_model, validate_model

GOLDEN = Path(__file__).parent / "golden"


def emit_files(source: str) -> dict[str, str]:
    return emit(load_model(source)).files


@functools.cache
def emitted_corpus() -> list:
    """(label, checked model, emitted files) for every bundled model, every
    golden model and every generated model of seeds 0-399 that emission
    accepts (it refuses the ones with a new)."""
    checked = [(path.name, load_model(path.read_text()))
               for path in trebeca.bundled_models() + sorted(GOLDEN.glob("*.rebeca"))]
    checked += [(f"gen seed {seed}", validate_model(generate_model(seed)))
                for seed in range(400)]
    return [(label, model, emit(model).files)
            for label, model in checked if not model.new_targets]


@pytest.mark.parametrize("name,source", [
    ("ticket_service", lambda: bundled_text("ticket_service.rebeca")),
    ("delay_demo", lambda: (GOLDEN / "delay_demo.rebeca").read_text()),
    ("branch_joins", lambda: (GOLDEN / "branch_joins.rebeca").read_text()),
])
def test_golden_files_byte_identical(name, source):
    files = emit_files(source())
    golden_dir = GOLDEN / name
    assert sorted(files) == sorted(p.name for p in golden_dir.iterdir())
    for fname, text in files.items():
        assert text == (golden_dir / fname).read_text(), f"{name}/{fname} drifted"


def test_emission_is_deterministic():
    source = bundled_text("ticket_service.rebeca")
    assert emit_files(source) == emit_files(source)


def test_delay_form():
    worker = emit_files((GOLDEN / "delay_demo.rebeca").read_text())["worker.erl"]
    assert "receive after 10 -> ok end" in worker


def test_after_send_spawn_shape():
    worker = emit_files((GOLDEN / "delay_demo.rebeca").read_text())["worker.erl"]
    match = re.search(
        r"Sender = self\(\),\n"
        r"\s*spawn\(fun\(\) ->\n"
        r"\s*receive after 15 ->\n"
        r"\s*.*! \{\{Sender, now\(\), now\(\) \+ 4\}, finished\}\n"
        r"\s*end\n"
        r"\s*end\),",
        worker,
    )
    assert match, "after-send must sleep in a spawned helper before sending"


def test_three_stage_skeleton():
    files = emit_files(bundled_text("ticket_service.rebeca"))
    ts = files["ticketservice.erl"]
    assert "ticketService() ->" in ts
    assert "ticketService(KnownRebecs) ->" in ts
    assert "ticketService(KnownRebecs, StateVars) ->" in ts


def test_new_is_unsupported():
    src = """
    reactiveclass A {
        knownrebecs {}
        statevars {}
        msgsrv initial() { r = new B(); }
    }
    reactiveclass B { knownrebecs {} statevars {} msgsrv initial() {} }
    main { A a():(); B b():(); }
    """
    with pytest.raises(UnsupportedFeatureError, match="new"):
        emit(load_model(src))


def test_new_is_reported_at_the_first_new_in_the_source():
    # The first new creates Y; a later one, in another class, creates X.
    src = """reactiveclass A {
    knownrebecs {}
    statevars {}
    msgsrv initial() { y = new Y(); }
}
reactiveclass Y {
    knownrebecs {}
    statevars {}
    msgsrv initial() { if (true) { x = new X(); } else { z = new Y(); } }
}
reactiveclass X { knownrebecs {} statevars {} msgsrv initial() {} }
main { Y y():(); A a():(); }
"""
    with pytest.raises(UnsupportedFeatureError) as exc:
        emit(load_model(src))
    assert str(exc.value) == "unsupported feature for emission: new (rebec creation) at 4:24"


def test_structural_completeness():
    corpus = emitted_corpus()
    assert len(corpus) > 300
    for label, checked, files in corpus:
        for cls_name, info in checked.classes.items():
            text = files[f"{cls_name.lower()}.erl"]
            arities = {len(inst.init_args) for inst in checked.model.main
                       if inst.class_name == cls_name}
            for method in info.methods:
                # each message server appears exactly once as a receive
                # match, and initial once per init arity of its class
                expected = len(arities or {0}) if method == "initial" else 1
                pattern = r"\{\{From, SendTime, Deadline\}, " + method + r"[,}]"
                assert len(re.findall(pattern, text)) == expected, (label, cls_name, method)
            for decl in info.definition.state_decls:
                assert re.search(rf"_statevars, {{.*{decl.name} =", text), (label, decl.name)
        for fname, text in files.items():
            # A module that calls now() defines it instead of importing
            # erlang:now/0, which returns a tuple.
            calls_now = re.search(r"(?<![\w:])now\(\)", text) is not None
            assert calls_now == ("\n-compile({no_auto_import, [now/0]}).\n" in text), \
                (label, fname)
            assert calls_now == text.endswith(
                "\nnow() -> erlang:monotonic_time(millisecond).\n"), (label, fname)


def test_balanced_delimiters_everywhere():
    for label, _, files in emitted_corpus():
        for fname, text in files.items():
            for op, cl in (("(", ")"), ("{", "}"), ("[", "]")):
                assert text.count(op) == text.count(cl), (label, fname, op)


def test_main_passes_env_initializers_past_a_known_rebec_of_that_name():
    src = """env int x;
reactiveclass A { knownrebecs { B x; } statevars { int v; } msgsrv initial() {} }
reactiveclass B { knownrebecs {} statevars { int w; } msgsrv initial() {} }
main { A a(b):(x); B b():(x); }
"""
    main = emit_files(src)["main.erl"]
    assert "A ! {{main, now(), inf}, initial, env:x()}," in main
    assert "B ! {{main, now(), inf}, initial, env:x()}," in main
    assert "KnownRebecs" not in main


def test_nondeterministic_choice_emits_random_selection():
    files = emit_files(bundled_text("ticket_service.rebeca"))
    assert "lists:nth(rand:uniform(2), [env:serviceTime1(), env:serviceTime2()])" \
        in files["ticketservice.erl"]


def test_env_module_lists_every_parameter():
    files = emit_files(bundled_text("ticket_service.rebeca"))
    env = files["env.erl"]
    for name in ("requestDeadline", "checkIssuedPeriod", "retryRequestPeriod",
                 "newRequestPeriod", "serviceTime1", "serviceTime2"):
        assert f"{name}() ->" in env


def test_write_to_disk(tmp_path):
    program = emit(load_model(bundled_text("ticket_service.rebeca")))
    written = program.write_to(tmp_path / "out")
    assert sorted(p.name for p in written) == sorted(program.files)
    assert (tmp_path / "out" / "main.erl").read_text() == program.files["main.erl"]


AWKWARD_NAMES = """env int Rate;
reactiveclass Case {
    knownrebecs { Case Peer; }
    statevars { int End; }
    msgsrv initial() { self.Go(Rate); self.end(); }
    msgsrv Go(int n) { End = End + n; Peer.Go(1) after(Rate); }
    msgsrv end() {}
}
main { Case c(c):(); }
"""


def test_names_that_read_otherwise_in_erlang_are_quoted_atoms():
    files = emit_files(AWKWARD_NAMES)
    case, env, main = files["case.erl"], files["env.erl"], files["main.erl"]
    for text in ("-module('case').", "spawn(fun 'case'/0).", "'case'(KnownRebecs) ->",
                 "-record(case_knownrebecs, {'Peer'}).",
                 "-record(case_statevars, {'End' = 0}).",
                 "self() ! {{self(), now(), inf}, 'Go', env:'Rate'()},",
                 "{{From, SendTime, Deadline}, 'Go', N} ->",
                 "self() ! {{self(), now(), inf}, 'end'},",
                 "{{From, SendTime, Deadline}, 'end'} ->",
                 "StateVars#case_statevars{'End' = (StateVars#case_statevars.'End' + N)}",
                 "KnownRebecs#case_knownrebecs.'Peer' ! {{Sender, now(), inf}, 'Go', 1}"):
        assert text in case, text
    assert "-export(['Rate'/0])." in env and "\n'Rate'() -> 0." in env
    assert "C = 'case':start()," in main


@pytest.mark.parametrize("source, message", [
    ("reactiveclass Main { knownrebecs {} statevars {} msgsrv initial() {} }\n"
     "main { Main m():(); }",
     "class 'Main', whose module file main.erl is already taken at 1:15"),
    ("reactiveclass foo { knownrebecs {} statevars {} msgsrv initial() {} }\n"
     "reactiveclass Foo { knownrebecs {} statevars {} msgsrv initial() {} }\n"
     "main { foo a():(); Foo b():(); }",
     "class 'Foo', whose module file foo.erl is already taken at 2:15"),
    ("env int k;\nreactiveclass Env { knownrebecs {} statevars {} msgsrv initial() {} }\n"
     "main { Env e():(); }",
     "class 'Env', whose module file env.erl is already taken at 2:15"),
], ids=["main", "same-lower-case", "env"])
def test_a_class_whose_module_file_is_taken_is_refused(source, message, tmp_path):
    with pytest.raises(UnsupportedFeatureError) as exc:
        emit(load_model(source))
    assert str(exc.value) == f"unsupported feature for emission: {message}"
    model = tmp_path / "m.rebeca"
    model.write_text(source)
    assert main_cli(["emit", str(model), "--out", str(tmp_path / "o")]) == 4
    assert not (tmp_path / "o").exists()


def _bindings(clause: str) -> list[str]:
    """The variables a serve clause binds: its parameters, then every
    ``Var = ...`` match and every variable of a tuple match, in order."""
    head = re.match(r"\s*\{\{From, SendTime, Deadline\}, \w+((?:, \w+)*)\} ->", clause)
    bound = [p for p in head.group(1).split(", ") if p]
    for lhs in re.findall(r"^\s*(\{[A-Z][\w, ]*\}|[A-Z]\w*) = ", clause, re.M):
        bound += lhs.strip("{}").split(", ")
    return bound


@pytest.mark.parametrize("param, body, params_var", [
    ("size1", "size = size1 + 1; total = size; t = total;", "Size1"),
    ("stateVars1", "t = stateVars1 + 1; if (t > 2) { t = 0; } else { t = 1; }", "StateVars1"),
], ids=["local", "statevars"])
def test_a_parameter_and_a_fresh_variable_never_share_a_name(param, body, params_var):
    source = ("reactiveclass A { knownrebecs {} statevars { int t; }\n"
              "  msgsrv initial() { self.go(1); }\n"
              f"  msgsrv go(int {param}) {{ {body} }} }}\nmain {{ A a():(); }}")
    text = emit_files(source)["a.erl"]
    clause = text[text.index("{{From, SendTime, Deadline}, go"):]
    bound = _bindings(clause)
    assert bound[0] == params_var
    assert len(bound) == len(set(bound)), bound


@pytest.mark.parametrize("name", ["Lists", "Rand", "Erlang"])
def test_a_class_named_after_a_called_standard_module_is_refused(name, tmp_path):
    source = (f"reactiveclass {name} {{ knownrebecs {{}} statevars {{ int x; }}\n"
              f"  msgsrv initial() {{ x = ?(1, 2); }} }}\nmain {{ {name} r():(); }}")
    with pytest.raises(UnsupportedFeatureError) as exc:
        emit(load_model(source))
    assert str(exc.value) == (f"unsupported feature for emission: class {name!r}, whose module"
                              f" file {name.lower()}.erl is already taken at 1:15")
    model = tmp_path / "m.rebeca"
    model.write_text(source)
    assert main_cli(["emit", str(model), "--out", str(tmp_path / "o")]) == 4
    assert not (tmp_path / "o").exists()
