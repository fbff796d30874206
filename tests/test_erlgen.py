import functools
import re
from pathlib import Path

import pytest

import trebeca
from conftest import bundled_text
from gen import generate_model
from trebeca.cli import main as main_cli
from trebeca.erlgen import UnsupportedFeatureError, emit
from trebeca.explorer import ExploreBounds, explore
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
        r"(Deadline_\d+) = now\(\) \+ 4,\n"
        r"\s*(Sender_\d+) = self\(\),\n"
        r"\s*spawn\(fun\(\) ->\n"
        r"\s*receive after 15 ->\n"
        r"\s*.*! \{\{\2, now\(\), \1\}, finished\}\n"
        r"\s*end\n"
        r"\s*end\),",
        worker,
    )
    assert match, "after-send must sleep in a spawned helper before sending"


def test_an_after_send_binds_its_computed_values_before_the_spawn():
    # The simulator fixes a send's arguments and deadline when the send
    # statement runs, so the helper may not read now() or draw ?(...) after
    # its sleep; a literal or a name reads the same in the helper.
    source = ("reactiveclass A { knownrebecs {} statevars { int n; }\n"
              "  msgsrv initial() { self.go(now(), ?(1, 2), n) after(5) deadline(3); }\n"
              "  msgsrv go(int t, int c, int m) {} }\nmain { A a():(); }")
    text = emit_files(source)["a.erl"]
    assert re.search(
        r"\n\s*(Arg_\d+) = now\(\),\n"
        r"\s*(Arg_\d+) = \(case rand:uniform\(2\) of 1 -> 1; 2 -> 2 end\),\n"
        r"\s*(Deadline_\d+) = now\(\) \+ 3,\n"
        r"\s*(Sender_\d+) = self\(\),\n"
        r"\s*spawn\(fun\(\) ->\n"
        r"\s*receive after 5 ->\n"
        r"\s*\4 ! \{\{\4, now\(\), \3\}, go, \1, \2, StateVars#a_statevars\.n\}\n",
        text), text


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
    assert "A_1 ! {{main, now(), inf}, initial, env:x()}," in main
    assert "B_2 ! {{main, now(), inf}, initial, env:x()}," in main
    assert "KnownRebecs" not in main


def test_nondeterministic_choice_emits_random_selection():
    files = emit_files(bundled_text("ticket_service.rebeca"))
    assert "(case rand:uniform(2) of 1 -> env:serviceTime1(); 2 -> env:serviceTime2() end)" \
        in files["ticketservice.erl"]


def test_a_choice_runs_only_the_alternative_drawn():
    # Erlang evaluates every element of a list, so a choice emitted as a list
    # would divide by zero on every run; the explorer takes the 0 branch.
    source = ("reactiveclass A { knownrebecs {} statevars { int d; int x; }\n"
              "  msgsrv initial() { x = ?(1 / d, 0); } }\nmain { A a():(); }")
    text = emit_files(source)["a.erl"]
    assert ("StateVars_1 = StateVars#a_statevars{x = (case rand:uniform(2) of"
            " 1 -> (1 div StateVars#a_statevars.d); 2 -> 0 end)},") in text
    result = explore(load_model(source), {}, ExploreBounds(max_steps=5))
    assert (len(result.edges), len(result.error_branches)) == (1, 1)
    for label, _, files in emitted_corpus():
        for fname, text in files.items():
            assert "lists:" not in text, (label, fname)


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
                 "{{From, SendTime, Deadline}, 'Go', N_2} ->",
                 "self() ! {{self(), now(), inf}, 'end'},",
                 "{{From, SendTime, Deadline}, 'end'} ->",
                 "StateVars#case_statevars{'End' = (StateVars#case_statevars.'End' + N_2)}",
                 "KnownRebecs#case_knownrebecs.'Peer' ! {{Sender_4, now(), inf}, 'Go', 1}"):
        assert text in case, text
    assert "-export(['Rate'/0])." in env and "\n'Rate'() -> 0." in env
    assert "C_1 = 'case':start()," in main


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
    # Stage functions named start or now would clash with start/0 or now/0;
    # a class cannot be named now, a keyword of Rebeca.
    *[(f"reactiveclass {name} {{ knownrebecs {{}} statevars {{}} msgsrv initial() {{}} }}\n"
       f"main {{ {name} r():(); }}",
       f"class {name!r}, whose stage functions would clash with {name.lower()}/0 at 1:15")
      for name in ("Start", "start", "Now")],
], ids=["main", "same-lower-case", "env", "stage-Start", "stage-start", "stage-Now"])
def test_a_class_whose_module_file_is_taken_is_refused(source, message, tmp_path):
    with pytest.raises(UnsupportedFeatureError) as exc:
        emit(load_model(source))
    assert str(exc.value) == f"unsupported feature for emission: {message}"
    model = tmp_path / "m.rebeca"
    model.write_text(source)
    assert main_cli(["emit", str(model), "--out", str(tmp_path / "o")]) == 4
    assert not (tmp_path / "o").exists()


def _bindings(clause: str) -> list[str]:
    """The variables a clause binds, in order: those of its receive pattern
    (its first line, when that ends in ``->``), then every ``Var = ...``
    match and every variable of a tuple match. ``_`` binds nothing."""
    head, _, body = clause.lstrip().partition("\n")
    if not head.endswith(" ->"):
        head, body = "", clause
    bound = re.findall(r"(?<![\w'])[A-Z_]\w*", re.sub(r"'[^']*'", "", head))
    for lhs in re.findall(r"^\s*(\{[A-Z_][\w, ]*\}|[A-Z_]\w*) = ", body, re.M):
        bound += lhs.strip("{}").split(", ")
    return [v for v in bound if v != "_"]


def _clauses(text: str):
    """(variables bound by the function head, clause) for every receive
    clause of a module's stage functions and for main/0's body."""
    for block in text.split("\n\n"):
        head = re.search(r"^\S.*\((.*)\) ->$", block, re.M)
        if head is None:
            continue
        params = re.findall(r"[A-Z_]\w*", head.group(1))
        body = block[head.end() + 1:]
        if body.startswith("    receive\n"):
            for clause in re.split(r"^(?=        \S)", body, flags=re.M)[1:]:
                yield params, clause
        elif head.group(0).startswith("main()"):
            yield params, body


@pytest.mark.parametrize("param, body, params_var", [
    ("size1", "size = size1 + 1; total = size; t = total;", "Size1_1"),
    ("stateVars1", "t = stateVars1 + 1; if (t > 2) { t = 0; } else { t = 1; }", "StateVars1_1"),
], ids=["local", "statevars"])
def test_a_parameter_and_a_fresh_variable_never_share_a_name(param, body, params_var):
    source = ("reactiveclass A { knownrebecs {} statevars { int t; }\n"
              "  msgsrv initial() { self.go(1); }\n"
              f"  msgsrv go(int {param}) {{ {body} }} }}\nmain {{ A a():(); }}")
    text = emit_files(source)["a.erl"]
    clause = text[text.index("{{From, SendTime, Deadline}, go"):]
    bound = _bindings(clause)
    assert bound[:4] == ["From", "SendTime", "Deadline", params_var]
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


def _class_model(params: str, body: str) -> str:
    return ("reactiveclass A { knownrebecs {} statevars {}\n"
            "  msgsrv initial() { self.go(1, 2); }\n"
            f"  msgsrv go({params}) {{ {body} }} }}\nmain {{ A a():(); }}")


# One model per way that spelling a variable from a Rebeca name could give
# two bindings one variable.
CLASHING_NAMES = {
    "parameters from and vFrom": _class_model("int from, int vFrom", ""),
    "parameters x and X": _class_model("int x, int X", ""),
    "parameter _": _class_model("int _, int y", "y = _ + 1;"),
    "local x1, then x": _class_model("int a, int b", "x1 = 0; " + "y = 1; " * 9 + "x = 1;"),
    "known rebecs and initializers": (
        "reactiveclass A { knownrebecs { A peer; A Peer; } statevars { int x; int X; }\n"
        "  msgsrv initial() {} }\nmain { A a(a, a):(1, 2); }"),
    "main instances a and A": (
        "reactiveclass B { knownrebecs {} statevars {} msgsrv initial() {} }\n"
        "main { B a():(); B A():(); }"),
}


@pytest.mark.parametrize("label", [*CLASHING_NAMES, "emitted corpus"])
def test_every_clause_binds_each_variable_once(label):
    if label == "emitted corpus":
        programs = [(label, files) for label, _, files in emitted_corpus()]
    else:
        programs = [(label, emit_files(CLASHING_NAMES[label]))]
    for label, files in programs:
        for fname, text in files.items():
            # The anonymous variable only discards now(); as a parameter it
            # would leave the body reading an unbound variable.
            assert len(re.findall(r"(?<![\w'])_(?![\w'])", text)) == \
                text.count("_ = now(),"), (label, fname)
            clauses = list(_clauses(text))
            if fname != "env.erl":  # main/0, or stage 1 and at least one initial
                assert len(clauses) >= (1 if fname == "main.erl" else 2), (label, fname)
            for params, clause in clauses:
                bound = params + _bindings(clause)
                assert len(bound) == len(set(bound)), (label, fname, bound)


def test_no_module_defines_a_function_twice():
    for label, _, files in emitted_corpus():
        for fname, text in files.items():
            defined = [(name, len(re.findall(r"[^, ]+", args))) for name, args in
                       re.findall(r"^([a-z'][\w']*)\(([^)]*)\) ->", text, re.M)]
            assert len(defined) == len(set(defined)), (label, fname, defined)
