import json
import os
from pathlib import Path

import pytest

import trebeca
from conftest import TICKET_ENV
from trebeca.cli import main

TICKET = str(trebeca.bundled("ticket_service.rebeca"))
TICKET_ENV_FILE = str(trebeca.bundled("ticket_service.env"))
ISSUED_MON = str(trebeca.bundled("ticket_issued.monitor"))
CHOICE = str(trebeca.bundled("choice_delay.rebeca"))
PING = str(trebeca.bundled("ping_pong.rebeca"))


def env_args(bindings=TICKET_ENV):
    out = []
    for name, value in bindings.items():
        out += ["--env", f"{name}={value}"]
    return out


def test_check_ok(capsys):
    assert main(["check", TICKET]) == 0


def test_check_reports_errors_with_positions(tmp_path, capsys):
    bad = tmp_path / "bad.rebeca"
    bad.write_text("reactiveclass A { knownrebecs {} statevars {}\n  msgsrv initial() { delay(; }\n}\nmain { A a():(); }")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.rebeca:2:" in err and "error:" in err


def test_check_missing_file_is_io_error():
    assert main(["check", "/no/such/file.rebeca"]) == 74


def test_run_requires_a_bound():
    assert main(["run", TICKET, *env_args()]) == 64


def test_run_missing_env_is_usage_error():
    assert main(["run", TICKET, "--horizon", "10"]) == 64


def test_run_writes_byte_identical_traces(tmp_path):
    out1, out2, out3 = (tmp_path / f"t{i}.jsonl" for i in range(3))
    for out in (out1, out2, out3):
        code = main(["run", TICKET, *env_args(), "--seed", "7",
                     "--horizon", "25", "--trace", str(out)])
        assert code == 0
    blobs = [p.read_bytes() for p in (out1, out2, out3)]
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0].splitlines()


def test_run_env_file(tmp_path):
    out = tmp_path / "t.jsonl"
    code = main(["run", TICKET, "--env-file", TICKET_ENV_FILE,
                 "--horizon", "10", "--trace", str(out)])
    assert code == 0 and out.exists()


def test_env_file_may_not_bind_a_name_twice(tmp_path, capsys):
    env_file = tmp_path / "e.env"
    env_file.write_text(Path(TICKET_ENV_FILE).read_text() + "serviceTime1=99\n")
    lineno = len(env_file.read_text().splitlines())
    assert main(["run", TICKET, "--env-file", str(env_file), "--horizon", "5"]) == 64
    assert capsys.readouterr().err == (
        f"trebeca: error: {env_file}:{lineno}: duplicate key 'serviceTime1'\n")
    # An --env flag still overrides the file, and a later flag an earlier one.
    assert main(["run", TICKET, "--env-file", TICKET_ENV_FILE, "--horizon", "5",
                 "--env", "serviceTime1=99", "--env", "serviceTime1=98"]) == 0


def test_run_monitor_pass_exit_zero(tmp_path):
    # scan a few seeds for one that issues the ticket
    for seed in range(3000):
        code = main(["run", TICKET, *env_args(), "--seed", str(seed),
                     "--horizon", "25", "--monitor", ISSUED_MON])
        if code == 0:
            return
    raise AssertionError("no seed issued a ticket")


def test_run_monitor_inconclusive_and_fail(capsys):
    env = dict(TICKET_ENV, checkIssuedPeriod=1)  # never-issued row
    code = main(["run", TICKET, *env_args(env), "--seed", "0",
                 "--horizon", "50", "--monitor", ISSUED_MON])
    assert code == 3  # EVENTUALLY unmet on a truncated run
    mon = trebeca.bundled("ticket_issued.monitor").parent / "ticket_issued.monitor"
    # with a WITHIN bound under the horizon the verdict is decided: fail
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".monitor", delete=False) as fh:
        fh.write("EVENTUALLY selected a.ticketIssued WITHIN 20\n")
        bounded = fh.name
    code = main(["run", TICKET, *env_args(env), "--seed", "0",
                 "--horizon", "50", "--monitor", bounded])
    assert code == 2
    os.unlink(bounded)


def test_run_json_output(capsys):
    code = main(["run", TICKET, *env_args(), "--seed", "0", "--horizon", "15",
                 "--monitor", ISSUED_MON, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["clauses"][0]["status"] in ("pass", "fail", "inconclusive")
    assert code in (0, 2, 3)


def test_run_reports_a_runtime_fault_in_one_line(tmp_path, capsys):
    model = tmp_path / "div.rebeca"
    model.write_text("reactiveclass A { knownrebecs {} statevars { int n; }\n"
                     "  msgsrv initial() { n = 1 / n; }\n}\nmain { A a():(); }\n")
    assert main(["run", str(model), "--max-steps", "5"]) == 1
    err = capsys.readouterr().err
    assert err == f"{model}: runtime error: a.initial at 2:28: division by zero\n"


def test_explore_choice_delay_two_terminals(tmp_path, capsys):
    graph = tmp_path / "g.json"
    dot = tmp_path / "g.dot"
    code = main(["explore", CHOICE, "--horizon", "10",
                 "--graph", str(graph), "--dot", str(dot)])
    assert code == 0
    err = capsys.readouterr().err
    assert "terminals=2" in err
    doc = json.loads(graph.read_text())
    assert len([n for n in doc["nodes"] if n["terminal"]]) == 2
    assert dot.read_text().startswith("digraph")


def test_explore_reports_each_runtime_fault(tmp_path, capsys):
    model = tmp_path / "overflow.rebeca"
    model.write_text("reactiveclass A { knownrebecs {} statevars {}\n"
                     "    msgsrv initial() { delay(9223372036854775807); self.go(); }\n"
                     "    msgsrv go() { delay(5); }\n}\nmain { A a():(); }\n")
    assert main(["explore", str(model), "--max-steps", "10"]) == 1
    err = capsys.readouterr().err
    assert err == ("explored states=2 edges=1 terminals=0 truncated=False errors=1\n"
                   f"{model}: runtime error: a.go at 3:19: logical time overflow\n")
    # Only the root faults: its error branch is the one path, undecided at the root.
    model = tmp_path / "div.rebeca"
    model.write_text("env int d;\nreactiveclass A { knownrebecs {} statevars { int x; }\n"
                     "  msgsrv initial() { x = 10 / d; }\n}\nmain { A a():(); }\n")
    monitor = tmp_path / "div.monitor"
    monitor.write_text("NEVER selected a.initial\n")
    assert main(["explore", str(model), "--env", "d=0", "--horizon", "5",
                 "--monitor", str(monitor)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("explored states=1 edges=0 terminals=0 truncated=False errors=1\n"
                            f"{model}: runtime error: a.initial at 3:29: division by zero\n")
    assert captured.out == "exists=INCONCLUSIVE forall=INCONCLUSIVE NEVER selected a.initial\n"


def test_explore_monitor_exit_codes():
    code = main(["explore", TICKET, *env_args(), "--horizon", "15",
                 "--monitor", ISSUED_MON])
    assert code in (2, 3)  # forall fails (some path never issues) or inconclusive


COIN_SRC = """reactiveclass Coin {
    knownrebecs {}
    statevars {}
    msgsrv initial() { if (?(0, 1) == 1) { self.heads(); } }
    msgsrv heads() {}
}
main { Coin c():(); }
"""

# work arrives at 2 with deadline 1: literal mode checks the receiver's idle
# clock (0) and serves it, effective mode checks the start time and purges it.
LATE_SRC = """reactiveclass Late {
    knownrebecs {}
    statevars {}
    msgsrv initial() { self.work() after(2) deadline(1); }
    msgsrv work() {}
}
main { Late l():(); }
"""


def write_model(tmp_path, name, source, clause):
    model, monitor = tmp_path / f"{name}.rebeca", tmp_path / f"{name}.monitor"
    model.write_text(source)
    monitor.write_text(clause + "\n")
    return str(model), str(monitor)


def test_explore_exit_on_exists(tmp_path):
    model, monitor = write_model(tmp_path, "coin", COIN_SRC, "EVENTUALLY selected c.heads")
    args = ["explore", model, "--max-steps", "5", "--monitor", monitor]
    assert main(args) == 2  # the tails path never selects heads
    assert main(args + ["--exit-on", "exists"]) == 0


def test_explore_json_verdicts(tmp_path, capsys):
    model, monitor = write_model(tmp_path, "coin", COIN_SRC, "EVENTUALLY selected c.heads")
    assert main(["explore", model, "--max-steps", "5", "--monitor", monitor, "--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"clauses": [
        {"clause": "EVENTUALLY selected c.heads", "exists": "pass", "forall": "fail"}]}


@pytest.mark.parametrize("command", ["run", "explore"])
def test_deadline_check_effective_changes_the_verdict(tmp_path, command):
    model, monitor = write_model(tmp_path, "late", LATE_SRC, "NEVER purged l.work")
    args = [command, model, "--max-steps", "5", "--monitor", monitor]
    assert main(args) == 0
    assert main(args + ["--deadline-check", "literal"]) == 0
    assert main(args + ["--deadline-check", "effective"]) == 2


def test_end_of_input_inside_main_exits_1(tmp_path, capsys):
    model = tmp_path / "cut.rebeca"
    model.write_text("main {")
    assert main(["check", str(model)]) == 1
    assert capsys.readouterr().err == f"{model}:1:7: error: unexpected end of input inside main\n"


def test_explore_requires_bound():
    assert main(["explore", CHOICE]) == 64


def test_sweep_three_rows(tmp_path):
    grid = (
        "horizon: 30\n"
        "requestDeadline: [2]\n"
        "checkIssuedPeriod: [1, 2]\n"
        "retryRequestPeriod: [1]\n"
        "newRequestPeriod: [1]\n"
        "serviceTime1: [3]\n"
        "serviceTime2: [7]\n"
    )
    written = []
    for name, seeds in (("in_order", "[0, 1, 2]"), ("out_of_order", "[2, 0, 1]")):
        spec = tmp_path / f"{name}.txt"
        spec.write_text(f"seeds: {seeds}\n" + grid)
        out = tmp_path / name
        code = main(["sweep", TICKET, str(spec), "--out", str(out),
                     "--monitor", ISSUED_MON])
        assert code == 0
        written.append({p.relative_to(out): p.read_bytes()
                        for p in out.rglob("*") if p.is_file()})
    out = tmp_path / "in_order"
    results = (out / "results.csv").read_text().strip().splitlines()
    assert len(results) == 1 + 2 * 3  # header + points x seeds
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2
    traces = sorted((out / "traces").iterdir())
    assert len(traces) == 6
    # rows and traces follow (point, seed), not the order the seeds are listed in
    assert written[0] == written[1]


def test_sweep_writes_a_faulting_run_as_a_row(tmp_path, capsys):
    model = tmp_path / "div.rebeca"
    model.write_text("env int d;\nreactiveclass A { knownrebecs {} statevars { int x; }\n"
                     "  msgsrv initial() { x = 10 / d; }\n}\nmain { A a():(); }\n")
    monitor = tmp_path / "m.monitor"
    monitor.write_text("EVENTUALLY selected a.initial\n")
    spec = tmp_path / "sweep.txt"
    spec.write_text("seeds: [0]\nhorizon: 5\nd: [1, 0, 2]\n")
    out = tmp_path / "out"
    code = main(["sweep", str(model), str(spec), "--out", str(out),
                 "--monitor", str(monitor)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == ("sweep: 3 parameter point(s) x 1 seed(s) = 3 run(s)\n"
                   f"{model}: runtime error: a.initial at 3:29: division by zero\n"
                   f"wrote 3 run(s) under {out}\n")
    results = (out / "results.csv").read_text().splitlines()
    assert results[1:] == [
        "0,1,0,empty-bag,pass,traces/point0000_seed0000.jsonl",
        "1,0,0,runtime-error,,",
        "2,2,0,empty-bag,pass,traces/point0002_seed0000.jsonl",
    ]
    assert sorted(p.name for p in (out / "traces").iterdir()) == [
        "point0000_seed0000.jsonl", "point0002_seed0000.jsonl"]
    assert (out / "summary.csv").read_text().splitlines() == [
        "point,d,seeds,runtime_errors,EVENTUALLY selected a.initial [pass/fail/inconclusive]",
        "0,1,1,0,1/0/0", "1,0,1,1,0/0/0", "2,2,1,0,1/0/0"]


def test_sweep_cap_refusal(tmp_path):
    spec = tmp_path / "sweep.txt"
    spec.write_text("seeds: [0, 1]\nhorizon: 10\nrequestDeadline: [1, 2]\n"
                    "checkIssuedPeriod: [1, 2]\nretryRequestPeriod: [1]\n"
                    "newRequestPeriod: [1]\nserviceTime1: [3]\nserviceTime2: [7]\n")
    out = tmp_path / "out"
    assert main(["sweep", TICKET, str(spec), "--out", str(out), "--cap", "3"]) == 64
    assert main(["sweep", TICKET, str(spec), "--out", str(out), "--cap", "3",
                 "--force"]) == 0


@pytest.mark.parametrize("line, message", [
    ("horizon: abc", "horizon must be an integer, got 'abc'"),
    ("max_steps: 1.5", "max_steps must be an integer, got '1.5'"),
    ("seeds: x", "seeds must be an integer, got 'x'"),
    ("seeds: 0", "seeds: N needs N >= 1, got 0"),
    ("seeds: [1, 1]", "seeds must be distinct, got [1, 1]"),
    ("seeds: [0, true]", "a seed must be an integer, got 'true'"),
    ("seeds: [0, -1]", "seeds must be non-negative, got [0, -1]"),
    ("requestDeadline: [3, 4]", "duplicate key 'requestDeadline'"),
    ("horizon: -4", "horizon must be non-negative, got -4"),
    ("max_steps: -1", "max_steps must be non-negative, got -1"),
    ("horizon: 1_0", "horizon must be an integer, got '1_0'"),
    ("seeds: \u0663", "seeds must be an integer, got '\u0663'"),
    ("serviceTime1: []", "empty value list for 'serviceTime1'"),
    ("serviceTime1: [2,,3]", "empty item in the value list for 'serviceTime1', got [2,,3]"),
    ("serviceTime1: [2,]", "empty item in the value list for 'serviceTime1', got [2,]"),
    ("serviceTime1: [ , 2]", "empty item in the value list for 'serviceTime1', got [ , 2]"),
    ("seeds: [0, 1,,]", "empty item in the value list for 'seeds', got [0, 1,,]"),
], ids=["horizon", "max-steps", "seed-count", "zero-seeds", "duplicate-seeds", "bool-seed",
        "negative-seed", "duplicate-key", "negative-horizon", "negative-max-steps",
        "underscored-horizon", "arabic-indic-seed-count", "empty-list", "empty-middle-item",
        "empty-last-item", "empty-first-item", "empty-seed-item"])
def test_sweep_spec_scalar_errors_are_positioned(tmp_path, capsys, line, message):
    spec = tmp_path / "sweep.txt"
    spec.write_text(f"requestDeadline: [2]\n{line}\n")
    out = tmp_path / "out"
    assert main(["sweep", TICKET, str(spec), "--out", str(out), "--horizon", "5"]) == 64
    assert capsys.readouterr().err == f"trebeca: error: {spec}:2: {message}\n"
    assert not out.exists()


def test_sweep_unknown_env_name_is_positioned(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("horizon: 5\nrequestDeadline: [2]\nbogus: [1]\n")
    out = tmp_path / "out"
    assert main(["sweep", TICKET, str(spec), "--out", str(out)]) == 64
    assert capsys.readouterr().err.endswith(
        f"trebeca: error: {spec}:3: unknown env variable 'bogus'\n")
    assert not out.exists()


def test_sweep_mistyped_env_value_is_positioned(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("horizon: 5\nrequestDeadline: [2]\nserviceTime1: [3, true]\n")
    out = tmp_path / "out"
    assert main(["sweep", TICKET, str(spec), "--out", str(out)]) == 64
    assert capsys.readouterr().err.endswith(
        f"trebeca: error: {spec}:3: env variable 'serviceTime1' must be an integer\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", PING, "--horizon", "-3"], "horizon must be non-negative, got -3"),
    (["run", PING, "--max-steps", "-1"], "max-steps must be non-negative, got -1"),
    (["explore", PING, "--max-states", "-1"], "max-states must be non-negative, got -1"),
    (["explore", PING, "--horizon", "4", "--max-steps", "-2"],
     "max-steps must be non-negative, got -2"),
    (["sweep", PING, "SPEC", "--out", "OUT", "--horizon", "-4"],
     "horizon must be non-negative, got -4"),
], ids=["run-horizon", "run-max-steps", "explore-max-states", "explore-max-steps",
        "sweep-horizon"])
def test_a_negative_bound_is_a_usage_error(tmp_path, capsys, argv, message):
    spec = tmp_path / "sweep.txt"
    spec.write_text("unused: [0]\n")
    out = tmp_path / "out"
    argv = [{"SPEC": str(spec), "OUT": str(out)}.get(a, a) for a in argv]
    assert main(argv) == 64
    assert capsys.readouterr().err.endswith(f"trebeca: error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, text", [
    (["sweep", TICKET, "FILE", "--out", "OUT"], "horizon: 5\nrequestDeadline: [2, x]\n"),
    (["run", TICKET, "--env-file", "FILE", "--horizon", "5"],
     "requestDeadline=2\ncheckIssuedPeriod=x\n"),
], ids=["sweep-list", "env-file"])
def test_env_value_errors_are_positioned(tmp_path, capsys, argv, text):
    path = tmp_path / "values.txt"
    path.write_text(text)
    out = tmp_path / "out"
    argv = [{"FILE": str(path), "OUT": str(out)}.get(a, a) for a in argv]
    assert main(argv) == 64
    assert capsys.readouterr().err == (
        f"trebeca: error: {path}:2: env values must be integers or true/false, got 'x'\n")
    assert not out.exists()


def test_sweep_writes_each_run_before_the_next_starts(tmp_path, monkeypatch):
    spec = tmp_path / "sweep.txt"
    spec.write_text("seeds: [1, 0]\nhorizon: 10\nrequestDeadline: [2]\n"
                    "checkIssuedPeriod: [1, 2]\nretryRequestPeriod: [1]\n"
                    "newRequestPeriod: [1]\nserviceTime1: [3]\nserviceTime2: [7]\n")
    out = tmp_path / "out"
    started = []

    def run_after_the_last_trace_is_written(checked, env, seed, policy):
        written = sorted(p.name for p in (out / "traces").glob("*.jsonl"))
        assert written == [f"point{i:04d}_seed{s:04d}.jsonl" for i, s in started]
        started.append((env["checkIssuedPeriod"] - 1, seed))
        return real_run(checked, env, seed, policy)

    real_run = trebeca.cli.run
    monkeypatch.setattr(trebeca.cli, "run", run_after_the_last_trace_is_written)
    assert main(["sweep", TICKET, str(spec), "--out", str(out)]) == 0
    assert started == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_sweep_empty_spec_is_usage_error(tmp_path):
    spec = tmp_path / "empty.txt"
    spec.write_text("requestDeadline: []\n")
    assert main(["sweep", TICKET, str(spec), "--out", str(tmp_path / "o")]) == 64


def test_explore_max_states_cuts_the_graph(tmp_path, capsys):
    graph = tmp_path / "g.json"
    assert main(["explore", TICKET, *env_args(), "--max-states", "20",
                 "--graph", str(graph)]) == 0
    assert capsys.readouterr().err.startswith("explored states=20 ")
    doc = json.loads(graph.read_text())
    assert doc["truncated"] is True
    assert doc["bounds"] == {"horizon": None, "max_steps": None, "max_states": 20}
    assert len(doc["nodes"]) == 20
    assert any(n["terminal"] == "truncated" for n in doc["nodes"])


# work arrives at w with deadline 1, as in LATE_SRC, with w an env variable
LATE_ENV_SRC = LATE_SRC.replace("reactiveclass", "env int w;\nreactiveclass", 1).replace(
    "after(2)", "after(w)")


@pytest.mark.parametrize("check, status", [("literal", "pass"), ("effective", "fail")])
def test_sweep_spec_scalar_keys(tmp_path, check, status):
    model, monitor = write_model(tmp_path, "late", LATE_ENV_SRC, "NEVER purged l.work")
    spec = tmp_path / "sweep.txt"
    spec.write_text(f"seeds: 3\nmax_steps: 1\ndeadline_check: {check}\nw: [2]\n")
    out = tmp_path / "out"
    # the spec's max_steps: 1 overrides --max-steps 5, under which the run ends on its own
    assert main(["sweep", model, str(spec), "--out", str(out), "--monitor", monitor,
                 "--max-steps", "5"]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:5] for row in rows] == [
        ["0", "2", str(seed), "max-steps", "pass"] for seed in range(3)]
    spec.write_text(f"seeds: 3\ndeadline_check: {check}\nw: [2]\n")
    assert main(["sweep", model, str(spec), "--out", str(out), "--monitor", monitor,
                 "--horizon", "10"]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    end = "empty-bag" if check == "literal" else "all-expired"
    assert [row.split(",")[:5] for row in rows] == [
        ["0", "2", str(seed), end, status] for seed in range(3)]


@pytest.mark.parametrize("argv, message", [
    (["run", TICKET, *env_args({**TICKET_ENV, "serviceTime1": "1_0"}), "--horizon", "5"],
     "trebeca: error: env values must be integers or true/false, got '1_0'"),
    (["sweep", TICKET, "SPEC", "--out", "OUT", "--horizon", "5"],
     "trebeca: error: SPEC:2: env values must be integers or true/false, got '+4'"),
    (["run", TICKET, *env_args(), "--horizon", "\u0663"],
     "trebeca run: error: argument --horizon: invalid int value: '\u0663'"),
    (["explore", TICKET, *env_args(), "--max-states", "1_0"],
     "trebeca explore: error: argument --max-states: invalid int value: '1_0'"),
], ids=["env-underscore", "sweep-plus-sign", "horizon-arabic-indic", "max-states-underscore"])
def test_integers_from_outside_use_the_language_spelling(tmp_path, capsys, argv, message):
    # Python's int() reads all four; the tokenizer reads none of them.
    spec = tmp_path / "sweep.txt"
    spec.write_text("requestDeadline: [2]\nserviceTime1: [+4]\n")
    out = tmp_path / "out"
    argv = [{"SPEC": str(spec), "OUT": str(out)}.get(a, a) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag value itself
        code = exc.code
    assert code == 64
    assert capsys.readouterr().err.splitlines()[-1] == message.replace("SPEC", str(spec))
    assert not out.exists()


def test_sweep_unknown_deadline_check_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "sweep.txt"
    spec.write_text("horizon: 5\ndeadline_check: eventual\nrequestDeadline: [2]\n")
    assert main(["sweep", TICKET, str(spec), "--out", str(tmp_path / "o")]) == 64
    assert capsys.readouterr().err.endswith(
        f"trebeca: error: {spec}:2: unknown deadline_check 'eventual'\n")


def test_bundled_sweep_file_parses():
    from trebeca.cli import parse_sweep_spec

    path = trebeca.bundled("ticket_sweep.txt")
    spec = parse_sweep_spec(path.read_text(), str(path))
    assert len(spec.points()) == 4
    assert len(spec.seeds) == 10
    assert spec.horizon == 50


def test_emit_writes_files(tmp_path, capsys):
    out = tmp_path / "erl"
    assert main(["emit", TICKET, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 4
    assert (out / "agent.erl").exists()


def test_emit_new_is_unsupported(tmp_path):
    src = tmp_path / "dyn.rebeca"
    src.write_text("""
    reactiveclass A {
        knownrebecs {}
        statevars {}
        msgsrv initial() { r = new B(); }
    }
    reactiveclass B { knownrebecs {} statevars {} msgsrv initial() {} }
    main { A a():(); B b():(); }
    """)
    assert main(["emit", str(src), "--out", str(tmp_path / "o")]) == 4


def test_emit_to_unwritable_dir(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    assert main(["emit", TICKET, "--out", str(blocked / "sub")]) == 74


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus-flag"])
    assert exc.value.code == 64
