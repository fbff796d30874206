"""The nesting bound: a model nested exactly ``MAX_NESTING`` levels deep
goes through every stage, and one level more is a positioned error instead
of a ``RecursionError``."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trebeca.cli import main
from trebeca.erlgen import emit
from trebeca.explorer import ExploreBounds, explore
from trebeca.model import pretty_print
from trebeca.parser import MAX_NESTING, ParseError, SourceError, load_model, parse_model
from trebeca.scheduler import SchedulePolicy, run

SRC = Path(__file__).resolve().parent.parent / "src"


def model_with(stmt: str) -> str:
    return ("reactiveclass A { knownrebecs {} statevars { int x; }\n"
            f"  msgsrv initial() {{ {stmt} self.tick() after(1); }}\n"
            "  msgsrv tick() { x = x + 1; }\n}\nmain { A a():(); }\n")


# shape -> (the statement nested n levels deep, the lexeme that opens a level)
SHAPES = {
    "parentheses": (lambda n: "x = " + "(" * n + "1" + ")" * n + ";", "("),
    "choices": (lambda n: "x = " + "?(1, " * n + "2" + ")" * n + ";", "?"),
    "ifs": (lambda n: "if (true) { " * n + "x = 1;" + " }" * n, "if"),
    "sum": (lambda n: "x = 1" + " + 1" * n + ";", "+"),
    "unary-minus": (lambda n: "x = " + "-" * n + "1;", "-"),
}


def crossing_pos(shape: str) -> tuple[int, int]:
    """Where the statement nested one level past the bound crosses it: at
    its lexeme number ``MAX_NESTING + 1``."""
    build, lexeme = SHAPES[shape]
    stmt = build(MAX_NESTING + 1)
    offset = -1
    for _ in range(MAX_NESTING + 1):
        offset = stmt.index(lexeme, offset + 1)
    line = model_with(stmt).splitlines()[1]
    return 2, line.index(stmt) + offset + 1


@pytest.mark.parametrize("shape", SHAPES)
def test_a_model_at_the_bound_goes_through_every_stage(shape):
    checked = load_model(model_with(SHAPES[shape][0](MAX_NESTING)))
    trace = run(checked, {}, 0, SchedulePolicy(horizon=3))
    assert [ev.kind for ev in trace.events].count("msg_selected") == 2  # initial, tick
    assert explore(checked, {}, ExploreBounds(horizon=3)).nodes
    assert parse_model(pretty_print(checked.model)) == checked.model
    assert "a.erl" in emit(checked).files


@pytest.mark.parametrize("shape", SHAPES)
def test_one_level_past_the_bound_is_a_positioned_error(shape):
    with pytest.raises(SourceError) as exc:
        load_model(model_with(SHAPES[shape][0](MAX_NESTING + 1)))
    assert exc.value.errors == [
        ParseError(crossing_pos(shape), f"nesting deeper than {MAX_NESTING} levels")]


@pytest.mark.parametrize("shape", SHAPES)
def test_check_reports_too_deep_nesting(shape, tmp_path, capsys):
    path = tmp_path / "deep.rebeca"
    path.write_text(model_with(SHAPES[shape][0](MAX_NESTING + 1)))
    assert main(["check", str(path)]) == 1
    line, col = crossing_pos(shape)
    assert capsys.readouterr().err == (
        f"{path}:{line}:{col}: error: nesting deeper than {MAX_NESTING} levels\n")


def test_check_on_500_nested_parentheses_prints_no_traceback(tmp_path):
    path = tmp_path / "deep.rebeca"
    path.write_text("reactiveclass A { knownrebecs {} statevars { int x; }"
                    " msgsrv initial() { x = " + "(" * 500 + "1" + ")" * 500 + "; } }"
                    " main { A a():(); }\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "trebeca", "check", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert f"{path}:1:" in proc.stderr and "Traceback" not in proc.stderr


def test_levels_add_up_across_shapes():
    # An if, parentheses and a chain of 48 inside them, then a chain of k
    # outside: 1 + 1 + 48 + k levels.
    def source(k):
        inner = "(1" + " + 1" * 48 + ")"
        return model_with("if (true) { x = " + inner + " * 2" * k + "; }")

    load_model(source(MAX_NESTING - 50))
    with pytest.raises(SourceError) as exc:
        load_model(source(MAX_NESTING - 49))
    stmt_line = source(MAX_NESTING - 49).splitlines()[1]
    assert exc.value.errors == [ParseError((2, stmt_line.rindex("*") + 1),
                                           f"nesting deeper than {MAX_NESTING} levels")]
