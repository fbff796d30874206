"""Erlang source emission.

Every reactive class becomes a module whose process walks three stages:
wait for the known-rebec references, serve the initial message, then loop
serving messages. Message sends become ``!`` expressions tagged with
``{Sender, SendTime, Deadline}``; a send with an ``after`` offset binds its
computed arguments, its deadline and its own ``Sender_N = self()`` right
before it spawns a helper that sleeps in an empty receive and then sends
them as ``Sender_N``; ``delay(t)`` becomes an empty
receive with a timeout. Every variable spelled from a Rebeca name is the
name capitalized, then ``_``, then a number that no other variable of its
module has, so no clause binds a variable twice. The emitted text is
validated by golden files and a structural scan, not by compiling it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from .interp import DEFAULTS
from .model import (
    Assign,
    BoolLit,
    ChoiceExpr,
    DelayStmt,
    Expr,
    IfStmt,
    IntLit,
    MethodDef,
    NowExpr,
    NowStmt,
    SelfExpr,
    SendStmt,
    SenderExpr,
    Stmt,
    UnaryOp,
    VarRef,
    canon_value,
)
from .parser import CheckedModel, ClassInfo, MethodInfo


class UnsupportedFeatureError(Exception):
    """The model uses a construct outside the emitted fragment."""

    def __init__(self, feature: str, pos=None):
        self.feature = feature
        self.pos = pos
        where = f" at {pos[0]}:{pos[1]}" if pos else ""
        super().__init__(f"unsupported feature for emission: {feature}{where}")


@dataclass
class EmittedProgram:
    files: dict[str, str]  # filename -> source text, stable order

    def write_to(self, directory) -> list[Path]:
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        written = []
        for name, text in self.files.items():
            path = root / name
            path.write_text(text, encoding="utf-8")
            written.append(path)
        return written


# Erlang's reserved words, which an atom spelled like one must quote.
_RESERVED = frozenset("""after and andalso band begin bnot bor bsl bsr bxor case catch cond
    div else end fun if let maybe not of or orelse receive rem try when xor""".split())
_BARE_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*")


def _atom(name: str) -> str:
    """The Erlang atom of a Rebeca name: bare when it reads as a lower-case
    atom that is no reserved word, else quoted. An identifier holds no quote
    or backslash, so quoting needs no escapes."""
    if _BARE_ATOM.fullmatch(name) and name not in _RESERVED:
        return name
    return f"'{name}'"


def _var(name: str, number: int) -> str:
    """The variable of a Rebeca name: capitalized, then ``_`` and a number
    that no other variable of the module has. No fixed variable (``From``,
    ``StateVars``, ...) ends in ``_`` and digits."""
    return f"{name[:1].upper()}{name[1:]}_{number}"


_BINOPS = {
    "&&": "andalso", "||": "orelse", "==": "=:=", "!=": "=/=",
    "%": "rem", "/": "div", "+": "+", "-": "-", "*": "*",
    "<": "<", "<=": "=<", ">": ">", ">=": ">=",
}


# The scope key of the Erlang variable that holds the state-variable record;
# it sorts before every identifier.
_STATEVARS = "$statevars"


# Logical time in the emitted code is Erlang's monotonic clock in
# milliseconds, the unit of ``receive after``. Every module that calls
# ``now()`` defines it, in place of the auto-imported ``erlang:now/0``,
# which returns a tuple.
_CALLS_NOW = re.compile(r"(?<![\w:])now\(\)")
_NOW_ATTRIBUTE = "-compile({no_auto_import, [now/0]})."
_NOW_DEFINITION = "now() -> erlang:monotonic_time(millisecond)."


def _module_text(lines: list[str]) -> str:
    """A module's text from its lines, which start with ``-module`` and
    ``-export``, with the clock added when the module calls ``now()``."""
    text = "\n".join(lines) + "\n"
    if _CALLS_NOW.search(text) is None:
        return text
    return "\n".join(lines[:2] + [_NOW_ATTRIBUTE] + lines[2:] + ["", _NOW_DEFINITION]) + "\n"


def _env(name: str) -> str:
    return f"env:{_atom(name)}()"


def _joined(names: list[str]) -> str:
    return names[0] if len(names) == 1 else "{" + ", ".join(names) + "}"


def _expr(e: Expr, ref: Callable[[str], str]) -> str:
    """The Erlang text of ``e``; ``ref`` gives the text of a name."""
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, NowExpr):
        return "now()"
    if isinstance(e, SelfExpr):
        return "self()"
    if isinstance(e, SenderExpr):
        return "From"
    if isinstance(e, VarRef):
        return ref(e.name)
    if isinstance(e, ChoiceExpr):
        # A case runs only the alternative drawn; a list would run them all.
        options = "; ".join(f"{i} -> {_expr(o, ref)}" for i, o in enumerate(e.options, 1))
        return f"(case rand:uniform({len(e.options)}) of {options} end)"
    if isinstance(e, UnaryOp):
        inner = _expr(e.operand, ref)
        return f"(not {inner})" if e.op == "!" else f"(-{inner})"
    # A BinaryOp: the parser builds no other expression node.
    return f"({_expr(e.left, ref)} {_BINOPS[e.op]} {_expr(e.right, ref)})"


class _ClassEmitter:
    def __init__(self, info: ClassInfo):
        self.info = info
        self.cls = info.definition
        name = self.cls.name
        self.module = _atom(name.lower())
        self.knownrebecs = _atom(f"{name.lower()}_knownrebecs")  # the record names
        self.statevars = _atom(f"{name.lower()}_statevars")
        self.fun = _atom(name[0].lower() + name[1:])  # the stage functions
        self.counter = 0
        self.lines: list[str] = []

    def fresh(self, name: str) -> str:
        """A variable for ``name`` that no other of the module has."""
        self.counter += 1
        return _var(name, self.counter)

    # -- expressions -------------------------------------------------------
    # A scope maps each local to the Erlang variable that holds it now, and
    # _STATEVARS to the variable that holds the state-variable record.

    def expr(self, e: Expr, scope: dict[str, str]) -> str:
        return _expr(e, lambda name: self.ref(name, scope))

    def ref(self, name: str, scope: dict[str, str]) -> str:
        if name in scope:
            return scope[name]
        if name in self.info.state_types:
            return f"{scope[_STATEVARS]}#{self.statevars}.{_atom(name)}"
        if name in self.info.known_types:
            return f"KnownRebecs#{self.knownrebecs}.{_atom(name)}"
        return _env(name)  # the checker rejects any other name

    # -- statements ----------------------------------------------------------

    def stmt(self, s: Stmt, scope: dict[str, str], indent: str) -> None:
        if isinstance(s, Assign):
            value = self.expr(s.value, scope)
            if s.name in self.info.state_types:
                nxt = self.fresh("StateVars")
                self.lines.append(
                    f"{indent}{nxt} = {scope[_STATEVARS]}"
                    f"#{self.statevars}{{{_atom(s.name)} = {value}}},")
                scope[_STATEVARS] = nxt
            else:
                nxt = scope[s.name] = self.fresh(s.name)
                self.lines.append(f"{indent}{nxt} = {value},")
        elif isinstance(s, DelayStmt):
            self.lines.append(f"{indent}receive after {self.expr(s.amount, scope)} -> ok end,")
        elif isinstance(s, NowStmt):
            self.lines.append(f"{indent}_ = now(),")
        elif isinstance(s, SendStmt):
            self.send(s, scope, indent)
        else:  # emit refuses every model with a new
            self.if_stmt(s, scope, indent)

    def send(self, s: SendStmt, scope: dict[str, str], indent: str) -> None:
        target = "self()" if s.target == "self" else self.ref(s.target, scope)
        tag = _atom(s.method)
        if s.after is None:
            args = "".join(f", {self.expr(a, scope)}" for a in s.args)
            dl = "inf" if s.deadline is None else f"now() + {self.expr(s.deadline, scope)}"
            self.lines.append(f"{indent}{target} ! {{{{self(), now(), {dl}}}, {tag}{args}}},")
            return
        # The simulator fixes a send's arguments and deadline when the send
        # statement runs, so they are bound here, not computed in the helper
        # after its sleep.
        args = "".join([f", {self.at_send(a, 'Arg', scope, indent)}" for a in s.args])
        dl = "inf"
        if s.deadline is not None:
            dl = self.fresh("Deadline")
            self.lines.append(f"{indent}{dl} = now() + {self.expr(s.deadline, scope)},")
        after = self.at_send(s.after, "After", scope, indent)
        # Inside the spawned helper self() is the helper, not the rebec.
        sender = self.fresh("Sender")
        if s.target == "self":
            target = sender
        self.lines.append(f"{indent}{sender} = self(),")
        self.lines.append(f"{indent}spawn(fun() ->")
        self.lines.append(f"{indent}    receive after {after} ->")
        self.lines.append(f"{indent}        {target} ! {{{{{sender}, now(), {dl}}}, {tag}{args}}}")
        self.lines.append(f"{indent}    end")
        self.lines.append(f"{indent}end),")

    def at_send(self, e: Expr, name: str, scope: dict[str, str], indent: str) -> str:
        """The text of ``e`` for a spawned helper to read: a literal or a
        name reads the same there, any other expression is bound to a fresh
        variable here (``now()``, ``?(...)`` and ``self()`` would not)."""
        text = self.expr(e, scope)
        if isinstance(e, (IntLit, BoolLit, VarRef, SenderExpr)):
            return text
        var = self.fresh(name)
        self.lines.append(f"{indent}{var} = {text},")
        return var

    def if_stmt(self, s: IfStmt, scope: dict[str, str], indent: str) -> None:
        cond = self.expr(s.cond, scope)
        then_scope, else_scope = dict(scope), dict(scope)
        inner = indent + "        "
        then_lines = self.body_lines(s.then_body, then_scope, inner)
        else_lines = self.body_lines(s.else_body or [], else_scope, inner)
        # The case returns every binding that a branch changed and that exists
        # after it: one made before the if, or one that both branches made.
        # Fresh names never repeat, so a changed binding differs from the
        # parent's.
        threaded = sorted(name for name in then_scope.keys() & else_scope.keys()
                          if then_scope[name] != scope.get(name)
                          or else_scope[name] != scope.get(name))
        if threaded:
            joins = [self.fresh("StateVars" if name == _STATEVARS else name)
                     for name in threaded]
            head = f"{_joined(joins)} = "
            ret_then = _joined([then_scope[name] for name in threaded])
            ret_else = _joined([else_scope[name] for name in threaded])
            scope.update(zip(threaded, joins))
        else:
            head, ret_then, ret_else = "", "ok", "ok"
        self.lines.append(f"{indent}{head}case {cond} of")
        self.lines.append(f"{indent}    true ->")
        self.lines.extend(then_lines)
        self.lines.append(f"{indent}        {ret_then};")
        self.lines.append(f"{indent}    false ->")
        self.lines.extend(else_lines)
        self.lines.append(f"{indent}        {ret_else}")
        self.lines.append(f"{indent}end,")

    def body_lines(self, body: list[Stmt], scope: dict[str, str], indent: str) -> list[str]:
        """The lines of ``body`` emitted into ``scope``, apart from the lines
        being built."""
        saved, self.lines = self.lines, []
        for stmt in body:
            self.stmt(stmt, scope, indent)
        lines, self.lines = self.lines, saved
        return lines

    # -- methods and stages ---------------------------------------------------

    def emit_module(self, init_arities: list[int]) -> str:
        cls, module, fun = self.cls, self.module, self.fun
        out = self.lines = []
        out.append(f"-module({module}).")
        out.append("-export([start/0]).")
        out.append("")
        known_fields = ", ".join(_atom(d.name) for d in cls.known_decls)
        out.append(f"-record({self.knownrebecs}, {{{known_fields}}}).")
        state_fields = ", ".join(f"{_atom(name)} = {canon_value(DEFAULTS[t])}"
                                 for name, t in self.info.state_types.items())
        out.append(f"-record({self.statevars}, {{{state_fields}}}).")
        out.append("")
        out.append("start() ->")
        out.append(f"    spawn(fun {fun}/0).")
        out.append("")
        out.append("%% Stage 1: wait for references to the known rebecs.")
        out.append(f"{fun}() ->")
        out.append("    receive")
        known = [(_atom(d.name), self.fresh(d.name)) for d in cls.known_decls]
        pattern = "{" + ", ".join(var for _, var in known) + "}"
        fields = ", ".join(f"{field} = {var}" for field, var in known)
        out.append(f"        {pattern} ->")
        out.append(f"            {fun}(#{self.knownrebecs}{{{fields}}})")
        out.append("    end.")
        out.append("")
        out.append("%% Stage 2: serve the initial message, then enter the serve loop.")
        out.append(f"{fun}(KnownRebecs) ->")
        out.append("    receive")
        initial = self.info.methods.get("initial")
        matches = [self.initial_match(initial, arity) for arity in init_arities or [0]]
        out.extend(";\n".join(matches).split("\n"))
        out.append("    end.")
        out.append("")
        out.append("%% Stage 3: serve messages forever.")
        out.append(f"{fun}(KnownRebecs, StateVars) ->")
        out.append("    receive")
        serve = [m for m in cls.methods if m.name != "initial"]
        if not serve:
            # Keep the loop alive even when initial is the only server.
            out.append("        _Ignored ->")
            out.append(f"            {fun}(KnownRebecs, StateVars)")
        else:
            blocks = [self.serve_match(m) for m in serve]
            out.extend(";\n".join(blocks).split("\n"))
        out.append("    end.")
        return _module_text(out)

    def initial_match(self, initial: Optional[MethodInfo], arity: int) -> str:
        fun = self.fun
        inits = [(_atom(d.name), self.fresh(d.name)) for d in self.cls.state_decls[:arity]]
        extra = "".join(f", {var}" for _, var in inits)
        lines = [f"        {{{{From, SendTime, Deadline}}, initial{extra}}} ->"]
        record_fields = ", ".join(f"{field} = {var}" for field, var in inits)
        lines.append(f"            StateVars = #{self.statevars}{{{record_fields}}},")
        scope = {_STATEVARS: "StateVars"}
        if initial is not None:  # main's rebecs take a parameterless initial
            lines.extend(self.body_lines(initial.definition.body, scope, "            "))
        lines.append(f"            {fun}(KnownRebecs, {scope[_STATEVARS]})")
        return "\n".join(lines)

    def serve_match(self, method: MethodDef) -> str:
        fun = self.fun
        scope = {p.name: self.fresh(p.name) for p in method.params}
        params = "".join(f", {scope[p.name]}" for p in method.params)
        lines = [f"        {{{{From, SendTime, Deadline}}, {_atom(method.name)}{params}}} ->"]
        lines.append("            %% The deadline is checked right before the body runs;")
        lines.append("            %% an expired message is purged unserved.")
        lines.append("            case (Deadline =:= inf) orelse (now() =< Deadline) of")
        lines.append("                false ->")
        lines.append(f"                    {fun}(KnownRebecs, StateVars);")
        lines.append("                true ->")
        scope[_STATEVARS] = "StateVars"
        lines.extend(self.body_lines(method.body, scope, "                    "))
        lines.append(f"                    {fun}(KnownRebecs, {scope[_STATEVARS]})")
        lines.append("            end")
        return "\n".join(lines)


def emit(checked: CheckedModel) -> EmittedProgram:
    """Translate a checked model to Erlang source files, one per class plus
    a bootstrap module (and an env module when the model has parameters)."""
    if checked.new_targets:  # reported at the first new in the source
        raise UnsupportedFeatureError("new (rebec creation)",
                                      next(iter(checked.new_targets.values())))
    files: dict[str, str] = {}
    # A class's module file may not overwrite another module's, nor replace
    # a standard module that the node or emitted code calls; its stage
    # functions may not take the name of start/0 or now/0.
    taken = {"main.erl", "lists.erl", "rand.erl", "erlang.erl"}
    if checked.model.env_decls:
        taken.add("env.erl")
    for cls in checked.model.classes:
        fname = f"{cls.name.lower()}.erl"
        if fname in taken or fname in files:
            raise UnsupportedFeatureError(f"class {cls.name!r}, whose module file {fname}"
                                          " is already taken", cls.pos)
        emitter = _ClassEmitter(checked.classes[cls.name])
        if emitter.fun in ("start", "now"):
            raise UnsupportedFeatureError(f"class {cls.name!r}, whose stage functions would"
                                          f" clash with {emitter.fun}/0", cls.pos)
        arities = sorted({len(inst.init_args) for inst in checked.model.main
                          if inst.class_name == cls.name})
        files[fname] = emitter.emit_module(arities)

    if checked.model.env_decls:
        files["env.erl"] = _emit_env(checked)
    files["main.erl"] = _emit_main(checked)
    return EmittedProgram(files=files)


def _emit_env(checked: CheckedModel) -> str:
    out = ["-module(env)."]
    out.append("-export([" + ", ".join(f"{_atom(n)}/0" for n in checked.env_types) + "]).")
    out.append("")
    out.append("%% Model parameters: set the values before running a simulation.")
    for name, t in checked.env_types.items():
        out.append(f"{_atom(name)}() -> {canon_value(DEFAULTS[t])}.")
    return "\n".join(out) + "\n"


def _emit_main(checked: CheckedModel) -> str:
    out = ["-module(main).", "-export([main/0])."]
    out.append("")
    out.append("%% Spawn every rebec, wire the known rebecs, kick off the initial")
    out.append("%% messages.")
    out.append("main() ->")
    insts = checked.model.main
    var = {inst.name: _var(inst.name, i) for i, inst in enumerate(insts, 1)}
    for inst in insts:
        out.append(f"    {var[inst.name]} = {_atom(inst.class_name.lower())}:start(),")
    for inst in insts:
        knowns = ", ".join(var[a] for a in inst.known_args)
        out.append(f"    {var[inst.name]} ! {{{knowns}}},")
    for inst in insts:  # each initializer is a literal or an env variable
        args = "".join(f", {_expr(a, _env)}" for a in inst.init_args)
        out.append(f"    {var[inst.name]} ! {{{{main, now(), inf}}, initial{args}}},")
    out.append("    ok.")
    return _module_text(out)
