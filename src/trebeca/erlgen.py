"""Erlang source emission.

Every reactive class becomes a module whose process walks three stages:
wait for the known-rebec references, serve the initial message, then loop
serving messages. Message sends become ``!`` expressions tagged with
``{Sender, SendTime, Deadline}``; sends with an ``after`` offset spawn a
helper that sleeps in an empty receive before sending; ``delay(t)``
becomes an empty receive with a timeout. The emitted text is validated by
golden files and a structural scan, not by compiling it.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .model import (
    Assign,
    BinaryOp,
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
)
from .parser import CheckedModel, ClassInfo


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


def _camel(name: str) -> str:
    return name[0].lower() + name[1:]


def _var(name: str) -> str:
    v = name[0].upper() + name[1:]
    if v in ("From", "SendTime", "Deadline", "Sender", "KnownRebecs", "StateVars"):
        return "V" + v
    return v


_BINOPS = {
    "&&": "andalso", "||": "orelse", "==": "=:=", "!=": "=/=",
    "%": "rem", "/": "div", "+": "+", "-": "-", "*": "*",
    "<": "<", "<=": "=<", ">": ">", ">=": ">=",
}

_DEFAULTS = {"int": "0", "time": "0", "boolean": "false"}


class _Scope:
    """Tracks which Erlang variable currently holds each model variable."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.vars: dict[str, str] = dict(parent.vars) if parent else {}
        self.statevars = parent.statevars if parent else "StateVars"
        self.assigned: set[str] = set()

    def child(self) -> "_Scope":
        return _Scope(self)


class _ClassEmitter:
    def __init__(self, checked: CheckedModel, info: ClassInfo):
        self.checked = checked
        self.info = info
        self.cls = info.definition
        self.module = self.cls.name.lower()
        self.fun = _camel(self.cls.name)
        self.counter = 0
        self.lines: list[str] = []
        self.sender_bound = False  # whether the method's body has bound Sender

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    # -- expressions -------------------------------------------------------

    def expr(self, e: Expr, scope: _Scope) -> str:
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
            name = e.name
            if name in scope.vars:
                return scope.vars[name]
            if name in self.info.state_types:
                return f"{scope.statevars}#{self.module}_statevars.{name}"
            if name in self.info.known_types:
                return f"KnownRebecs#{self.module}_knownrebecs.{name}"
            if name in self.checked.env_types:
                return f"env:{name}()"
            raise UnsupportedFeatureError(f"unresolved name {name!r}", e.pos)
        if isinstance(e, ChoiceExpr):
            options = ", ".join(self.expr(o, scope) for o in e.options)
            return f"lists:nth(rand:uniform({len(e.options)}), [{options}])"
        if isinstance(e, UnaryOp):
            inner = self.expr(e.operand, scope)
            return f"(not {inner})" if e.op == "!" else f"(-{inner})"
        if isinstance(e, BinaryOp):
            return (f"({self.expr(e.left, scope)} {_BINOPS[e.op]}"
                    f" {self.expr(e.right, scope)})")
        raise UnsupportedFeatureError(f"expression {e!r}")

    def target(self, stmt: SendStmt, scope: _Scope) -> str:
        if stmt.target == "self":
            return "self()"
        if stmt.target in self.info.known_types:
            return f"KnownRebecs#{self.module}_knownrebecs.{stmt.target}"
        if stmt.target in scope.vars:
            return scope.vars[stmt.target]
        raise UnsupportedFeatureError(f"send target {stmt.target!r}", stmt.pos)

    # -- statements ----------------------------------------------------------

    def stmt(self, s: Stmt, scope: _Scope, indent: str) -> None:
        # An after-send's helper sends as Sender; bind it before the first
        # statement that holds one, so that it is visible after any branch.
        if not self.sender_bound and _has_after_send(s):
            self.lines.append(f"{indent}Sender = self(),")
            self.sender_bound = True
        if isinstance(s, Assign):
            value = self.expr(s.value, scope)
            if s.name in self.info.state_types:
                nxt = self.fresh("StateVars")
                self.lines.append(
                    f"{indent}{nxt} = {scope.statevars}"
                    f"#{self.module}_statevars{{{s.name} = {value}}},")
                scope.statevars = nxt
                scope.assigned.add("$statevars")
            else:
                nxt = self.fresh(_var(s.name))
                self.lines.append(f"{indent}{nxt} = {value},")
                scope.vars[s.name] = nxt
                scope.assigned.add(s.name)
            return
        if isinstance(s, DelayStmt):
            self.lines.append(f"{indent}receive after {self.expr(s.amount, scope)} -> ok end,")
            return
        if isinstance(s, NowStmt):
            self.lines.append(f"{indent}_ = now(),")
            return
        if isinstance(s, SendStmt):
            self.send(s, scope, indent)
            return
        if isinstance(s, IfStmt):
            self.if_stmt(s, scope, indent)
            return
        raise UnsupportedFeatureError(f"statement {s!r}", getattr(s, "pos", None))

    def send(self, s: SendStmt, scope: _Scope, indent: str) -> None:
        target = self.target(s, scope)
        args = "".join(f", {self.expr(a, scope)}" for a in s.args)
        if s.deadline is not None:
            dl = f"now() + {self.expr(s.deadline, scope)}"
        else:
            dl = "inf"
        if s.after is None:
            self.lines.append(f"{indent}{target} ! {{{{self(), now(), {dl}}}, {s.method}{args}}},")
            return
        if s.target == "self":
            # Inside the spawned helper self() is the helper, not the rebec.
            target = "Sender"
        after = self.expr(s.after, scope)
        self.lines.append(f"{indent}spawn(fun() ->")
        self.lines.append(f"{indent}    receive after {after} ->")
        self.lines.append(f"{indent}        {target} ! {{{{Sender, now(), {dl}}}, {s.method}{args}}}")
        self.lines.append(f"{indent}    end")
        self.lines.append(f"{indent}end),")

    def if_stmt(self, s: IfStmt, scope: _Scope, indent: str) -> None:
        cond = self.expr(s.cond, scope)
        then_scope = scope.child()
        else_scope = scope.child()
        inner = indent + "        "
        then_lines = self.body_lines(s.then_body, then_scope, inner)
        else_lines = self.body_lines(s.else_body or [], else_scope, inner)

        threaded = self.threaded_names(scope, then_scope, else_scope)
        if threaded:
            joins = []
            then_tuple, else_tuple = [], []
            for name in threaded:
                if name == "$statevars":
                    joined = self.fresh("StateVars")
                    then_tuple.append(then_scope.statevars)
                    else_tuple.append(else_scope.statevars)
                    scope.statevars = joined
                else:
                    joined = self.fresh(_var(name))
                    then_tuple.append(then_scope.vars[name])
                    else_tuple.append(else_scope.vars[name])
                    scope.vars[name] = joined
                    scope.assigned.add(name)
                joins.append(joined)
            head = "{" + ", ".join(joins) + "} = " if len(joins) > 1 else f"{joins[0]} = "
            ret_then = "{" + ", ".join(then_tuple) + "}" if len(joins) > 1 else then_tuple[0]
            ret_else = "{" + ", ".join(else_tuple) + "}" if len(joins) > 1 else else_tuple[0]
            if threaded and "$statevars" in threaded:
                scope.assigned.add("$statevars")
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

    def body_lines(self, body: list[Stmt], scope: _Scope, indent: str) -> list[str]:
        """The lines of ``body`` emitted into ``scope``, apart from the lines
        being built."""
        saved, self.lines = self.lines, []
        for stmt in body:
            self.stmt(stmt, scope, indent)
        lines, self.lines = self.lines, saved
        return lines

    def threaded_names(self, scope: _Scope, then_scope: _Scope, else_scope: _Scope) -> list[str]:
        names = []
        if "$statevars" in then_scope.assigned or "$statevars" in else_scope.assigned:
            names.append("$statevars")
        for name in sorted(set(then_scope.assigned | else_scope.assigned) - {"$statevars"}):
            existed = name in scope.vars
            in_both = name in then_scope.assigned and name in else_scope.assigned
            if existed or in_both:
                names.append(name)
                # A branch that did not touch the variable contributes its
                # old binding to the join.
                then_scope.vars.setdefault(name, scope.vars.get(name, "undefined"))
                else_scope.vars.setdefault(name, scope.vars.get(name, "undefined"))
        return names

    # -- methods and stages ---------------------------------------------------

    def emit_module(self, init_arities: list[int]) -> str:
        cls, module, fun = self.cls, self.module, self.fun
        out = self.lines = []
        out.append(f"-module({module}).")
        out.append("-export([start/0]).")
        out.append("")
        known_fields = ", ".join(d.name for d in cls.known_decls)
        out.append(f"-record({module}_knownrebecs, {{{known_fields}}}).")
        state_fields = ", ".join(
            f"{d.name} = {_DEFAULTS[d.type]}" for d in cls.state_decls)
        out.append(f"-record({module}_statevars, {{{state_fields}}}).")
        out.append("")
        out.append("start() ->")
        out.append(f"    spawn(fun {fun}/0).")
        out.append("")
        out.append("%% Stage 1: wait for references to the known rebecs.")
        out.append(f"{fun}() ->")
        out.append("    receive")
        pattern = "{" + ", ".join(_var(d.name) for d in cls.known_decls) + "}"
        fields = ", ".join(f"{d.name} = {_var(d.name)}" for d in cls.known_decls)
        out.append(f"        {pattern} ->")
        out.append(f"            {fun}(#{module}_knownrebecs{{{fields}}})")
        out.append("    end.")
        out.append("")
        out.append("%% Stage 2: serve the initial message, then enter the serve loop.")
        out.append(f"{fun}(KnownRebecs) ->")
        out.append("    receive")
        initial = self.cls.method("initial")
        matches = []
        for arity in init_arities or [0]:
            matches.append(self.initial_match(initial, arity))
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
        return "\n".join(out) + "\n"

    def initial_match(self, initial: Optional[MethodDef], arity: int) -> str:
        cls, module, fun = self.cls, self.module, self.fun
        init_fields = [d.name for d in cls.state_decls[:arity]]
        extra = "".join(f", {_var(n)}Init" for n in init_fields)
        lines = [f"        {{{{From, SendTime, Deadline}}, initial{extra}}} ->"]
        record_fields = ", ".join(f"{n} = {_var(n)}Init" for n in init_fields)
        lines.append(f"            StateVars = #{module}_statevars{{{record_fields}}},")
        scope = _Scope()
        if initial is not None:
            self.sender_bound = False
            lines.extend(self.body_lines(initial.body, scope, "            "))
        lines.append(f"            {fun}(KnownRebecs, {scope.statevars})")
        return "\n".join(lines)

    def serve_match(self, method: MethodDef) -> str:
        module, fun = self.module, self.fun
        params = "".join(f", {_var(p.name)}" for p in method.params)
        lines = [f"        {{{{From, SendTime, Deadline}}, {method.name}{params}}} ->"]
        lines.append("            %% The deadline is checked right before the body runs;")
        lines.append("            %% an expired message is purged unserved.")
        lines.append("            case (Deadline =:= inf) orelse (now() =< Deadline) of")
        lines.append("                false ->")
        lines.append(f"                    {fun}(KnownRebecs, StateVars);")
        lines.append("                true ->")
        scope = _Scope()
        for p in method.params:
            scope.vars[p.name] = _var(p.name)
        self.sender_bound = False
        lines.extend(self.body_lines(method.body, scope, "                    "))
        lines.append(f"                    {fun}(KnownRebecs, {scope.statevars})")
        lines.append("            end")
        return "\n".join(lines)


def _has_after_send(s: Stmt) -> bool:
    """Whether ``s`` is, or has in a branch, a send with an ``after`` offset."""
    if isinstance(s, IfStmt):
        return any(map(_has_after_send, s.then_body + (s.else_body or [])))
    return isinstance(s, SendStmt) and s.after is not None


def emit(checked: CheckedModel) -> EmittedProgram:
    """Translate a checked model to Erlang source files, one per class plus
    a bootstrap module (and an env module when the model has parameters)."""
    if checked.new_targets:  # reported at the first new in the source
        raise UnsupportedFeatureError("new (rebec creation)",
                                      next(iter(checked.new_targets.values())))
    files: dict[str, str] = {}

    init_arities: dict[str, list[int]] = {}
    for inst in checked.model.main:
        arities = init_arities.setdefault(inst.class_name, [])
        if len(inst.init_args) not in arities:
            arities.append(len(inst.init_args))
    for name, arities in init_arities.items():
        arities.sort()

    for cls in checked.model.classes:
        emitter = _ClassEmitter(checked, checked.classes[cls.name])
        files[f"{cls.name.lower()}.erl"] = emitter.emit_module(
            init_arities.get(cls.name, []))

    if checked.model.env_decls:
        files["env.erl"] = _emit_env(checked)
    files["main.erl"] = _emit_main(checked)
    return EmittedProgram(files=files)


def _emit_env(checked: CheckedModel) -> str:
    names = [d.name for d in checked.model.env_decls]
    out = ["-module(env)."]
    out.append("-export([" + ", ".join(f"{n}/0" for n in names) + "]).")
    out.append("")
    out.append("%% Model parameters: set the values before running a simulation.")
    for decl in checked.model.env_decls:
        default = "false" if decl.type == "boolean" else "0"
        out.append(f"{decl.name}() -> {default}.")
    return "\n".join(out) + "\n"


def _emit_main(checked: CheckedModel) -> str:
    emit_ctx = _ClassEmitter(checked, next(iter(checked.classes.values())))
    out = ["-module(main).", "-export([main/0])."]
    out.append("")
    out.append("%% Spawn every rebec, wire the known rebecs, kick off the initial")
    out.append("%% messages.")
    out.append("main() ->")
    body = []
    for inst in checked.model.main:
        body.append(f"    {_var(inst.name)} = {inst.class_name.lower()}:start(),")
    for inst in checked.model.main:
        knowns = ", ".join(_var(a) for a in inst.known_args)
        body.append(f"    {_var(inst.name)} ! {{{knowns}}},")
    for inst in checked.model.main:
        scope = _Scope()
        args = "".join(f", {emit_ctx.expr(a, scope)}" for a in inst.init_args)
        body.append(f"    {_var(inst.name)} ! {{{{main, now(), inf}}, initial{args}}},")
    body.append("    ok.")
    out.extend(body)
    return "\n".join(out) + "\n"
