"""Checking, compiling and big-step execution of message-server bodies.

This module owns the one walk over a method body. ``compile_method``
resolves every name to its kind (local, state variable, known rebec or env
variable), type-checks every node and turns it into a Python closure (Feeley
and Lapalme, "Using closures for code generation", 1987), all in one step;
``parser.validate_model`` runs it once per message server. So running a body
walks no syntax tree. Values are plain ``int``, plain ``bool`` and
``RebecRef``; the walk has typed every expression, so no runtime type check
is left.

``exec_method`` serves one selected message atomically: the receiver's
clock jumps to max(message time tag, its current clock), the body executes
to completion in a frame that holds the receiver's working clock and state
variables, and the step ends by putting the receiver's new record into the
state and its ``msg_selected`` event before the body's. No record is ever
written, so a body that faults leaves its receiver's record as it found it.
The only cross-rebec effects are new messages in the bag and new rebecs.
"""
from __future__ import annotations

import random
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Sequence

from .model import (
    Assign,
    BinaryOp,
    BoolLit,
    ChoiceExpr,
    DelayStmt,
    EV_CREATED,
    EV_DELAY,
    EV_SELECTED,
    EV_SENT,
    Event,
    Expr,
    IntLit,
    MAX_TICKS,
    Message,
    MethodDef,
    NEVER,
    NewStmt,
    NowExpr,
    NowStmt,
    Pos,
    RESERVED_NAMES,
    RebecEnv,
    RebecRef,
    SelfExpr,
    SendStmt,
    SenderExpr,
    Stmt,
    SystemState,
    TraceEvent,
    UnaryOp,
    Value,
    VarRef,
)


class ExecError(Exception):
    """A runtime fault inside a method body, with enough context to blame it."""

    def __init__(self, message: str, rebec: str = "?", method: str = "?", pos=None):
        self.detail = message
        self.rebec = rebec
        self.method = method
        self.pos = pos
        where = f"{rebec}.{method}"
        if pos:
            where += f" at {pos[0]}:{pos[1]}"
        super().__init__(f"{where}: {message}")


class Resolver:
    """Source of decisions for ``?(...)`` expressions, given a stable site id
    and the number of alternatives.

    It takes the ``prefix`` indices first, then draws from ``rng``, or takes
    index 0 when there is no rng, and records every (site, arity, index) it
    returns in ``taken``. The simulator draws from its seeded rng; the
    explorer enumerates a method's decision tree by re-running the body with
    successive prefixes; replay passes a recorded vector's indices.
    """

    def __init__(self, prefix: Sequence[int] = (), rng: Optional[random.Random] = None):
        self.prefix = prefix
        self.rng = rng
        self.taken: list[tuple[str, int, int]] = []

    def choose(self, site: str, arity: int) -> int:
        pos = len(self.taken)
        if pos < len(self.prefix):
            idx = self.prefix[pos]
        elif self.rng is not None:
            idx = self.rng.randrange(arity)
        else:
            idx = 0
        if not 0 <= idx < arity:
            raise ExecError(f"decision index {idx} out of range at site {site}")
        self.taken.append((site, arity, idx))
        return idx


# ---------------------------------------------------------------------------
# Frames and compiled methods


class Frame:
    """One activation of a compiled body: the receiver's record as the step
    found it, the receiver's working clock (``now``) and state variables
    (``vars``, a copy of the record's), the state its sends and ``new``s
    change, the resolver for its choices, the sender's id, the locals by
    slot and the events emitted so far."""

    __slots__ = ("env", "now", "vars", "state", "resolver", "sender", "locals", "events")

    def __init__(self, env: RebecEnv, now: int, state: SystemState, resolver: Resolver,
                 sender: str, locals_: list):
        self.env = env
        self.now = now
        self.vars = env.state_vars.copy()
        self.state = state
        self.resolver = resolver
        self.sender = sender
        self.locals = locals_
        self.events: list[Event] = []


Code = Callable[[Frame], object]


class CompiledMethod(NamedTuple):
    """A method body as a tuple of statement closures.

    ``local_names[i]`` names frame slot ``i``: the parameters first, then
    every other local in order of its first assignment. A call's slots are
    its arguments followed by ``padding``.
    """

    body: tuple[Code, ...]
    local_names: tuple[str, ...]
    padding: tuple[None, ...]


def _advance(fr: Frame, amount: int, method: str, pos: Optional[Pos]) -> int:
    """``fr.now + amount``; a tick past MAX_TICKS is a fault at ``pos``."""
    ticks = fr.now + amount
    if ticks > MAX_TICKS:
        raise ExecError("logical time overflow", fr.env.rebec_id, method, pos)
    return ticks


_BINARY: dict[str, Callable[[Code, Code], Code]] = {
    "+": lambda l, r: lambda fr: l(fr) + r(fr),
    "-": lambda l, r: lambda fr: l(fr) - r(fr),
    "*": lambda l, r: lambda fr: l(fr) * r(fr),
    "<": lambda l, r: lambda fr: l(fr) < r(fr),
    "<=": lambda l, r: lambda fr: l(fr) <= r(fr),
    ">": lambda l, r: lambda fr: l(fr) > r(fr),
    ">=": lambda l, r: lambda fr: l(fr) >= r(fr),
    "==": lambda l, r: lambda fr: l(fr) == r(fr),
    "!=": lambda l, r: lambda fr: l(fr) != r(fr),
    "&&": lambda l, r: lambda fr: l(fr) and r(fr),
    "||": lambda l, r: lambda fr: l(fr) or r(fr),
}


Scope = dict[str, str]  # each local in scope, parameters included, to its type
_INTS = ("int", "time")


def types_compatible(declared: str, actual: str) -> bool:
    """``int`` and ``time`` mix; every other type matches only itself."""
    return declared == actual or (declared in _INTS and actual in _INTS)


class _Compiler:
    """Type-checks and compiles the body of one method of one class in one
    walk: an expression gives its type and its code, a statement the scope
    after it and its code. A type is ``int``, ``boolean``, ``time`` or
    ``rebec:C`` (``rebec:?`` for ``sender``); ``None`` marks an expression
    whose error is already reported.

    ``checker`` gives ``classes`` (every ClassInfo by class name),
    ``env_types``, ``new_targets`` (each class some ``new`` creates, mapped
    to the position of the first such ``new`` compiled) and
    ``error(pos, message)``. A body with an error is walked to its end, so
    that every error is reported, and its code is never run.

    Positions given to faults are compile-time constants: the operator's
    position, else that of the innermost enclosing statement (``at``).
    """

    def __init__(self, method: MethodDef, class_info, checker):
        self.method = method.name
        self.class_info = class_info
        self.classes = checker.classes
        self.env_types = checker.env_types
        self.new_targets = checker.new_targets
        self.error = checker.error
        self.slots: dict[str, int] = {p.name: i for i, p in enumerate(method.params)}
        self.sites = 0  # choice sites numbered so far

    def block(self, stmts: list[Stmt], scope: Scope) -> tuple[Scope, tuple[Code, ...]]:
        body = []
        for s in stmts:
            scope, code = self.stmt(s, scope)
            if code is not None:
                body.append(code)
        return scope, tuple(body)

    def lookup(self, name: str, scope: Scope) -> tuple[Optional[str], Optional[Code]]:
        """The type of a name in a body and the code that reads it: a local
        (a parameter shadows an env variable), else a state variable, a known
        rebec (typed ``rebec-known``) or an env variable (``env``); the last
        two a body may not assign. ``(None, None)`` for an unknown name."""
        if name in scope:
            slot = self.slots[name]
            return scope[name], lambda fr: fr.locals[slot]
        if name in self.class_info.state_types:
            return self.class_info.state_types[name], lambda fr: fr.vars[name]
        if name in self.class_info.known_types:
            return "rebec-known", lambda fr: fr.env.knowns[name]
        if name in self.env_types:
            return "env", lambda fr: fr.state.env_bindings[name]
        return None, None

    # -- expressions --------------------------------------------------------

    def expr(self, e: Expr, scope: Scope, at: Optional[Pos]) -> tuple[Optional[str], Code]:
        if isinstance(e, (IntLit, BoolLit)):
            value = e.value
            return "int" if isinstance(e, IntLit) else "boolean", lambda fr: value
        if isinstance(e, VarRef):
            t, code = self.lookup(e.name, scope)
            if t is None:
                self.error(e.pos, f"unknown name {e.name!r}")
            elif t == "rebec-known":
                t = f"rebec:{self.class_info.known_types[e.name]}"
            elif t == "env":
                t = self.env_types[e.name]
            return t, code
        if isinstance(e, NowExpr):
            return "time", lambda fr: fr.now
        if isinstance(e, SelfExpr):
            return f"rebec:{self.class_info.definition.name}", lambda fr: RebecRef(fr.env.rebec_id)
        if isinstance(e, SenderExpr):
            return "rebec:?", lambda fr: RebecRef(fr.sender)
        if isinstance(e, ChoiceExpr):
            return "int", self.choice(e, scope, at)
        if isinstance(e, UnaryOp):
            want = "boolean" if e.op == "!" else "int"
            operand = self.expect(e.operand, want, scope, at, f"operand of {e.op!r}")
            if e.op == "!":
                return want, lambda fr: not operand(fr)
            return want, lambda fr: -operand(fr)
        return self.binary(e, scope, at)  # the parser builds no other node

    def expect(self, e: Expr, want: str, scope: Scope, at: Optional[Pos], what: str) -> Code:
        """The code of ``e``; an error unless its type fits ``want``."""
        t, code = self.expr(e, scope, at)
        if t is not None and not types_compatible(want, t):
            self.error(e.pos, f"{what} must be {want}, found {t}")
        return code

    def binary(self, e: BinaryOp, scope: Scope, at: Optional[Pos]) -> tuple[str, Code]:
        (lt, left), (rt, right) = self.expr(e.left, scope, at), self.expr(e.right, scope, at)
        op = e.op
        if op in ("==", "!="):
            # ``sender`` (``rebec:?``) has no static class: it compares with any rebec.
            if lt is not None and rt is not None and not types_compatible(lt, rt) and not (
                    "rebec:?" in (lt, rt) and lt[:6] == rt[:6] == "rebec:"):
                self.error(e.pos, f"cannot compare {lt} with {rt}")
            return "boolean", _BINARY[op](left, right)
        if op in ("&&", "||"):
            want, fits, result = "boolean", ("boolean",), "boolean"
        else:  # arithmetic and ordering need numeric operands
            want, fits = "numeric", _INTS
            result = "boolean" if op in ("<", "<=", ">", ">=") else "int"
        for t, side in ((lt, e.left), (rt, e.right)):
            if t is not None and t not in fits:
                self.error(side.pos, f"operand of {op!r} must be {want}, found {t}")
        if op in ("/", "%"):
            return result, self.division(op, left, right, e.pos or at)
        return result, _BINARY[op](left, right)

    def choice(self, e: ChoiceExpr, scope: Scope, at: Optional[Pos]) -> Code:
        # A stable site id "<Class>.<method>?<n>", so recorded decision
        # vectors survive re-parsing.
        site, method = f"{self.class_info.definition.name}.{self.method}?{self.sites}", self.method
        self.sites += 1
        options = tuple([self.expect(o, "int", scope, at, "choice alternative")
                         for o in e.options])
        arity = len(options)

        def choose(fr: Frame):
            try:
                idx = fr.resolver.choose(site, arity)
            except ExecError as err:  # an index out of range: blame the statement
                raise ExecError(err.detail, fr.env.rebec_id, method, at) from err
            return options[idx](fr)
        return choose

    def division(self, op: str, left: Code, right: Code, pos: Optional[Pos]) -> Code:
        method = self.method

        def divide(fr: Frame) -> int:
            a, b = left(fr), right(fr)
            if b == 0:
                raise ExecError("division by zero", fr.env.rebec_id, method, pos)
            q = a // b  # exact at any size; floor, then truncate toward zero
            if q < 0 and q * b != a:
                q += 1
            return q if op == "/" else a - q * b
        return divide

    def args(self, args: list[Expr], param_types: list[str], scope: Scope,
             pos: Optional[Pos], what: str) -> tuple[Code, ...]:
        if len(args) != len(param_types):
            self.error(pos, f"{what} expects {len(param_types)} argument(s), got {len(args)}")
        return tuple([self.expect(a, t, scope, pos, f"argument of {what}")
                      for a, t in zip(args, param_types)])

    # -- statements ---------------------------------------------------------

    def stmt(self, s: Stmt, scope: Scope) -> tuple[Scope, Optional[Code]]:
        if isinstance(s, Assign):
            return self.assign(s, scope)
        if isinstance(s, SendStmt):
            return scope, self.send(s, scope)
        if isinstance(s, NewStmt):
            return self.new(s, scope)
        if isinstance(s, DelayStmt):
            return scope, self.delay(s, scope)
        if isinstance(s, NowStmt):
            return scope, None  # reads the clock and discards it: no code
        # An IfStmt: the parser builds no other node.
        cond = self.expect(s.cond, "boolean", scope, s.pos, "if condition")
        after_then, then_body = self.block(s.then_body, scope)
        after_else, else_body = self.block(s.else_body or [], scope)

        def branch(fr: Frame) -> None:
            for stmt in (then_body if cond(fr) else else_body):
                stmt(fr)
        # Locals introduced in both branches with one type survive the join.
        return {**scope, **{name: t for name, t in after_then.items()
                            if name not in scope and after_else.get(name) == t}}, branch

    def store(self, name: str, t: Optional[str], scope: Scope, pos: Optional[Pos]) -> Scope:
        """Check a write of a ``t`` value to ``name``, by an assignment or a
        ``new``: a body may not write a reserved name, a known rebec, an env
        variable or a variable of another type. Returns the scope after the
        write; the first write to a fresh name declares a local."""
        declared, _ = self.lookup(name, scope)
        if declared is None:
            if name in RESERVED_NAMES:
                self.error(pos, f"cannot assign to reserved name {name!r}")
            elif t is not None:
                scope = {**scope, name: t}
        elif declared == "rebec-known":
            self.error(pos, f"cannot assign to known rebec {name!r}")
        elif declared == "env":
            self.error(pos, f"cannot assign to env variable {name!r}")
        elif t is not None and not types_compatible(declared, t):
            self.error(pos, f"cannot assign {t} value to {declared} variable {name!r}")
        return scope

    def assign(self, s: Assign, scope: Scope) -> tuple[Scope, Code]:
        (t, value), name = self.expr(s.value, scope, s.pos), s.name
        scope = self.store(name, t, scope, s.pos)
        if name not in scope:
            def assign_var(fr: Frame) -> None:
                fr.vars[name] = value(fr)
            return scope, assign_var
        slot = self.slots.setdefault(name, len(self.slots))

        def assign_local(fr: Frame) -> None:
            fr.locals[slot] = value(fr)
        return scope, assign_local

    def delay(self, s: DelayStmt, scope: Scope) -> Code:
        amount = self.expect(s.amount, "int", scope, s.pos, "delay amount")
        method, pos = self.method, s.pos

        def delay(fr: Frame) -> None:
            rebec_id = fr.env.rebec_id
            ticks = amount(fr)
            if ticks < 0:
                raise ExecError(f"negative delay amount {ticks}", rebec_id, method, pos)
            fr.now = _advance(fr, ticks, method, pos)
            fr.events.append(TraceEvent(
                kind=EV_DELAY, time=fr.now, rebec=rebec_id, method=method,
            ))
        return delay

    def send(self, s: SendStmt, scope: Scope) -> Optional[Code]:
        target, method, pos, server = s.target, self.method, s.pos, s.method
        # A target is self, a known rebec or a local; unlike lookup, knowns come
        # first, which differs only for a name that has already drawn an error.
        # Each names a live rebec: main binds every known rebec (new's classes
        # declare none), a local holds self, a known or a new rebec, none is removed.
        if target == "self":
            target_class = self.class_info.definition.name
            receiver = lambda fr: fr.env.rebec_id
        elif target in self.class_info.known_types:
            target_class = self.class_info.known_types[target]
            if target_class not in self.classes:
                self.error(pos, f"known rebec {target!r} has unknown class {target_class!r}")
                return None
            receiver = lambda fr: fr.env.knowns[target].rebec_id
        elif scope.get(target, "").startswith("rebec:"):
            target_class, slot = scope[target].split(":", 1)[1], self.slots[target]
            receiver = lambda fr: fr.locals[slot].rebec_id
        else:
            self.error(pos, f"send target {target!r} is not self, a known rebec,"
                            " or a rebec-valued local")
            return None
        if target_class not in self.classes:
            self.error(pos, f"unknown class {target_class!r}")
            return None
        target_method = self.classes[target_class].methods.get(server)
        if target_method is None:
            self.error(pos, f"class {target_class!r} has no message server {server!r}")
            return None
        args = self.args(s.args, target_method.param_types, scope, pos,
                         f"{target_class}.{server}")
        after = (None if s.after is None
                 else self.expect(s.after, "int", scope, pos, "after offset"))
        deadline = (None if s.deadline is None
                    else self.expect(s.deadline, "int", scope, pos, "deadline offset"))

        def send(fr: Frame) -> None:
            rebec_id = fr.env.rebec_id
            values = tuple([arg(fr) for arg in args]) if args else ()
            if after is None:
                tt = fr.now
            else:
                offset = after(fr)
                if offset < 0:
                    raise ExecError(f"negative after offset {offset}",
                                    rebec_id, method, pos)
                tt = _advance(fr, offset, method, pos)
            if deadline is None:
                dl = NEVER
            else:
                rel = deadline(fr)
                if rel <= 0:
                    raise ExecError(f"deadline offset must be positive, got {rel}",
                                    rebec_id, method, pos)
                dl = _advance(fr, rel, method, pos)
            msg = Message(receiver(fr), server, values, rebec_id, tt, dl)
            fr.state.add_message(msg)
            fr.events.append(msg.event(EV_SENT, fr.now))
        return send

    def new(self, s: NewStmt, scope: Scope) -> tuple[Scope, Optional[Code]]:
        class_name, info = s.class_name, self.classes.get(s.class_name)
        if info is None:
            self.error(s.pos, f"unknown class {class_name!r} in new")
            return scope, None
        self.new_targets.setdefault(class_name, s.pos)
        initial = info.methods.get("initial")
        if initial is None:
            self.error(s.pos, f"class {class_name!r} has no initial message server")
            args = ()
        else:
            args = self.args(s.args, initial.param_types, scope, s.pos,
                             f"initial of {class_name!r}")
        scope = self.store(s.name, f"rebec:{class_name}", scope, s.pos)
        slot = self.slots.setdefault(s.name, len(self.slots))
        prefix = f"{class_name.lower()}#"

        def new(fr: Frame) -> None:
            rebec_id, state, now = fr.env.rebec_id, fr.state, fr.now
            values = tuple([arg(fr) for arg in args])
            # Rebecs are never removed, so the live count less main's instances
            # is the number of ``new``s so far. No identifier holds a '#'.
            new_id = f"{prefix}{len(state.envs) - len(state.checked.model.main)}"
            state.envs[new_id] = make_rebec_env(new_id, info, now, {})
            fr.locals[slot] = RebecRef(new_id)
            msg = Message(receiver=new_id, method="initial", args=values,
                          sender=rebec_id, tt=now, dl=NEVER)
            state.add_message(msg)
            fr.events.append(TraceEvent(
                kind=EV_CREATED, time=now, rebec=new_id, sender=rebec_id,
            ))
            fr.events.append(msg.event(EV_SENT, now))
        return scope, new


def compile_method(method_info, class_info, checker) -> CompiledMethod:
    """Type-check and compile a method of ``class_info``'s class in one walk,
    reporting each error to ``checker`` (see ``_Compiler``)."""
    method = method_info.definition
    compiler = _Compiler(method, class_info, checker)
    params = dict(zip([p.name for p in method.params], method_info.param_types))
    _, body = compiler.block(method.body, params)
    return CompiledMethod(body, tuple(compiler.slots),
                          (None,) * (len(compiler.slots) - len(method.params)))


_DEFAULTS = {"int": 0, "boolean": False, "time": 0}


def make_rebec_env(rebec_id: str, class_info, now: int, knowns: dict[str, RebecRef],
                   values: Sequence[Value] = ()) -> RebecEnv:
    """The first record of a rebec of ``class_info``'s class: ``values``
    initialize a prefix of its state variables, defaults the rest."""
    decls = class_info.definition.state_decls
    state_vars = {decl.name: _DEFAULTS[decl.type] for decl in decls}
    state_vars.update(zip([decl.name for decl in decls], values))
    return RebecEnv(rebec_id, class_info.definition.name, now, state_vars,
                    MappingProxyType(knowns))


# ---------------------------------------------------------------------------
# Whole-method execution


def exec_method(msg: Message, state: SystemState,
                resolver: Resolver) -> list[Event]:
    """Serve ``msg``, already out of the bag, atomically: changes ``state``
    and returns the step's events, ``msg_selected`` first, then the body's.

    The body starts at max(msg.tt, the receiver's clock), the time of its
    ``msg_selected``. Once it completes, a new record with the frame's final
    clock and state variables replaces the receiver's; a fault leaves the
    old one. The checker has proved that the receiver exists and serves the
    message with its arguments (``_Compiler.send``, ``_Compiler.new``,
    ``_Checker.check_main``).
    """
    env = state.envs[msg.receiver]
    code = state.checked.classes[env.class_name].methods[msg.method].code
    start = max(msg.tt, env.now)
    fr = Frame(env, start, state, resolver, msg.sender, [*msg.args, *code.padding])
    for stmt in code.body:
        stmt(fr)
    state.envs[msg.receiver] = RebecEnv(env.rebec_id, env.class_name, fr.now, fr.vars,
                                        env.knowns)
    events = fr.events  # the frame's own list: no copy
    events.insert(0, msg.event(EV_SELECTED, start, tuple(resolver.taken)))
    return events
