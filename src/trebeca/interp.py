"""Compiled, big-step execution of message-server bodies.

``compile_method`` turns a checked method body into nested Python closures,
one per syntax node (Feeley and Lapalme, "Using closures for code
generation", 1987). It runs once per method, when the model is checked:
every name is resolved to its kind (local, state variable, known rebec or
env variable) and every operator to its code, so running a body walks no
syntax tree. Values are plain ``int``, plain ``bool`` and ``RebecRef``; the
checker has typed every expression, so no runtime type check is left.

``exec_method`` runs one method atomically against a SystemState: the
receiver's clock jumps to max(message time tag, its current clock), the
body executes to completion, and the only cross-rebec effects are new
messages in the bag and freshly created rebecs.
"""
from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional, Sequence

from .model import (
    Assign,
    BinaryOp,
    BoolLit,
    ChoiceExpr,
    DelayStmt,
    EV_CREATED,
    EV_DELAY,
    EV_SENT,
    Expr,
    IfStmt,
    IntLit,
    MAX_TICKS,
    Message,
    MethodDef,
    NEVER,
    NewStmt,
    NowExpr,
    NowStmt,
    Pos,
    RebecEnv,
    RebecRef,
    SelfExpr,
    SendStmt,
    SenderExpr,
    Stmt,
    SystemState,
    TraceEvent,
    UnaryOp,
    VarRef,
    deadline_text,
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
    """One activation of a compiled body: the receiver's record, the state
    it writes to, the resolver for its choices, the sender's id, the locals
    by slot and the events emitted so far."""

    __slots__ = ("env", "state", "resolver", "sender", "locals", "events")

    def __init__(self, env: RebecEnv, state: SystemState, resolver: Resolver,
                 sender: str, locals_: list):
        self.env = env
        self.state = state
        self.resolver = resolver
        self.sender = sender
        self.locals = locals_
        self.events: list[TraceEvent] = []


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


def _advance(env: RebecEnv, amount: int, method: str, pos: Optional[Pos]) -> int:
    """``env.now + amount``; a tick past MAX_TICKS is a fault at ``pos``."""
    ticks = env.now + amount
    if ticks > MAX_TICKS:
        raise ExecError("logical time overflow", env.rebec_id, method, pos)
    return ticks


NEVER_TEXT = deadline_text(NEVER)

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


class _Compiler:
    """Compiles the body of one method of one class.

    Positions given to faults are compile-time constants: an operator's own
    position, else that of the innermost enclosing statement (``at``).
    """

    def __init__(self, method: MethodDef, class_info, classes: dict):
        self.method = method.name
        self.class_info = class_info
        self.classes = classes
        self.slots: dict[str, int] = {p.name: i for i, p in enumerate(method.params)}

    def block(self, stmts: list[Stmt]) -> tuple[Code, ...]:
        # ``now();`` as a statement reads the clock and discards it: no code.
        return tuple([self.stmt(s) for s in stmts if not isinstance(s, NowStmt)])

    # -- expressions --------------------------------------------------------

    def expr(self, e: Expr, at: Optional[Pos]) -> Code:
        if isinstance(e, (IntLit, BoolLit)):
            value = e.value
            return lambda fr: value
        if isinstance(e, VarRef):
            return self.var(e.name)
        if isinstance(e, NowExpr):
            return lambda fr: fr.env.now
        if isinstance(e, SelfExpr):
            return lambda fr: RebecRef(fr.env.rebec_id)
        if isinstance(e, SenderExpr):
            return lambda fr: RebecRef(fr.sender)
        if isinstance(e, ChoiceExpr):
            return self.choice(e, at)
        if isinstance(e, UnaryOp):
            operand = self.expr(e.operand, at)
            if e.op == "!":
                return lambda fr: not operand(fr)
            return lambda fr: -operand(fr)
        if isinstance(e, BinaryOp):
            left, right = self.expr(e.left, at), self.expr(e.right, at)
            if e.op in ("/", "%"):
                return self.division(e.op, left, right, e.pos or at)
            return _BINARY[e.op](left, right)
        raise TypeError(f"unknown expression node: {e!r}")

    def var(self, name: str) -> Code:
        # A parameter shadows an env variable of the same name; the checker
        # keeps every other local apart from state variables, known rebecs
        # and env variables.
        slot = self.slots.get(name)
        if slot is not None:
            return lambda fr: fr.locals[slot]
        if name in self.class_info.state_types:
            return lambda fr: fr.env.state_vars[name]
        if name in self.class_info.known_types:
            return lambda fr: fr.env.knowns[name]
        return lambda fr: fr.state.env_bindings[name]

    def choice(self, e: ChoiceExpr, at: Optional[Pos]) -> Code:
        site, method = e.site_id, self.method
        options = tuple([self.expr(o, at) for o in e.options])
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

    # -- statements ---------------------------------------------------------

    def stmt(self, s: Stmt) -> Code:
        if isinstance(s, Assign):
            return self.assign(s)
        if isinstance(s, SendStmt):
            return self.send(s)
        if isinstance(s, NewStmt):
            return self.new(s)
        if isinstance(s, DelayStmt):
            return self.delay(s)
        if isinstance(s, IfStmt):
            cond = self.expr(s.cond, s.pos)
            then_body = self.block(s.then_body)
            else_body = self.block(s.else_body or [])

            def branch(fr: Frame) -> None:
                for stmt in (then_body if cond(fr) else else_body):
                    stmt(fr)
            return branch
        raise TypeError(f"unknown statement node: {s!r}")

    def assign(self, s: Assign) -> Code:
        value, name = self.expr(s.value, s.pos), s.name
        if name in self.class_info.state_types:
            return lambda fr: fr.env.set_var(name, value(fr))
        slot = self.slots.setdefault(name, len(self.slots))

        def assign_local(fr: Frame) -> None:
            fr.locals[slot] = value(fr)
        return assign_local

    def delay(self, s: DelayStmt) -> Code:
        amount, method, pos = self.expr(s.amount, s.pos), self.method, s.pos

        def delay(fr: Frame) -> None:
            env = fr.env
            ticks = amount(fr)
            if ticks < 0:
                raise ExecError(f"negative delay amount {ticks}", env.rebec_id, method, pos)
            env.now = _advance(env, ticks, method, pos)
            fr.events.append(TraceEvent(
                kind=EV_DELAY, time=env.now, rebec=env.rebec_id, method=method,
            ))
        return delay

    def send(self, s: SendStmt) -> Code:
        target, method, pos, server = s.target, self.method, s.pos, s.method
        if target == "self":
            receiver = lambda fr: fr.env.rebec_id
        elif target in self.class_info.known_types:
            receiver = lambda fr: fr.env.knowns[target].rebec_id
        else:
            slot = self.slots[target]
            receiver = lambda fr: fr.locals[slot].rebec_id
        args = tuple([self.expr(a, pos) for a in s.args])
        after = None if s.after is None else self.expr(s.after, pos)
        deadline = None if s.deadline is None else self.expr(s.deadline, pos)

        def send(fr: Frame) -> None:
            env = fr.env
            receiver_id = receiver(fr)
            if receiver_id not in fr.state.envs:
                raise ExecError(f"send to unbound rebec {receiver_id!r}",
                                env.rebec_id, method, pos)
            values = tuple([arg(fr) for arg in args]) if args else ()
            if after is None:
                tt = env.now
            else:
                offset = after(fr)
                if offset < 0:
                    raise ExecError(f"negative after offset {offset}",
                                    env.rebec_id, method, pos)
                tt = _advance(env, offset, method, pos)
            if deadline is None:
                dl, dl_text = NEVER, NEVER_TEXT
            else:
                rel = deadline(fr)
                if rel <= 0:
                    raise ExecError(f"deadline offset must be positive, got {rel}",
                                    env.rebec_id, method, pos)
                dl = _advance(env, rel, method, pos)
                dl_text = deadline_text(dl)
            msg = Message(receiver_id, server, values, env.rebec_id, tt, dl)
            fr.state.add_message(msg)
            # Positional, since a keyword call costs about twice as much:
            # kind, time, rebec, method, sender, tt, dl, reason, args.
            fr.events.append(TraceEvent(EV_SENT, env.now, receiver_id, server, msg.sender,
                                        tt, dl_text, None, msg.canon_args))
        return send

    def new(self, s: NewStmt) -> Code:
        class_name, info = s.class_name, self.classes[s.class_name]
        args = tuple([self.expr(a, s.pos) for a in s.args])
        slot = self.slots.setdefault(s.name, len(self.slots))

        def new(fr: Frame) -> None:
            env, state = fr.env, fr.state
            values = tuple([arg(fr) for arg in args])
            new_id = state.fresh_rebec_id(class_name)
            state.add_rebec(make_rebec_env(new_id, info, now=env.now))
            fr.locals[slot] = RebecRef(new_id)
            msg = Message(receiver=new_id, method="initial", args=values,
                          sender=env.rebec_id, tt=env.now, dl=NEVER)
            state.add_message(msg)
            fr.events.append(TraceEvent(
                kind=EV_CREATED, time=env.now, rebec=new_id, sender=env.rebec_id,
            ))
            fr.events.append(TraceEvent(
                kind=EV_SENT, time=env.now, rebec=new_id, method="initial",
                sender=env.rebec_id, tt=msg.tt, dl=NEVER_TEXT, args=msg.canon_args,
            ))
        return new


def compile_method(method: MethodDef, class_info, classes: dict) -> CompiledMethod:
    """Compile a checked method of ``class_info``'s class; ``classes`` maps
    every class name of the model to its ClassInfo, for ``new``."""
    compiler = _Compiler(method, class_info, classes)
    body = compiler.block(method.body)
    return CompiledMethod(body, tuple(compiler.slots),
                          (None,) * (len(compiler.slots) - len(method.params)))


_DEFAULTS = {"int": 0, "boolean": False, "time": 0}


def make_rebec_env(rebec_id: str, class_info, now: int) -> RebecEnv:
    env = RebecEnv(rebec_id, class_info.definition.name, now)
    for decl in class_info.definition.state_decls:
        env.set_var(decl.name, _DEFAULTS[decl.type])
    return env


# ---------------------------------------------------------------------------
# Whole-method execution


def exec_method(msg: Message, state: SystemState,
                resolver: Resolver) -> list[TraceEvent]:
    """Run a selected message's method body atomically; mutates ``state``
    and returns the events the execution emitted.

    The receiver's clock becomes max(msg.tt, clock) before the body runs
    and keeps its final value afterwards; the sender and the locals live in
    a frame that is discarded.
    """
    if msg.receiver not in state.envs:
        raise ExecError(f"message receiver {msg.receiver!r} does not exist")
    env = state.own(msg.receiver)  # the body writes to its receiver only
    method = state.checked.classes[env.class_name].methods.get(msg.method)
    if method is None:
        raise ExecError(f"no message server {msg.method!r}", env.rebec_id)
    if len(msg.args) != len(method.param_types):
        raise ExecError(
            f"{msg.method} expects {len(method.param_types)} argument(s),"
            f" message carries {len(msg.args)}", env.rebec_id, msg.method)

    env.now = max(msg.tt, env.now)
    code = method.code
    fr = Frame(env, state, resolver, msg.sender, [*msg.args, *code.padding])
    for stmt in code.body:
        stmt(fr)
    return fr.events
