"""Big-step execution of message-server bodies.

``exec_method`` runs one method atomically against a SystemState: the
receiver's clock jumps to max(message time tag, its current clock), the
body executes to completion, and the only cross-rebec effects are new
messages in the bag and freshly created rebecs.
"""
from __future__ import annotations

import random
from typing import Optional, Sequence

from .model import (
    Assign,
    BinaryOp,
    BoolLit,
    BoolV,
    ChoiceExpr,
    DelayStmt,
    EV_CREATED,
    EV_DELAY,
    EV_SENT,
    EXTERNAL_ID,
    Expr,
    IfStmt,
    IntLit,
    IntV,
    MAX_TICKS,
    Message,
    NEVER,
    NewStmt,
    NowExpr,
    NowStmt,
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
    canon_value,
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
# Expression evaluation


def eval_expr(expr: Expr, env: RebecEnv, state: SystemState,
              resolver: Resolver) -> Value:
    if isinstance(expr, IntLit):
        return IntV(expr.value)
    if isinstance(expr, BoolLit):
        return BoolV(expr.value)
    if isinstance(expr, NowExpr):
        return IntV(env.now)
    if isinstance(expr, SelfExpr):
        return RebecRef(env.rebec_id)
    if isinstance(expr, SenderExpr):
        return RebecRef(env.sender if env.sender is not None else EXTERNAL_ID)
    if isinstance(expr, VarRef):
        name = expr.name
        if name in env.locals:
            return env.locals[name]
        if name in env.state_vars:
            return env.state_vars[name]
        if name in env.knowns:
            return env.knowns[name]
        if name in state.env_bindings:
            return state.env_bindings[name]
        raise ExecError(f"unknown name {name!r}", env.rebec_id, pos=expr.pos)
    if isinstance(expr, ChoiceExpr):
        site = expr.site_id or "?unresolved"
        idx = resolver.choose(site, len(expr.options))
        return eval_expr(expr.options[idx], env, state, resolver)
    if isinstance(expr, UnaryOp):
        v = eval_expr(expr.operand, env, state, resolver)
        if expr.op == "!":
            if not isinstance(v, BoolV):
                raise ExecError("operand of '!' is not boolean", env.rebec_id, pos=expr.pos)
            return BoolV(not v.value)
        return IntV(-_num(v, env, expr))
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, env, state, resolver)
    raise ExecError(f"cannot evaluate {expr!r}", env.rebec_id)


def _num(v: Value, env: RebecEnv, expr: Expr) -> int:
    if isinstance(v, IntV):
        return v.value
    raise ExecError(f"expected a numeric value, got {canon_value(v)}",
                    env.rebec_id, pos=getattr(expr, "pos", None))


def _eval_binary(expr: BinaryOp, env: RebecEnv, state: SystemState,
                 resolver: Resolver) -> Value:
    op = expr.op
    if op in ("&&", "||"):
        left = eval_expr(expr.left, env, state, resolver)
        if not isinstance(left, BoolV):
            raise ExecError(f"operand of {op!r} is not boolean", env.rebec_id, pos=expr.pos)
        if op == "&&" and not left.value:
            return BoolV(False)
        if op == "||" and left.value:
            return BoolV(True)
        right = eval_expr(expr.right, env, state, resolver)
        if not isinstance(right, BoolV):
            raise ExecError(f"operand of {op!r} is not boolean", env.rebec_id, pos=expr.pos)
        return right
    left = eval_expr(expr.left, env, state, resolver)
    right = eval_expr(expr.right, env, state, resolver)
    if op in ("==", "!="):
        eq = _values_equal(left, right, env, expr)
        return BoolV(eq if op == "==" else not eq)
    a, b = _num(left, env, expr.left), _num(right, env, expr.right)
    if op == "+":
        return IntV(a + b)
    if op == "-":
        return IntV(a - b)
    if op == "*":
        return IntV(a * b)
    if op in ("/", "%"):
        if b == 0:
            raise ExecError("division by zero", env.rebec_id, pos=expr.pos)
        if op == "/":
            return IntV(int(a / b))  # C-style: truncate toward zero
        return IntV(a - int(a / b) * b)
    if op == "<":
        return BoolV(a < b)
    if op == "<=":
        return BoolV(a <= b)
    if op == ">":
        return BoolV(a > b)
    if op == ">=":
        return BoolV(a >= b)
    raise ExecError(f"unknown operator {op!r}", env.rebec_id, pos=expr.pos)


def _values_equal(a: Value, b: Value, env: RebecEnv, expr: BinaryOp) -> bool:
    if isinstance(a, IntV) and isinstance(b, IntV):
        return a.value == b.value
    if isinstance(a, BoolV) and isinstance(b, BoolV):
        return a.value == b.value
    if isinstance(a, RebecRef) and isinstance(b, RebecRef):
        return a.rebec_id == b.rebec_id
    raise ExecError(f"cannot compare {canon_value(a)} with {canon_value(b)}",
                    env.rebec_id, pos=expr.pos)


# ---------------------------------------------------------------------------
# Statement execution


def exec_stmt(stmt: Stmt, env: RebecEnv, state: SystemState,
              resolver: Resolver, events: list[TraceEvent],
              method_name: str = "?") -> None:
    """Execute one statement; new messages and rebecs land in ``state``,
    the events it emits are appended to ``events``, and the clock and stores
    of ``env`` are updated in place.

    A fault raised without its method (by expression evaluation or a
    resolver) is blamed on this rebec and method, at its own position if it
    has one, else at the statement's."""
    try:
        _dispatch_stmt(stmt, env, state, resolver, events, method_name)
    except ExecError as err:
        if err.method == "?":
            raise ExecError(err.detail, env.rebec_id, method_name,
                            err.pos or getattr(stmt, "pos", None)) from err
        raise


def _dispatch_stmt(stmt, env, state, resolver, events, method_name) -> None:
    if isinstance(stmt, Assign):
        value = eval_expr(stmt.value, env, state, resolver)
        info = state.checked.classes[env.class_name]
        declared = info.state_types.get(stmt.name)
        if declared is not None:
            env.set_var(stmt.name, value)
        else:
            env.locals[stmt.name] = value
        return
    if isinstance(stmt, DelayStmt):
        amount = _num(eval_expr(stmt.amount, env, state, resolver), env, stmt.amount)
        if amount < 0:
            raise ExecError(f"negative delay amount {amount}",
                            env.rebec_id, method_name, stmt.pos)
        env.now = _advance(env, amount, method_name, stmt)
        events.append(TraceEvent(
            kind=EV_DELAY, time=env.now, rebec=env.rebec_id, method=method_name,
        ))
        return
    if isinstance(stmt, NowStmt):
        return
    if isinstance(stmt, SendStmt):
        _exec_send(stmt, env, state, resolver, events, method_name)
        return
    if isinstance(stmt, NewStmt):
        _exec_new(stmt, env, state, resolver, events, method_name)
        return
    if isinstance(stmt, IfStmt):
        cond = eval_expr(stmt.cond, env, state, resolver)
        if not isinstance(cond, BoolV):
            raise ExecError("if condition is not boolean", env.rebec_id, method_name, stmt.pos)
        branch = stmt.then_body if cond.value else stmt.else_body
        if branch:
            exec_block(branch, env, state, resolver, events, method_name)
        return
    raise ExecError(f"cannot execute {stmt!r}", env.rebec_id, method_name)


def _advance(env: RebecEnv, amount: int, method_name: str, stmt: Stmt) -> int:
    """``env.now + amount``; a tick past MAX_TICKS is a fault at ``stmt``."""
    ticks = env.now + amount
    if ticks > MAX_TICKS:
        raise ExecError("logical time overflow", env.rebec_id, method_name, stmt.pos)
    return ticks


def exec_block(stmts: list[Stmt], env: RebecEnv, state: SystemState,
               resolver: Resolver, events: list[TraceEvent],
               method_name: str = "?") -> None:
    for stmt in stmts:
        exec_stmt(stmt, env, state, resolver, events, method_name)


def _resolve_target(stmt: SendStmt, env: RebecEnv) -> str:
    if stmt.target == "self":
        return env.rebec_id
    if stmt.target in env.knowns:
        return env.knowns[stmt.target].rebec_id
    local = env.locals.get(stmt.target)
    if isinstance(local, RebecRef):
        return local.rebec_id
    raise ExecError(f"send target {stmt.target!r} is not bound to a rebec",
                    env.rebec_id, pos=stmt.pos)


def _exec_send(stmt: SendStmt, env: RebecEnv, state: SystemState,
               resolver: Resolver, events: list[TraceEvent], method_name: str) -> None:
    receiver_id = _resolve_target(stmt, env)
    receiver_env = state.envs.get(receiver_id)
    if receiver_env is None:
        raise ExecError(f"send to unbound rebec {receiver_id!r}",
                        env.rebec_id, method_name, stmt.pos)
    target_info = state.checked.classes[receiver_env.class_name]
    target_method = target_info.methods.get(stmt.method)
    if target_method is None:
        raise ExecError(f"{receiver_env.class_name} has no message server {stmt.method!r}",
                        env.rebec_id, method_name, stmt.pos)

    args = tuple([eval_expr(a, env, state, resolver) for a in stmt.args])

    after = 0
    if stmt.after is not None:
        after = _num(eval_expr(stmt.after, env, state, resolver), env, stmt.after)
        if after < 0:
            raise ExecError(f"negative after offset {after}",
                            env.rebec_id, method_name, stmt.pos)
    if stmt.deadline is not None:
        rel = _num(eval_expr(stmt.deadline, env, state, resolver), env, stmt.deadline)
        if rel <= 0:
            raise ExecError(f"deadline offset must be positive, got {rel}",
                            env.rebec_id, method_name, stmt.pos)
        dl = _advance(env, rel, method_name, stmt)
    else:
        dl = NEVER

    msg = Message(receiver=receiver_id, method=stmt.method, args=args,
                  sender=env.rebec_id, tt=_advance(env, after, method_name, stmt), dl=dl)
    state.bag.append(msg)
    events.append(TraceEvent(
        kind=EV_SENT, time=env.now, rebec=receiver_id, method=msg.method,
        sender=msg.sender, tt=msg.tt, dl=deadline_text(msg.dl),
        args=msg.canon_args,
    ))


def _exec_new(stmt: NewStmt, env: RebecEnv, state: SystemState,
              resolver: Resolver, events: list[TraceEvent], method_name: str) -> None:
    info = state.checked.classes.get(stmt.class_name)
    if info is None:
        raise ExecError(f"unknown class {stmt.class_name!r}",
                        env.rebec_id, method_name, stmt.pos)
    initial = info.methods.get("initial")
    if initial is None:
        raise ExecError(f"class {stmt.class_name!r} has no initial message server",
                        env.rebec_id, method_name, stmt.pos)
    args = tuple([eval_expr(a, env, state, resolver) for a in stmt.args])

    new_id = state.fresh_rebec_id(stmt.class_name)
    new_env = make_rebec_env(new_id, info, now=env.now)
    state.add_rebec(new_env)
    env.locals[stmt.name] = RebecRef(new_id)
    events.append(TraceEvent(
        kind=EV_CREATED, time=env.now, rebec=new_id, sender=env.rebec_id,
    ))

    msg = Message(receiver=new_id, method="initial", args=args,
                  sender=env.rebec_id, tt=env.now, dl=NEVER)
    state.bag.append(msg)
    events.append(TraceEvent(
        kind=EV_SENT, time=env.now, rebec=new_id, method="initial",
        sender=env.rebec_id, tt=msg.tt, dl=deadline_text(msg.dl),
        args=msg.canon_args,
    ))


_DEFAULTS = {"int": IntV(0), "boolean": BoolV(False), "time": IntV(0)}


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
    and keeps its final value afterwards; sender and locals are discarded.
    """
    if msg.receiver not in state.envs:
        raise ExecError(f"message receiver {msg.receiver!r} does not exist")
    env = state.own(msg.receiver)  # the body writes to its receiver only
    info = state.checked.classes[env.class_name]
    method = info.methods.get(msg.method)
    if method is None:
        raise ExecError(f"no message server {msg.method!r}", env.rebec_id)
    if len(msg.args) != len(method.param_types):
        raise ExecError(
            f"{msg.method} expects {len(method.param_types)} argument(s),"
            f" message carries {len(msg.args)}", env.rebec_id, msg.method)

    env.now = max(msg.tt, env.now)
    env.sender = msg.sender
    env.locals = {p.name: v for p, v in zip(method.definition.params, msg.args)}
    events: list[TraceEvent] = []
    try:
        exec_block(method.definition.body, env, state, resolver, events, msg.method)
    finally:
        env.sender = None
        env.locals = {}
    return events
