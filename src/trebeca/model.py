"""Core data model for Timed Rebeca.

Everything the other modules share lives here: the syntax tree produced
by the parser, runtime values, messages, rebec records, whole-system
states, trace events, and the canonical pretty-printer used by round-trip
tests.

Messages, rebec records and trace events are values: nothing writes one
after it is built. A step changes a state by building its receiver's new
record and adding and removing messages, so states share records and
messages freely.

Logical time is a plain ``int`` of ticks everywhere: rebec clocks, message
time tags and deadlines alike. ``NEVER`` marks a deadline that never
expires.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from types import MappingProxyType
from typing import Optional, Union

# Reserved rebec id used as the sender of messages that originate from the
# main block rather than from a running rebec.
EXTERNAL_ID = "external"

# Ticks lie in [0, MAX_TICKS]. NEVER lies above every reachable tick, so it
# sorts after every finite deadline and ``now <= NEVER`` always holds.
MAX_TICKS = 2**63 - 1
NEVER = MAX_TICKS + 1


def deadline_text(dl: int) -> str:
    """A deadline as state keys, message keys and trace events write it."""
    return "inf" if dl == NEVER else str(dl)


# The trace and graph writers write each value exactly as ``json.dumps`` does
# (with ``ensure_ascii`` on, it calls the same C escaper for strings).
def json_str(value: Optional[str]) -> str:
    return "null" if value is None else encode_basestring_ascii(value)


def json_int(value: Optional[int]) -> str:
    return "null" if value is None else str(value)


# ---------------------------------------------------------------------------
# Syntax tree
#
# Position fields never take part in equality so that a parsed model compares
# equal to the re-parse of its pretty-printed text.

Pos = tuple[int, int]  # (line, column), 1-based

# Names with a fixed meaning in a body, which no declaration may take.
RESERVED_NAMES = ("self", "now", "sender")


def _pos_field():
    return field(default=None, compare=False, repr=False)


@dataclass
class Expr:
    pass


@dataclass
class IntLit(Expr):
    value: int
    pos: Optional[Pos] = _pos_field()


@dataclass
class BoolLit(Expr):
    value: bool
    pos: Optional[Pos] = _pos_field()


@dataclass
class VarRef(Expr):
    name: str
    pos: Optional[Pos] = _pos_field()


@dataclass
class NowExpr(Expr):
    pos: Optional[Pos] = _pos_field()


@dataclass
class SenderExpr(Expr):
    pos: Optional[Pos] = _pos_field()


@dataclass
class SelfExpr(Expr):
    pos: Optional[Pos] = _pos_field()


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass
class ChoiceExpr(Expr):
    """Nondeterministic pick among at least two alternatives: ``?(e1, e2, ...)``."""

    options: list[Expr]
    pos: Optional[Pos] = _pos_field()


@dataclass
class Stmt:
    pass


@dataclass
class Assign(Stmt):
    name: str
    value: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass
class SendStmt(Stmt):
    target: str  # "self", a known rebec, or a rebec-valued local
    method: str
    args: list[Expr]
    after: Optional[Expr] = None
    deadline: Optional[Expr] = None
    pos: Optional[Pos] = _pos_field()


@dataclass
class NewStmt(Stmt):
    name: str
    class_name: str
    args: list[Expr]
    pos: Optional[Pos] = _pos_field()


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: Optional[list[Stmt]] = None
    pos: Optional[Pos] = _pos_field()


@dataclass
class DelayStmt(Stmt):
    amount: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass
class NowStmt(Stmt):
    """``now();`` in statement position: reads the clock and discards it."""

    pos: Optional[Pos] = _pos_field()


@dataclass
class Param:
    name: str
    type: str
    pos: Optional[Pos] = _pos_field()


@dataclass
class VarDecl:
    name: str
    type: str  # "int" | "boolean" | "time", or a class name for knownrebecs
    pos: Optional[Pos] = _pos_field()


@dataclass
class MethodDef:
    name: str
    params: list[Param]
    body: list[Stmt]
    pos: Optional[Pos] = _pos_field()


@dataclass
class ReactiveClassDef:
    name: str
    known_decls: list[VarDecl]
    state_decls: list[VarDecl]
    methods: list[MethodDef]
    # Queue length of untimed Rebeca: accepted, warned about, never used.
    queue_bound: Optional[int] = None
    pos: Optional[Pos] = _pos_field()


@dataclass
class InstanceDecl:
    name: str
    class_name: str
    known_args: list[str]
    init_args: list[Expr]  # int/bool literals or env-var references
    pos: Optional[Pos] = _pos_field()


@dataclass
class EnvDecl:
    name: str
    type: str
    pos: Optional[Pos] = _pos_field()


@dataclass
class Model:
    env_decls: list[EnvDecl]
    classes: list[ReactiveClassDef]
    main: list[InstanceDecl]


# ---------------------------------------------------------------------------
# Runtime values


@dataclass(frozen=True)
class RebecRef:
    rebec_id: str


# A value is a plain ``int``, a plain ``bool`` or a RebecRef. ``True == 1`` in
# Python, so code that tells values apart tests ``type(v)``, never ``==``.
Value = Union[int, bool, RebecRef]


def canon_value(v: Value) -> str:
    t = type(v)
    if t is int:
        return str(v)
    if t is bool:
        return "true" if v else "false"
    return f"@{v.rebec_id}"


# ---------------------------------------------------------------------------
# Messages, rebec environments, system states


class Message:
    """One element of the system's message bag.

    ``tt`` and ``dl`` are absolute ticks: the sender's clock plus the
    relative after/deadline offsets, fixed at send time; ``dl`` is NEVER
    when the send had no deadline.

    Every module reads the canonical forms instead of re-rendering the
    arguments: ``canon_args`` (the trace events' ``args``) and ``sort_key``
    (canonical bag order, equality and hashing) are made with the message;
    ``key`` (the JSON-friendly identity in explorer decisions) and ``text``
    (the message's part of a state key) on first use, since a simulation
    never reads them. No field changes after construction.
    """

    __slots__ = ("receiver", "method", "args", "sender", "tt", "dl",
                 "canon_args", "sort_key", "key", "text")

    def __init__(self, receiver: str, method: str, args: tuple[Value, ...],
                 sender: str, tt: int, dl: int):
        self.receiver = receiver
        self.method = method
        self.args = args
        self.sender = sender
        self.tt = tt
        self.dl = dl
        canon_args = self.canon_args = tuple(map(canon_value, args)) if args else ()
        # The canonical args keep ``true`` apart from ``1``, so equality on
        # sort_key stays type-strict.
        self.sort_key = (tt, receiver, method, canon_args, sender, dl)

    def __getattr__(self, name: str):
        # Python calls this only while the ``key`` or ``text`` slot is still
        # unset; once set, reading it is a plain slot read.
        if name == "key":
            value = self.sort_key[:5] + (deadline_text(self.dl),)
        elif name == "text":
            value = (f"{self.tt}>{self.receiver}.{self.method}({','.join(self.canon_args)})"
                     f"<{self.sender}!{deadline_text(self.dl)}")
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def event(self, kind: str, time: int, choices: tuple = ()) -> MessageEvent:
        """This message's ``msg_sent``, ``msg_selected`` or ``msg_purged``
        event at ``time``; ``choices`` are a selection's decisions."""
        # Filled in slot by slot: calling the class costs about twice as much.
        ev = _new_event(MessageEvent)
        ev.kind = kind
        ev.time = time
        ev.rebec = self.receiver
        ev.method = self.method
        ev.msg = self
        ev.choices = choices
        return ev

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return self.sort_key == other.sort_key

    def __hash__(self) -> int:
        return hash(self.sort_key)

    def __repr__(self) -> str:
        return (f"Message(receiver={self.receiver!r}, method={self.method!r},"
                f" args={self.args!r}, sender={self.sender!r}, tt={self.tt!r},"
                f" dl={self.dl!r})")


# Canonical bag order, as a ``key=`` function.
message_sort_key = attrgetter("sort_key")


class RebecEnv:
    """One record of a rebec's private store: its clock, state variables and
    known rebecs. A method's sender and locals live in its frame, not here.

    A record is a value: nothing writes it after it is built. A step builds
    its receiver's new record (``interp.exec_method``), so states, clones and
    the explorer's memo share records freely. ``state_vars`` is a read-only
    view of the dict the record is built from, which the caller gives up;
    ``knowns`` is a read-only view that every record of one rebec shares,
    since a rebec's known rebecs never change. ``key()`` caches the record's
    part of a state key.
    """

    __slots__ = ("rebec_id", "class_name", "now", "state_vars", "knowns", "_key")

    def __init__(self, rebec_id: str, class_name: str, now: int,
                 state_vars: dict[str, Value], knowns: MappingProxyType):
        self.rebec_id = rebec_id
        self.class_name = class_name
        self.now = now
        self.state_vars = MappingProxyType(state_vars)
        self.knowns = knowns
        self._key: Optional[str] = None

    def key(self) -> str:
        """``id:class:now:vars:knowns``. State variables keep declaration
        order (``make_rebec_env`` fills them in that order), knowns sort by
        name."""
        key = self._key
        if key is None:
            svs = ",".join([f"{name}={canon_value(v)}" for name, v in self.state_vars.items()])
            kns = ",".join([f"{name}=@{ref.rebec_id}"
                            for name, ref in sorted(self.knowns.items())])
            key = self._key = f"{self.rebec_id}:{self.class_name}:{self.now}:{svs}:{kns}"
        return key

    def __repr__(self) -> str:
        return f"RebecEnv({self.rebec_id}:{self.class_name} now={self.now})"


class SystemState:
    """A pair of rebec environments and the message bag, plus bookkeeping.

    The bag is a multiset kept in canonical order (``Message.sort_key``) at
    all times: messages enter it only through ``add_message``, and nothing
    reorders it. The messages with the smallest time tag are its prefix, and
    a state key joins it as it stands.

    ``floors`` maps each receiver that has a message with a finite deadline
    in the bag to a bound at or below those messages' deadlines; an entry
    may outlive the messages it bounds. ``late`` is set while the bag may
    hold a time tag past its deadline. ``add_message`` lowers an entry or
    sets ``late``, a removal leaves both valid bounds, and a purge that
    scans the bag makes both exact. Every message is eligible while no
    receiver's clock is past its floor and, under effective deadlines,
    ``late`` is clear.

    ``floors`` is a value, like a record: lowering an entry builds a new
    dict. ``clone`` shares it and the records, which nothing writes, and
    copies the ``envs`` dict and the bag list: O(rebecs + bag) pointer
    copies, which the explorer pays per body it runs and per new key.
    """

    __slots__ = ("envs", "bag", "floors", "late", "env_bindings", "checked")

    def __init__(self, checked, env_bindings: dict[str, Value]):
        self.envs: dict[str, RebecEnv] = {}
        self.bag: list[Message] = []
        self.floors: dict[str, int] = {}
        self.late = False
        self.env_bindings = env_bindings
        self.checked = checked

    def clone(self) -> "SystemState":
        # Not through __init__, whose empty containers would be replaced at once.
        st = SystemState.__new__(SystemState)
        st.envs = dict(self.envs)
        st.bag = list(self.bag)
        st.floors = self.floors
        st.late = self.late
        st.env_bindings = self.env_bindings
        st.checked = self.checked
        return st

    def add_message(self, msg: Message) -> None:
        """Put ``msg`` into the bag at its place in canonical order."""
        insort(self.bag, msg, key=message_sort_key)
        dl = msg.dl
        if dl != NEVER:  # the one comparison a message without a deadline costs
            if msg.tt > dl:
                self.late = True
            floors = self.floors
            if floors.get(msg.receiver, NEVER) > dl:
                self.floors = {**floors, msg.receiver: dl}

    def remove_message(self, msg: Message) -> None:
        """Take ``msg``, an object from the bag, out of it by identity: any
        of several equal copies is the same transition.

        The scan starts at the front: a selected message is a candidate, so
        it lies in the prefix of least time tags, in practice within the
        first few messages, where a scan beats a bisection of the bag."""
        bag = self.bag
        for i, m in enumerate(bag):
            if m is msg:
                del bag[i]
                return
        raise ValueError("selected message is not in the bag")


# ---------------------------------------------------------------------------
# Trace events

EV_SENT = "msg_sent"
EV_SELECTED = "msg_selected"
EV_PURGED = "msg_purged"
EV_DELAY = "delay_executed"
EV_CREATED = "rebec_created"
EV_ENDED = "run_ended"


@dataclass(slots=True)
class TraceEvent:
    """A single observation made during simulation or exploration. The
    program builds one for ``rebec_created``, ``delay_executed`` and
    ``run_ended``; a message's events are ``MessageEvent``s, which alone
    carry the message's arguments and a selection's choices.

    ``time`` is the logical time at which the event happened: for
    ``msg_selected`` that is max(tt, receiver clock) — the instant the
    method actually starts executing.

    Events are never mutated after construction, since traces, explorer
    edges and monitor witnesses share them; they are slotted, not frozen,
    because a frozen dataclass is about three times as slow to build.
    """

    kind: str
    time: int
    rebec: Optional[str] = None
    method: Optional[str] = None
    sender: Optional[str] = None
    tt: Optional[int] = None
    dl: Optional[str] = None  # decimal string or "inf"
    reason: Optional[str] = None  # run_ended only
    msg = None  # a MessageEvent's message; readers test ``ev.msg`` on either kind


class MessageEvent:
    """A ``msg_sent``, ``msg_selected`` or ``msg_purged`` event. Only
    ``Message.event`` builds one; it refers to its message instead of copying
    the message's fields.

    ``rebec`` and ``method`` are slots, since monitors read them on every
    event; ``sender``, ``tt``, ``dl`` (the deadline text) and ``args`` (the
    canonical arguments) read the message, and ``reason`` is None. Two events
    are equal when their kind, time, message and choices are. Like a
    ``TraceEvent``, nothing writes one after it is built.
    """

    __slots__ = ("kind", "time", "rebec", "method", "msg", "choices")
    reason = None

    @property
    def sender(self) -> str:
        return self.msg.sender

    @property
    def tt(self) -> int:
        return self.msg.tt

    @property
    def dl(self) -> str:
        return deadline_text(self.msg.dl)

    @property
    def args(self) -> tuple[str, ...]:
        return self.msg.canon_args

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MessageEvent):
            return NotImplemented
        return ((self.kind, self.time, self.msg, self.choices)
                == (other.kind, other.time, other.msg, other.choices))

    def __repr__(self) -> str:
        return (f"MessageEvent(kind={self.kind!r}, time={self.time!r}, msg={self.msg!r},"
                f" choices={self.choices!r})")


_new_event = object.__new__

# Every event of a trace, an edge or a node.
Event = Union[TraceEvent, MessageEvent]


# ---------------------------------------------------------------------------
# Pretty-printer

# Binary operators by precedence level, loosest first; all are left
# associative. The parser climbs and the printer parenthesizes by
# ``BINARY_PREC``, each operator's level.
BINARY_LEVELS = (("||",), ("&&",), ("==", "!="), ("<", "<=", ">", ">="),
                 ("+", "-"), ("*", "/", "%"))
BINARY_PREC = {op: level for level, ops in enumerate(BINARY_LEVELS, start=1) for op in ops}
_UNARY_PREC = len(BINARY_LEVELS) + 1


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, NowExpr):
        return "now()"
    if isinstance(e, SenderExpr):
        return "sender"
    if isinstance(e, SelfExpr):
        return "self"
    if isinstance(e, ChoiceExpr):
        return "?(" + ", ".join(format_expr(o) for o in e.options) + ")"
    if isinstance(e, UnaryOp):
        inner = format_expr(e.operand, _UNARY_PREC)
        return f"{e.op}{inner}"
    # A BinaryOp: the parser builds no other node.
    prec = BINARY_PREC[e.op]
    left = format_expr(e.left, prec)
    right = format_expr(e.right, prec + 1)  # left-associative
    text = f"{left} {e.op} {right}"
    return f"({text})" if prec < parent_prec else text


def _format_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "    " * indent
    if isinstance(s, Assign):
        out.append(f"{pad}{s.name} = {format_expr(s.value)};")
    elif isinstance(s, SendStmt):
        call = f"{s.target}.{s.method}(" + ", ".join(format_expr(a) for a in s.args) + ")"
        if s.after is not None:
            call += f" after({format_expr(s.after)})"
        if s.deadline is not None:
            call += f" deadline({format_expr(s.deadline)})"
        out.append(f"{pad}{call};")
    elif isinstance(s, NewStmt):
        args = ", ".join(format_expr(a) for a in s.args)
        out.append(f"{pad}{s.name} = new {s.class_name}({args});")
    elif isinstance(s, DelayStmt):
        out.append(f"{pad}delay({format_expr(s.amount)});")
    elif isinstance(s, NowStmt):
        out.append(f"{pad}now();")
    else:  # an IfStmt: the parser builds no other node
        out.append(f"{pad}if ({format_expr(s.cond)}) {{")
        for sub in s.then_body:
            _format_stmt(sub, indent + 1, out)
        if s.else_body is not None:
            out.append(f"{pad}}} else {{")
            for sub in s.else_body:
                _format_stmt(sub, indent + 1, out)
        out.append(f"{pad}}}")


def pretty_print(model: Model) -> str:
    """Render a model as canonical source text; parsing it back yields an
    equal tree."""
    out: list[str] = []
    for env in model.env_decls:
        out.append(f"env {env.type} {env.name};")
    if model.env_decls:
        out.append("")
    for cls in model.classes:
        bound = f"({cls.queue_bound})" if cls.queue_bound is not None else ""
        out.append(f"reactiveclass {cls.name}{bound} {{")
        out.append("    knownrebecs {")
        for d in cls.known_decls:
            out.append(f"        {d.type} {d.name};")
        out.append("    }")
        out.append("    statevars {")
        for d in cls.state_decls:
            out.append(f"        {d.type} {d.name};")
        out.append("    }")
        for m in cls.methods:
            params = ", ".join(f"{p.type} {p.name}" for p in m.params)
            out.append(f"    msgsrv {m.name}({params}) {{")
            for s in m.body:
                _format_stmt(s, 2, out)
            out.append("    }")
        out.append("}")
        out.append("")
    out.append("main {")
    for inst in model.main:
        knowns = ", ".join(inst.known_args)
        inits = ", ".join(format_expr(a) for a in inst.init_args)
        out.append(f"    {inst.class_name} {inst.name}({knowns}):({inits});")
    out.append("}")
    return "\n".join(out) + "\n"
