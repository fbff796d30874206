"""Parsing and static checking of ``.rebeca`` sources.

``parse_model`` turns text into a syntax tree. ``validate_model`` checks the
model's declarations (env variables, classes, ``main``, the targets of
``new``) and hands each message server to ``interp.compile_method``, the one
walk that resolves, type-checks and compiles a body, and returns a
``CheckedModel`` ready for execution. Both raise ``SourceError`` carrying
positioned diagnostics.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Optional

from .interp import CompiledMethod, compile_method, types_compatible
from .model import (
    BINARY_LEVELS,
    Assign,
    BinaryOp,
    BoolLit,
    ChoiceExpr,
    DelayStmt,
    EnvDecl,
    Expr,
    IfStmt,
    InstanceDecl,
    IntLit,
    MethodDef,
    Model,
    NewStmt,
    NowExpr,
    NowStmt,
    Param,
    Pos,
    RESERVED_NAMES,
    ReactiveClassDef,
    SelfExpr,
    SendStmt,
    SenderExpr,
    Stmt,
    UnaryOp,
    VarDecl,
    VarRef,
)

KEYWORDS = {
    "reactiveclass", "knownrebecs", "statevars", "msgsrv", "main", "env",
    "new", "if", "else", "delay", "now", "after", "deadline", "self",
    "sender", "int", "boolean", "time", "true", "false",
}
BASE_TYPES = ("int", "boolean", "time")

# The lexemes, tried in this order at each position: digits before words,
# ``//`` and ``/*`` before the symbol ``/``, and multi-character symbols
# before their one-character prefixes. ``re.ASCII`` keeps ``\d`` to ``0-9``
# and ``\w`` to ``[A-Za-z0-9_]``, so a word never starts with a digit.
_TOKEN_RE = re.compile(r"""
    (?P<space>[ \t\r\n]+)
  | (?P<int>\d+)
  | (?P<word>\w+)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<unterminated>/\*)
  | (?P<symbol>&&|\|\||==|!=|<=|>=|[{}();,.=<>+\-*/%!?:])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL | re.ASCII)
_INT_RE = re.compile("-?[0-9]+")


def parse_int(text: str) -> int:
    """An integer from outside a model (a flag, an env binding, a sweep or
    monitor file) in the language's spelling, ``-?[0-9]+``; ``ValueError``
    for any other text, even ``٣``, ``1_0`` or ``+4``, which ``int`` reads."""
    if _INT_RE.fullmatch(text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


@dataclass(frozen=True)
class ParseError:
    pos: Pos
    message: str
    severity: str = "error"  # "error" | "warning"

    def render(self, filename: str = "<input>") -> str:
        line, col = self.pos
        return f"{filename}:{line}:{col}: {self.severity}: {self.message}"


class SourceError(Exception):
    """Raised when parsing or validation fails; carries all diagnostics."""

    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        super().__init__("; ".join(e.render() for e in errors[:5]))


@dataclass(slots=True)
class Token:
    kind: str  # "ident" | "keyword" | "int" | "symbol" | "eof"
    text: str
    pos: Pos


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, ending in one ``eof`` token.

    Columns count characters. A line comment leaves the column where the
    comment starts. An identifier is ``[A-Za-z_][A-Za-z0-9_]*`` and an
    integer a run of ``0-9``; any other character outside comments, such
    as ``é``, ``٣`` or ``²``, is an unexpected character.
    """
    tokens: list[Token] = []
    errors: list[ParseError] = []
    match = _TOKEN_RE.match
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        m = match(source, i)
        kind = m.lastgroup
        text = m.group()
        i = m.end()
        if kind == "space" or kind == "block_comment":
            newlines = text.count("\n")
            if newlines:
                line, col = line + newlines, len(text) - text.rfind("\n")
            else:
                col += len(text)
        elif kind == "word":
            tokens.append(Token("keyword" if text in KEYWORDS else "ident", text, (line, col)))
            col += len(text)
        elif kind == "symbol" or kind == "int":
            tokens.append(Token(kind, text, (line, col)))
            col += len(text)
        elif kind == "unterminated":
            errors.append(ParseError((line, col), "unterminated block comment"))
            break
        elif kind == "other":
            errors.append(ParseError((line, col), f"unexpected character {text!r}"))
            col += 1
        # a line comment runs to the newline and leaves the column as it is
    tokens.append(Token("eof", "", (line, col)))
    if errors:
        raise SourceError(errors)
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.errors: list[ParseError] = []

    # -- token helpers ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def peek(self, offset: int = 1) -> Token:
        j = min(self.i + offset, len(self.tokens) - 1)
        return self.tokens[j]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in ("symbol", "keyword")

    def accept(self, text: str) -> Optional[Token]:
        if self.at(text):
            return self.advance()
        return None

    def expect(self, text: str, what: str = "") -> Token:
        if self.at(text):
            return self.advance()
        found = self.cur.text or "end of input"
        msg = f"expected {text!r}"
        if what:
            msg += f" {what}"
        msg += f", found {found!r}"
        raise _Abort(ParseError(self.cur.pos, msg))

    def expect_ident(self, what: str) -> Token:
        if self.cur.kind == "ident":
            return self.advance()
        found = self.cur.text or "end of input"
        raise _Abort(ParseError(self.cur.pos, f"expected {what}, found {found!r}"))

    def fail(self, message: str, pos: Optional[Pos] = None) -> "_Abort":
        return _Abort(ParseError(pos or self.cur.pos, message))

    def sync_to(self, closers: tuple[str, ...]) -> None:
        """Panic-mode recovery: skip tokens until one of ``closers`` (consumed
        if it is ';') or a block boundary."""
        depth = 0
        while self.cur.kind != "eof":
            t = self.cur.text
            if depth == 0 and t in closers:
                if t == ";":
                    self.advance()
                return
            if t == "{":
                depth += 1
            elif t == "}":
                if depth == 0:
                    return
                depth -= 1
            self.advance()

    # -- grammar ----------------------------------------------------------

    def parse_model(self) -> Model:
        env_decls: list[EnvDecl] = []
        classes: list[ReactiveClassDef] = []
        main: Optional[list[InstanceDecl]] = None
        while self.cur.kind != "eof":
            try:
                if self.at("env"):
                    if classes or main is not None:
                        raise self.fail("env declarations must precede classes and main")
                    env_decls.extend(self.parse_env_decl())
                elif self.at("reactiveclass"):
                    if main is not None:
                        raise self.fail("reactive classes must precede main")
                    classes.append(self.parse_class())
                elif self.at("main"):
                    if main is not None:
                        raise self.fail("duplicate main block")
                    main = self.parse_main()
                else:
                    raise self.fail(
                        f"expected 'env', 'reactiveclass' or 'main', found {self.cur.text!r}"
                    )
            except _Abort as abort:
                self.errors.append(abort.error)
                self.sync_to((";", "}"))
                self.accept("}")
        if main is None and not self.errors:
            self.errors.append(ParseError(self.cur.pos, "missing main block"))
        if self.errors:
            raise SourceError(self.errors)
        return Model(env_decls=env_decls, classes=classes, main=main or [])

    def parse_names(self, what: str) -> list[Token]:
        """``name, ..., name;``: the names of one declaration, each ``what``."""
        names = [self.expect_ident(what)]
        while self.accept(","):
            names.append(self.expect_ident(what))
        self.expect(";")
        return names

    def parse_env_decl(self) -> list[EnvDecl]:
        self.expect("env")
        typ = self.parse_base_type()
        return [EnvDecl(name=name.text, type=typ, pos=name.pos)
                for name in self.parse_names("environment variable name")]

    def parse_base_type(self) -> str:
        if self.cur.text in BASE_TYPES:
            return self.advance().text
        raise self.fail(f"expected a base type (int, boolean, time), found {self.cur.text!r}")

    def parse_class(self) -> ReactiveClassDef:
        self.expect("reactiveclass")
        name = self.expect_ident("class name")
        queue_bound = None
        if self.accept("("):
            bound = self.cur
            if bound.kind != "int":
                raise self.fail("queue bound must be an integer literal")
            self.advance()
            queue_bound = int(bound.text)
            self.expect(")")
        self.expect("{", "to open class body")

        self.expect("knownrebecs")
        self.expect("{")
        known_decls: list[VarDecl] = []
        while not self.at("}"):
            cls = self.expect_ident("known rebec class name")
            known_decls += [VarDecl(name=var.text, type=cls.text, pos=var.pos)
                            for var in self.parse_names("known rebec name")]
        self.expect("}")
        if self.at("knownrebecs"):
            raise self.fail("duplicate knownrebecs block")

        self.expect("statevars")
        self.expect("{")
        state_decls: list[VarDecl] = []
        while not self.at("}"):
            typ = self.parse_base_type()
            state_decls += [VarDecl(name=var.text, type=typ, pos=var.pos)
                            for var in self.parse_names("state variable name")]
        self.expect("}")
        if self.at("statevars") or self.at("knownrebecs"):
            raise self.fail(f"duplicate {self.cur.text} block")

        methods: list[MethodDef] = []
        while self.at("msgsrv"):
            try:
                methods.append(self.parse_method())
            except _Abort as abort:
                self.errors.append(abort.error)
                self.sync_to(("}",))
                self.accept("}")
        self.expect("}", "to close class body")
        return ReactiveClassDef(
            name=name.text,
            known_decls=known_decls,
            state_decls=state_decls,
            methods=methods,
            queue_bound=queue_bound,
            pos=name.pos,
        )

    def parse_method(self) -> MethodDef:
        self.expect("msgsrv")
        name = self.expect_ident("message server name")
        self.expect("(")
        params: list[Param] = []
        while not self.at(")"):
            typ = self.parse_base_type()
            pname = self.expect_ident("parameter name")
            params.append(Param(name=pname.text, type=typ, pos=pname.pos))
            if not self.at(")"):
                self.expect(",")
        self.expect(")")
        body = self.parse_block()
        return MethodDef(name=name.text, params=params, body=body, pos=name.pos)

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            if self.cur.kind == "eof":
                raise self.fail("unexpected end of input inside block")
            try:
                stmts.append(self.parse_stmt())
            except _Abort as abort:
                self.errors.append(abort.error)
                self.sync_to((";", "}"))
        self.expect("}")
        return stmts

    def parse_stmt(self) -> Stmt:
        tok = self.cur
        if self.at("delay"):
            self.advance()
            self.expect("(")
            amount = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return DelayStmt(amount=amount, pos=tok.pos)
        if self.at("now"):
            self.advance()
            self.expect("(")
            self.expect(")")
            self.expect(";")
            return NowStmt(pos=tok.pos)
        if self.at("if"):
            self.advance()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_branch()
            else_body = None
            if self.accept("else"):
                else_body = self.parse_branch()
            return IfStmt(cond=cond, then_body=then_body, else_body=else_body, pos=tok.pos)
        if self.at("after") or self.at("deadline"):
            raise self.fail(f"{tok.text!r} may only follow a message send")
        if self.at("self") or tok.kind == "ident":
            # ident '=' ...  |  ident '.' method(...)  |  self '.' method(...)
            nxt = self.peek()
            if tok.kind == "ident" and nxt.text == "=":
                self.advance()
                self.advance()
                if self.at("new"):
                    self.advance()
                    cls = self.expect_ident("class name")
                    self.expect("(")
                    args = self.parse_args()
                    self.expect(")")
                    self.expect(";")
                    return NewStmt(name=tok.text, class_name=cls.text, args=args, pos=tok.pos)
                value = self.parse_expr()
                self.expect(";")
                return Assign(name=tok.text, value=value, pos=tok.pos)
            if nxt.text == ".":
                self.advance()
                self.advance()
                method = self.expect_ident("message server name")
                self.expect("(")
                args = self.parse_args()
                self.expect(")")
                after = deadline = None
                while self.at("after") or self.at("deadline"):
                    word = self.advance().text
                    self.expect("(")
                    value = self.parse_expr()
                    self.expect(")")
                    if word == "after":
                        if after is not None:
                            raise self.fail("duplicate after clause", tok.pos)
                        after = value
                    else:
                        if deadline is not None:
                            raise self.fail("duplicate deadline clause", tok.pos)
                        deadline = value
                self.expect(";")
                return SendStmt(
                    target=tok.text, method=method.text, args=args,
                    after=after, deadline=deadline, pos=tok.pos,
                )
        raise self.fail(f"expected a statement, found {tok.text or 'end of input'!r}")

    def parse_branch(self) -> list[Stmt]:
        if self.at("{"):
            return self.parse_block()
        return [self.parse_stmt()]

    def parse_args(self) -> list[Expr]:
        args: list[Expr] = []
        while not self.at(")"):
            args.append(self.parse_expr())
            if not self.at(")"):
                self.expect(",")
        return args

    # Expressions: C-style precedence, left-associative binary operators.

    def parse_expr(self) -> Expr:
        return self.parse_binary(1)

    def parse_binary(self, level: int) -> Expr:
        if level > len(BINARY_LEVELS):
            return self.parse_unary()
        ops = BINARY_LEVELS[level - 1]
        left = self.parse_binary(level + 1)
        while self.cur.kind == "symbol" and self.cur.text in ops:
            op = self.advance()
            right = self.parse_binary(level + 1)
            left = BinaryOp(op=op.text, left=left, right=right, pos=op.pos)
        return left

    def parse_unary(self) -> Expr:
        if self.at("!") or self.at("-"):
            op = self.advance()
            operand = self.parse_unary()
            return UnaryOp(op=op.text, operand=operand, pos=op.pos)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "int":
            self.advance()
            return IntLit(value=int(tok.text), pos=tok.pos)
        if self.at("true") or self.at("false"):
            self.advance()
            return BoolLit(value=tok.text == "true", pos=tok.pos)
        if self.at("now"):
            self.advance()
            self.expect("(")
            self.expect(")")
            return NowExpr(pos=tok.pos)
        if self.at("sender"):
            self.advance()
            return SenderExpr(pos=tok.pos)
        if self.at("self"):
            self.advance()
            return SelfExpr(pos=tok.pos)
        if self.at("?"):
            self.advance()
            self.expect("(")
            options = [self.parse_expr()]
            while self.accept(","):
                options.append(self.parse_expr())
            self.expect(")")
            if len(options) < 2:
                raise self.fail("nondeterministic choice needs at least two alternatives", tok.pos)
            return ChoiceExpr(options=options, pos=tok.pos)
        if self.at("("):
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            self.advance()
            return VarRef(name=tok.text, pos=tok.pos)
        raise self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

    def parse_main(self) -> list[InstanceDecl]:
        self.expect("main")
        self.expect("{")
        instances: list[InstanceDecl] = []
        while not self.at("}"):
            if self.cur.kind == "eof":
                raise self.fail("unexpected end of input inside main")
            try:
                cls = self.expect_ident("class name")
                name = self.expect_ident("instance name")
                self.expect("(")
                known_args: list[str] = []
                while not self.at(")"):
                    known_args.append(self.expect_ident("known rebec name").text)
                    if not self.at(")"):
                        self.expect(",")
                self.expect(")")
                self.expect(":")
                self.expect("(")
                init_args = self.parse_args()
                self.expect(")")
                self.expect(";")
                instances.append(InstanceDecl(
                    name=name.text, class_name=cls.text,
                    known_args=known_args, init_args=init_args, pos=name.pos,
                ))
            except _Abort as abort:
                self.errors.append(abort.error)
                self.sync_to((";", "}"))
        self.expect("}")
        return instances


class _Abort(Exception):
    def __init__(self, error: ParseError):
        self.error = error
        super().__init__(error.message)


def parse_model(source: str) -> Model:
    """Parse source text into a Model; raises SourceError on any syntax error."""
    return _Parser(tokenize(source)).parse_model()


# ---------------------------------------------------------------------------
# Validation


@dataclass
class MethodInfo:
    definition: MethodDef
    param_types: list[str]
    # The body compiled to closures by the walk that type-checks it.
    code: Optional[CompiledMethod] = None


@dataclass
class ClassInfo:
    definition: ReactiveClassDef
    known_types: dict[str, str]
    state_types: dict[str, str]
    methods: dict[str, MethodInfo]


@dataclass
class CheckedModel:
    """A validated model: every name resolved, every arity and type checked."""

    model: Model
    classes: dict[str, ClassInfo]
    env_types: dict[str, str]
    warnings: list[ParseError]
    init_readers: dict[str, list[Callable]]  # instance -> its state initializers' readers
    new_targets: dict[str, Pos]  # class -> position of its first new, in source order


class _Checker:
    def __init__(self, model: Model):
        self.model = model
        self.errors: list[ParseError] = []
        self.warnings: list[ParseError] = []
        self.env_types: dict[str, str] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.new_targets: dict[str, Pos] = {}  # compile order is source order
        self.init_readers: dict[str, list[Callable]] = {}

    def error(self, pos: Optional[Pos], message: str) -> None:
        self.errors.append(ParseError(pos or (1, 1), message))

    def warn(self, pos: Optional[Pos], message: str) -> None:
        self.warnings.append(ParseError(pos or (1, 1), message, severity="warning"))

    def check(self) -> CheckedModel:
        for env in self.model.env_decls:
            if env.name in self.env_types:
                self.error(env.pos, f"duplicate env variable {env.name!r}")
            if env.name in RESERVED_NAMES:
                self.error(env.pos, f"env variable shadows reserved name {env.name!r}")
            self.env_types[env.name] = "int" if env.type == "time" else env.type

        for cls in self.model.classes:
            if cls.name in self.classes:
                self.error(cls.pos, f"duplicate class {cls.name!r}")
                continue
            self.classes[cls.name] = self.build_class_info(cls)

        for info in self.classes.values():
            for method_info in info.methods.values():
                method_info.code = compile_method(method_info, info, self)

        self.check_main()

        for cls_name in sorted(self.new_targets):
            info = self.classes.get(cls_name)
            if info and info.definition.known_decls:
                self.error(
                    info.definition.pos,
                    f"class {cls_name!r} is created with 'new' but declares knownrebecs;"
                    " dynamically created rebecs have no acquaintance bindings",
                )

        if self.errors:
            raise SourceError(self.errors + self.warnings)
        return CheckedModel(
            model=self.model, classes=self.classes,
            env_types=self.env_types, warnings=self.warnings,
            init_readers=self.init_readers, new_targets=self.new_targets,
        )

    def build_class_info(self, cls: ReactiveClassDef) -> ClassInfo:
        if cls.queue_bound is not None:
            self.warn(cls.pos, f"queue bound on class {cls.name!r} is ignored"
                               " (message bags are unbounded)")
        known_types: dict[str, str] = {}
        for d in cls.known_decls:
            if d.name in RESERVED_NAMES:
                self.error(d.pos, f"known rebec shadows reserved name {d.name!r}")
            if d.name in known_types:
                self.error(d.pos, f"duplicate known rebec {d.name!r}")
            known_types[d.name] = d.type
        state_types: dict[str, str] = {}
        for d in cls.state_decls:
            if d.name in RESERVED_NAMES:
                self.error(d.pos, f"state variable shadows reserved name {d.name!r}")
            if d.name in state_types or d.name in known_types:
                self.error(d.pos, f"duplicate variable {d.name!r}")
            if d.name in self.env_types:
                self.error(d.pos, f"state variable {d.name!r} shadows an env variable")
            state_types[d.name] = d.type
        methods: dict[str, MethodInfo] = {}
        for m in cls.methods:
            if m.name in methods:
                self.error(m.pos, f"duplicate message server {m.name!r} in class {cls.name!r}")
                continue
            seen_params: set[str] = set()
            for p in m.params:
                if p.name in RESERVED_NAMES:
                    self.error(p.pos, f"parameter shadows reserved name {p.name!r}")
                if p.name in seen_params:
                    self.error(p.pos, f"duplicate parameter {p.name!r}")
                if p.name in state_types or p.name in known_types:
                    self.error(p.pos, f"parameter {p.name!r} shadows a class variable")
                seen_params.add(p.name)
            methods[m.name] = MethodInfo(
                definition=m,
                param_types=["int" if p.type == "time" else p.type for p in m.params],
            )
        return ClassInfo(definition=cls, known_types=known_types,
                         state_types=state_types, methods=methods)

    # -- main block ----------------------------------------------------------

    def check_main(self) -> None:
        if not self.model.main:
            self.error(None, "main block declares no rebecs")
        seen: dict[str, str] = {}
        for inst in self.model.main:
            if inst.name in seen:
                self.error(inst.pos, f"duplicate instance name {inst.name!r}")
            if inst.name in RESERVED_NAMES:
                self.error(inst.pos, f"instance shadows reserved name {inst.name!r}")
            if inst.class_name not in self.classes:
                self.error(inst.pos, f"unknown class {inst.class_name!r} in main")
                continue
            seen[inst.name] = inst.class_name
        for inst in self.model.main:
            info = self.classes.get(inst.class_name)
            if info is None:
                continue
            initial = info.methods.get("initial")
            if initial is None:
                self.error(inst.pos, f"class {inst.class_name!r} instantiated in main"
                                     " has no initial message server")
            elif initial.param_types:
                self.error(inst.pos,
                           f"initial of {inst.class_name!r} takes parameters; rebecs"
                           " instantiated in main require a parameterless initial")
            declared = info.definition.known_decls
            if len(inst.known_args) != len(declared):
                self.error(inst.pos,
                           f"instance {inst.name!r} passes {len(inst.known_args)} known"
                           f" rebec(s), class declares {len(declared)}")
            for arg, decl in zip(inst.known_args, declared):
                bound_class = seen.get(arg)
                if bound_class is None:
                    self.error(inst.pos, f"unknown rebec {arg!r} passed to {inst.name!r}")
                elif bound_class != decl.type:
                    self.error(inst.pos,
                               f"known rebec {decl.name!r} of {inst.name!r} must be a"
                               f" {decl.type}, {arg!r} is a {bound_class}")
            state_decls = info.definition.state_decls
            if len(inst.init_args) > len(state_decls):
                self.error(inst.pos,
                           f"instance {inst.name!r} passes {len(inst.init_args)} state"
                           f" value(s), class declares {len(state_decls)}")
            readers = self.init_readers[inst.name] = []
            for arg, decl in zip(inst.init_args, state_decls):
                t, read = self.init_arg(arg)
                if t is None:
                    self.error(getattr(arg, "pos", inst.pos),
                               "state initializers must be literals or env variables")
                elif not types_compatible(decl.type, t):
                    self.error(getattr(arg, "pos", inst.pos),
                               f"state variable {decl.name!r} is {decl.type},"
                               f" initializer is {t}")
                readers.append(read)

    def init_arg(self, arg: Expr) -> tuple[Optional[str], Optional[Callable]]:
        """The type of a state initializer in main and the reader of its
        value from the env bindings; (None, None) for a form it may not take."""
        if isinstance(arg, UnaryOp) and arg.op == "-" and isinstance(arg.operand, IntLit):
            value = -arg.operand.value
            return "int", lambda env: value
        if isinstance(arg, (IntLit, BoolLit)):
            value = arg.value
            return ("int" if isinstance(arg, IntLit) else "boolean"), lambda env: value
        if isinstance(arg, VarRef) and arg.name in self.env_types:
            return self.env_types[arg.name], itemgetter(arg.name)
        return None, None


def validate_model(model: Model) -> CheckedModel:
    """Resolve and type-check a parsed model; raises SourceError on faults."""
    return _Checker(model).check()


def load_model(source: str) -> CheckedModel:
    """parse + validate in one step."""
    return validate_model(parse_model(source))
