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
from functools import partial
from operator import itemgetter
from typing import Callable, Optional

from .interp import CompiledMethod, compile_method
from .model import (
    BINARY_PREC,
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

# One match per lexeme: a run of whitespace, then the lexeme, each in a
# group of its own. Only whitespace at the end of the text matches no lexeme.
# Words and symbols, the most common lexemes, come first; the symbol ``/``
# is not followed by ``/`` or ``*``, which start comments. ``re.ASCII`` keeps
# ``\d`` to ``0-9`` and ``\w`` to ``[A-Za-z0-9_]``.
_TOKEN_RE = re.compile(r"""
    ([ \t\r\n]*)
    (                                           # the lexeme
        ([A-Za-z_]\w*)                          # word
      | ([{}();,.+\-*%?:]|[=!<>]=?|&&|\|\||/(?![/*]))  # symbol
      | (\d+)                                   # integer
      | (//[^\n]*)                              # line comment
      | (/\*.*?\*/)                             # block comment
      | (/\*)                                   # unterminated block comment
      | (.)                                     # any other character
    )?
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
    append = tokens.append
    # Positions come from offsets: a lexeme starts where the previous one
    # ends plus the whitespace between them, and ``line`` starts at offset
    # ``line_start``.
    line, line_start, end = 1, 0, 0
    eof_pos = None
    for (space, lexeme, word, symbol, number, line_comment, block_comment,
         unterminated, other) in _TOKEN_RE.findall(source):
        start = end + len(space)
        end = start + len(lexeme)
        if "\n" in space:
            line += space.count("\n")
            line_start = start - len(space) + space.rfind("\n") + 1
        pos = (line, start - line_start + 1)
        if symbol:
            append(Token("symbol", symbol, pos))
        elif word:
            append(Token("keyword" if word in KEYWORDS else "ident", word, pos))
        elif number:
            append(Token("int", number, pos))
        elif line_comment:
            if end == len(source):  # eof stays where a last line comment starts
                eof_pos = pos
        elif block_comment:
            if "\n" in block_comment:
                line += block_comment.count("\n")
                line_start = start + block_comment.rfind("\n") + 1
        elif unterminated:
            errors.append(ParseError(pos, "unterminated block comment"))
            break
        elif other:
            errors.append(ParseError(pos, f"unexpected character {other!r}"))
    if errors:
        raise SourceError(errors)
    append(Token("eof", "", eof_pos or (line, end - line_start + 1)))
    return tokens


# A statement or expression may nest at most this deep. Each ``if``, unary
# or binary operator, nondeterministic choice and pair of parentheses is one
# level, so the checker, the compiled closures, the printer and the Erlang
# emitter, which recurse a few frames per level, stay well inside Python's
# default recursion limit.
MAX_NESTING = 100
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"


class _Parser:
    """Recursive descent over the token list. ``cur`` is the current token;
    only the token helpers move it.

    ``depth`` counts the levels open around the current token. Each
    expression rule leaves the height of the tree it built, in levels, in
    ``height``, since an operator chain is a loop here but a deep tree for
    every later walk.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.cur = tokens[0]
        self.errors: list[ParseError] = []
        self.depth = 0
        self.height = 0

    # -- token helpers ----------------------------------------------------
    # ``at``, ``accept`` and ``expect`` compare texts only: they are asked
    # for symbols and keywords, which no identifier or integer spells. A
    # token ``expect`` matches is never ``eof``, so it steps past it without
    # ``advance``'s check.

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
            self.cur = self.tokens[self.i]
        return tok

    def at(self, text: str) -> bool:
        return self.cur.text == text

    def accept(self, text: str) -> Optional[Token]:
        return self.advance() if self.cur.text == text else None

    def expect(self, text: str, what: str = "") -> Token:
        tok = self.cur
        if tok.text == text:
            self.i += 1
            self.cur = self.tokens[self.i]
            return tok
        found = tok.text or "end of input"
        msg = f"expected {text!r}"
        if what:
            msg += f" {what}"
        msg += f", found {found!r}"
        raise _Abort(ParseError(tok.pos, msg))

    def expect_ident(self, what: str) -> Token:
        if self.cur.kind == "ident":
            return self.advance()
        found = self.cur.text or "end of input"
        raise self.fail(f"expected {what}, found {found!r}")

    def fail(self, message: str, pos: Optional[Pos] = None) -> "_Abort":
        return _Abort(ParseError(pos or self.cur.pos, message))

    def enter(self, tok: Token) -> None:
        """Open one level at ``tok``, which must not pass the bound."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(_TOO_DEEP, tok.pos)

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

    def recover(self, abort: "_Abort", closers: tuple[str, ...], depth: int = 0) -> None:
        """Record ``abort``'s error, close the levels it left open and skip
        to one of ``closers``."""
        self.errors.append(abort.error)
        self.depth = depth
        self.sync_to(closers)

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
                self.recover(abort, (";", "}"))
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

        known_decls = self.parse_decls(
            "knownrebecs", lambda: self.expect_ident("known rebec class name").text,
            "known rebec name")
        if self.at("knownrebecs"):
            raise self.fail("duplicate knownrebecs block")
        state_decls = self.parse_decls("statevars", self.parse_base_type, "state variable name")
        if self.cur.text in ("statevars", "knownrebecs"):
            raise self.fail(f"duplicate {self.cur.text} block")

        methods: list[MethodDef] = []
        while self.at("msgsrv"):
            try:
                methods.append(self.parse_method())
            except _Abort as abort:
                self.recover(abort, ("}",))
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

    def parse_decls(self, block: str, parse_type: Callable[[], str], what: str) -> list[VarDecl]:
        """``block { T name, ..., name; ... }``, each ``T`` read by ``parse_type``."""
        self.expect(block)
        self.expect("{")
        decls: list[VarDecl] = []
        while not self.at("}"):
            typ = parse_type()
            decls += [VarDecl(var.text, typ, var.pos) for var in self.parse_names(what)]
        self.expect("}")
        return decls

    def parse_method(self) -> MethodDef:
        self.expect("msgsrv")
        name = self.expect_ident("message server name")
        params = self.parse_list(self.parse_param)
        body = self.parse_block()
        return MethodDef(name=name.text, params=params, body=body, pos=name.pos)

    def parse_param(self) -> Param:
        typ = self.parse_base_type()
        name = self.expect_ident("parameter name")
        return Param(name.text, typ, name.pos)

    def parse_list(self, item: Callable) -> list:
        """``(item, ..., item)``, each parsed by ``item``."""
        self.expect("(")
        items = []
        while self.cur.text != ")":
            items.append(item())
            if self.cur.text != ")":
                self.expect(",")
        self.expect(")")
        return items

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        stmts: list[Stmt] = []
        depth = self.depth
        while self.cur.text != "}":
            if self.cur.kind == "eof":
                raise self.fail("unexpected end of input inside block")
            try:
                stmts.append(self.parse_stmt())
            except _Abort as abort:
                self.recover(abort, (";", "}"), depth)
        self.expect("}")
        return stmts

    # Statements and operands dispatch on their first token: an identifier
    # or ``self``, or the keyword or symbol that keys ``_STMT_RULES`` or
    # ``_OPERAND_RULES``.

    def parse_stmt(self) -> Stmt:
        tok = self.cur
        if tok.kind == "ident" or tok.text == "self":
            # name = ...  |  name.method(...)  |  self.method(...)
            nxt = self.tokens[self.i + 1].text
            if nxt == "=" and tok.kind == "ident":
                return self.parse_assign(tok)
            if nxt == ".":
                return self.parse_send(tok)
        else:
            rule = _STMT_RULES.get(tok.text)
            if rule is not None:
                return rule(self, tok)
            if tok.text in ("after", "deadline"):
                raise self.fail(f"{tok.text!r} may only follow a message send")
        raise self.fail(f"expected a statement, found {tok.text or 'end of input'!r}")

    def parse_assign(self, tok: Token) -> Stmt:
        """``name = expr;`` or ``name = new Class(args);``."""
        self.advance()
        self.advance()
        if self.accept("new"):
            cls = self.expect_ident("class name")
            args = self.parse_list(self.parse_expr)
            self.expect(";")
            return NewStmt(tok.text, cls.text, args, tok.pos)
        value = self.parse_expr()
        self.expect(";")
        return Assign(tok.text, value, tok.pos)

    def parse_send(self, tok: Token) -> Stmt:
        """``target.method(args) after(e) deadline(e);``, either clause optional."""
        self.advance()
        self.advance()
        method = self.expect_ident("message server name")
        args = self.parse_list(self.parse_expr)
        clauses: dict[str, Expr] = {}
        while self.cur.text in ("after", "deadline"):
            word = self.advance().text
            value = self.parse_condition()
            if word in clauses:
                raise self.fail(f"duplicate {word} clause", tok.pos)
            clauses[word] = value
        self.expect(";")
        return SendStmt(tok.text, method.text, args, clauses.get("after"),
                        clauses.get("deadline"), tok.pos)

    def parse_condition(self) -> Expr:
        """``(expr)`` after ``delay``, ``if``, ``after`` or ``deadline``."""
        self.expect("(")
        value = self.parse_expr()
        self.expect(")")
        return value

    def parse_delay(self, tok: Token) -> Stmt:
        self.advance()
        amount = self.parse_condition()
        self.expect(";")
        return DelayStmt(amount, tok.pos)

    def parse_now_stmt(self, tok: Token) -> Stmt:
        self.parse_now(tok)
        self.expect(";")
        return NowStmt(tok.pos)

    def parse_if(self, tok: Token) -> Stmt:
        self.advance()
        self.enter(tok)
        cond = self.parse_condition()
        then_body = self.parse_branch()
        else_body = None
        if self.accept("else"):
            else_body = self.parse_branch()
        self.depth -= 1
        return IfStmt(cond, then_body, else_body, tok.pos)

    def parse_branch(self) -> list[Stmt]:
        if self.at("{"):
            return self.parse_block()
        return [self.parse_stmt()]

    # Expressions: C-style precedence, left-associative binary operators,
    # parsed by precedence climbing over ``BINARY_PREC``.

    def parse_expr(self, min_level: int = 1) -> Expr:
        """The longest expression from here whose operators all bind at
        ``min_level`` or tighter."""
        left = self.parse_operand()
        level = BINARY_PREC.get(self.cur.text)
        if level is None or level < min_level:
            return left
        height = self.height
        while level is not None and level >= min_level:
            op = self.advance()
            right = self.parse_expr(level + 1)
            if self.height > height:
                height = self.height
            height += 1
            if self.depth + height > MAX_NESTING:
                raise self.fail(_TOO_DEEP, op.pos)
            left = BinaryOp(op.text, left, right, op.pos)
            level = BINARY_PREC.get(self.cur.text)
        self.height = height
        return left

    def parse_operand(self) -> Expr:
        """A unary operation or a primary expression."""
        tok = self.cur
        kind = tok.kind
        if kind == "int":
            self.advance()
            self.height = 0
            return IntLit(int(tok.text), tok.pos)
        if kind == "ident":
            self.advance()
            self.height = 0
            return VarRef(tok.text, tok.pos)
        rule = _OPERAND_RULES.get(tok.text)
        if rule is not None:
            return rule(self, tok)
        raise self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

    def parse_unary(self, tok: Token) -> Expr:
        self.advance()
        self.enter(tok)
        operand = self.parse_operand()
        self.depth -= 1
        self.height += 1
        return UnaryOp(tok.text, operand, tok.pos)

    def parse_group(self, tok: Token) -> Expr:
        self.advance()
        self.enter(tok)
        inner = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        self.height += 1
        return inner

    def parse_choice(self, tok: Token) -> Expr:
        self.advance()
        self.enter(tok)
        self.expect("(")
        options = [self.parse_expr()]
        height = self.height
        while self.accept(","):
            options.append(self.parse_expr())
            if self.height > height:
                height = self.height
        self.expect(")")
        if len(options) < 2:
            raise self.fail("nondeterministic choice needs at least two alternatives", tok.pos)
        self.depth -= 1
        self.height = height + 1
        return ChoiceExpr(options, tok.pos)

    def parse_keyword(self, tok: Token) -> Expr:
        """``true``, ``false``, ``sender`` or ``self``."""
        self.advance()
        self.height = 0
        return _KEYWORD_LEAVES[tok.text](tok.pos)

    def parse_now(self, tok: Token) -> Expr:
        self.advance()
        self.expect("(")
        self.expect(")")
        self.height = 0
        return NowExpr(tok.pos)

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
                knowns = self.parse_list(lambda: self.expect_ident("known rebec name").text)
                self.expect(":")
                init_args = self.parse_list(self.parse_expr)
                self.expect(";")
                instances.append(InstanceDecl(name.text, cls.text, knowns, init_args, name.pos))
            except _Abort as abort:
                self.recover(abort, (";", "}"))
        self.expect("}")
        return instances


_STMT_RULES = {
    "delay": _Parser.parse_delay, "now": _Parser.parse_now_stmt, "if": _Parser.parse_if,
}
_OPERAND_RULES = {
    "(": _Parser.parse_group, "-": _Parser.parse_unary, "!": _Parser.parse_unary,
    "?": _Parser.parse_choice, "now": _Parser.parse_now,
    "true": _Parser.parse_keyword, "false": _Parser.parse_keyword,
    "sender": _Parser.parse_keyword, "self": _Parser.parse_keyword,
}
_KEYWORD_LEAVES = {
    "true": partial(BoolLit, True), "false": partial(BoolLit, False),
    "sender": SenderExpr, "self": SelfExpr,
}


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


def _checked_type(declared: str) -> str:
    """The checker's type of a declared base type: ``time`` is ``int``."""
    return "int" if declared == "time" else declared


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
            self.env_types[env.name] = _checked_type(env.type)

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
            state_types[d.name] = _checked_type(d.type)
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
                param_types=[_checked_type(p.type) for p in m.params],
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
                declared = _checked_type(decl.type)
                if t is None:
                    self.error(getattr(arg, "pos", inst.pos),
                               "state initializers must be literals or env variables")
                elif t != declared:
                    self.error(getattr(arg, "pos", inst.pos),
                               f"state variable {decl.name!r} is {declared},"
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
