"""The tokenizer against the character-by-character scanner it replaced,
which is kept here as the reference."""
import random
from pathlib import Path

import pytest

import trebeca
from gen import generate_model
from trebeca.cli import main
from trebeca.model import pretty_print
from trebeca.parser import KEYWORDS, ParseError, SourceError, tokenize

_SYMBOLS = (
    "&&", "||", "==", "!=", "<=", ">=",
    "{", "}", "(", ")", ";", ",", ".", "=", "<", ">",
    "+", "-", "*", "/", "%", "!", "?", ":",
)


def reference_tokenize(source):
    """The old scanner: its (kind, text, pos) triples and its diagnostics."""
    tokens = []
    errors = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            start = (line, col)
            i, col = i + 2, col + 2
            while i < n and not source.startswith("*/", i):
                if source[i] == "\n":
                    line, col = line + 1, 1
                else:
                    col += 1
                i += 1
            if i >= n:
                errors.append(ParseError(start, "unterminated block comment"))
                break
            i, col = i + 2, col + 2
            continue
        if ch.isdigit():
            start = i
            pos = (line, col)
            while i < n and source[i].isdigit():
                i += 1
            text = source[start:i]
            col += i - start
            tokens.append(("int", text, pos))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            pos = (line, col)
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            col += i - start
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append((kind, text, pos))
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(("symbol", sym, (line, col)))
                i += len(sym)
                col += len(sym)
                break
        else:
            errors.append(ParseError((line, col), f"unexpected character {ch!r}"))
            i, col = i + 1, col + 1
    tokens.append(("eof", "", (line, col)))
    return tokens, errors


def new_tokenize(source):
    try:
        return [(t.kind, t.text, t.pos) for t in tokenize(source)]
    except SourceError as exc:
        return exc.errors


def non_ascii_token(tokens):
    """The first word or int token with a character outside ASCII: the old
    scanner took 'é' for a letter and '٣' and '²' for digits, and the
    parser then crashed on '²'."""
    for kind, text, pos in tokens:
        if kind != "symbol" and not text.isascii():
            return text, pos
    return None


def assert_same(source):
    tokens, errors = reference_tokenize(source)
    bad = non_ascii_token(tokens)
    if bad is None:
        assert new_tokenize(source) == (errors or tokens), repr(source)
        return
    # The new scanner reports the character instead, besides every
    # diagnostic of the old one.
    text, (line, col) = bad
    offset = next(k for k, ch in enumerate(text) if not ch.isascii())
    new_errors = new_tokenize(source)
    expected = ParseError((line, col + offset), f"unexpected character {text[offset]!r}")
    assert expected in new_errors, repr(source)
    assert all(e in new_errors for e in errors), repr(source)


def sources():
    root = Path(trebeca.bundled("ticket_service.rebeca")).parent
    yield from sorted(root.glob("*.rebeca"))
    yield from sorted((Path(__file__).parent / "golden").glob("*.rebeca"))


@pytest.mark.parametrize("path", list(sources()), ids=lambda p: p.name)
def test_bundled_models_tokenize_as_before(path):
    source = path.read_text()
    assert not reference_tokenize(source)[1]
    assert_same(source)


def test_generated_models_tokenize_as_before():
    for seed in range(120):
        assert_same(pretty_print(generate_model(seed)))


ALPHABET = (
    [chr(c) for c in range(33, 127)]
    + ["/", "*", "/", "*", " ", " ", "\r", "\t", "\n", "\n", "_", "é", "٣", "²"]
    + ["a", "b", "1", "2", "//", "/*", "*/"]
)


def test_fuzzed_strings_tokenize_as_before():
    rng = random.Random(11)
    non_ascii = 0
    for _ in range(2000):
        source = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 40)))
        non_ascii += non_ascii_token(reference_tokenize(source)[0]) is not None
        assert_same(source)
    assert non_ascii  # the 'é', '٣' and '²' cases were drawn


def test_non_decimal_digit_is_a_positioned_error(tmp_path, capsys):
    model = tmp_path / "sup.rebeca"
    model.write_text("reactiveclass A { knownrebecs {} statevars { int n; }\n"
                     "  msgsrv initial() { n = 2²; }\n}\nmain { A a():(); }\n")
    assert main(["check", str(model)]) == 1
    assert capsys.readouterr().err == f"{model}:2:27: error: unexpected character '²'\n"


@pytest.mark.parametrize("source, col, char", [
    ("n = café;", 8, "é"), ("n = ٣;", 5, "٣"), ("n = 1٣;", 6, "٣"), ("_é = 1;", 2, "é"),
], ids=["letter", "digit", "after-digit", "after-underscore"])
def test_non_ascii_letters_and_digits_are_positioned_errors(source, col, char):
    with pytest.raises(SourceError) as exc:
        tokenize(source)
    assert exc.value.errors == [ParseError((1, col), f"unexpected character {char!r}")]
