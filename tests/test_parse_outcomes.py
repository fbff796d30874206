"""Digests of every outcome of ``parse_model`` over four input families.

An outcome is either the syntax tree, dumped field by field with every
``pos`` (which ``==`` and ``repr`` leave out), or the ``SourceError``'s list
of ``(pos, message, severity)``. The families are:

- ``models``: every bundled and golden model;
- ``generated``: ``tests/gen.py`` seeds 0-399, pretty-printed;
- ``cuts``: each bundled and golden model cut after every token;
- ``mutations``: 500 seeded one-character mutations of each of those
  models, drawn as in ``test_fuzzed_mutations_never_crash_and_report_positions``.

A rewrite of the lexer or the parser must keep every digest.

Run this file as a script to print the current digests:
``PYTHONPATH=src python tests/test_parse_outcomes.py``; add a family name
to print that family's per-input dumps instead, for diffing two versions.
"""
import dataclasses
import functools
import hashlib
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import trebeca  # noqa: E402
from gen import generate_model  # noqa: E402
from trebeca.model import pretty_print  # noqa: E402
from trebeca.parser import SourceError, parse_model, tokenize  # noqa: E402

MUTATIONS_PER_MODEL = 500
MUTATION_CHARS = "{}();=?.,xz19 "

# sha256 of the newline-joined dumps of a family, first 16 hex digits.
DIGESTS = {
    'cuts': 'd10ff1a2aee4cbf0',
    'generated': 'dc4a9808f1ed8f7a',
    'models': 'cd0c2e9294aff336',
    'mutations': '9a7b14e728953b7f',
}


def model_paths() -> list[Path]:
    bundled = Path(trebeca.bundled("ticket_service.rebeca")).parent
    golden = Path(__file__).parent / "golden"
    return sorted(bundled.glob("*.rebeca")) + sorted(golden.glob("*.rebeca"))


def dump_node(node) -> str:
    """A syntax tree as text, every field in declaration order, ``pos`` too."""
    if dataclasses.is_dataclass(node):
        fields = ", ".join(f"{f.name}={dump_node(getattr(node, f.name))}"
                           for f in dataclasses.fields(node))
        return f"{type(node).__name__}({fields})"
    if isinstance(node, list):
        return "[" + ", ".join(dump_node(item) for item in node) + "]"
    return repr(node)


def outcome(source: str) -> str:
    try:
        return dump_node(parse_model(source))
    except SourceError as exc:
        return "errors " + repr([(e.pos, e.message, e.severity) for e in exc.errors])


def _offset(source: str, pos) -> int:
    line, col = pos
    start = 0
    for _ in range(line - 1):
        start = source.index("\n", start) + 1
    return start + col - 1


def cut_sources():
    for path in model_paths():
        source = path.read_text(encoding="utf-8")
        for tok in tokenize(source)[:-1]:
            end = _offset(source, tok.pos) + len(tok.text)
            yield f"{path.name}@{end}", source[:end]


def mutated_sources():
    for path in model_paths():
        source = path.read_text(encoding="utf-8")
        rng = random.Random(path.name)
        for k in range(MUTATIONS_PER_MODEL):
            pos = rng.randrange(len(source))
            op = rng.randrange(3)
            if op == 0:
                mutated = source[:pos] + source[pos + 1:]
            elif op == 1:
                mutated = source[:pos] + rng.choice(MUTATION_CHARS) + source[pos:]
            else:
                mutated = source[:pos] + rng.choice(MUTATION_CHARS) + source[pos + 1:]
            yield f"{path.name}#{k}", mutated


FAMILIES = {
    "models": lambda: ((p.name, p.read_text(encoding="utf-8")) for p in model_paths()),
    "generated": lambda: ((f"seed{s}", pretty_print(generate_model(s))) for s in range(400)),
    "cuts": cut_sources,
    "mutations": mutated_sources,
}


@functools.cache
def dumps(family: str) -> tuple[str, ...]:
    return tuple(f"{label}: {outcome(source)}" for label, source in FAMILIES[family]())


def digest(family: str) -> str:
    return hashlib.sha256("\n".join(dumps(family)).encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_parse_outcomes_are_pinned(family):
    assert digest(family) == DIGESTS[family]


def test_families_reach_both_outcomes():
    for family in ("cuts", "mutations"):
        outcomes = [line.split(": ", 1)[1] for line in dumps(family)]
        assert any(o.startswith("errors ") for o in outcomes), family
        assert any(o.startswith("Model(") for o in outcomes), family


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print("\n".join(dumps(sys.argv[1])))
    else:
        print("DIGESTS = {")
        for family in sorted(FAMILIES):
            print(f"    {family!r}: {digest(family)!r},")
        print("}")
