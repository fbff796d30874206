"""Pinned graph bytes of the generated models that create rebecs.

No bundled model runs ``new``, and ``tests/test_golden.py`` pins only the
key sets of generated models. The digests below pin the exact bytes of
``to_json()`` for every generated seed in 0-119 whose exploration (horizon
6, capped at 4,000 states, every env value 1) creates a rebec: spawn chains,
whose steps insert new rebecs into the state key and whose graphs are
numbered and ordered like any other.

Run this file as a script to print the current digests:
``PYTHONPATH=src python tests/test_spawn_graphs.py``.
"""
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from gen import generate_model  # noqa: E402
from trebeca.explorer import ExploreBounds, explore  # noqa: E402
from trebeca.model import EV_CREATED  # noqa: E402
from trebeca.parser import validate_model  # noqa: E402

SEEDS = range(120)
BOUNDS = dict(horizon=6, max_states=4000)

# sha256 of to_json(), first 16 hex digits.
SPAWN_DIGESTS = {
    10: 'b4fbc210b33f6fa3',
    29: 'b86d3494244b3897',
    47: 'f4662104361b8942',
    52: 'ec8c6b7a80fe1ee7',
    56: '1309b54c0e4667b3',
    62: 'e03b0a305a690f5d',
    73: '705db4ae68a99347',
    84: '80549c4a9fed8531',
    109: '4720723489e05517',
    115: 'fbe35688e6610cd7',
}


def spawn_graph(seed: int):
    """The exploration of seed ``seed``'s model, or None when the model has
    no ``new`` statement."""
    model = generate_model(seed)
    checked = validate_model(model)
    if not checked.new_targets:
        return None
    env = {d.name: 1 for d in model.env_decls}
    return explore(checked, env, ExploreBounds(**BOUNDS))


def creates_a_rebec(result) -> bool:
    return any(ev.kind == EV_CREATED for e in result.edges for ev in e.events)


def spawn_digests() -> dict[int, str]:
    digests = {}
    for seed in SEEDS:
        result = spawn_graph(seed)
        if result is not None and creates_a_rebec(result):
            digests[seed] = hashlib.sha256(result.to_json().encode("utf-8")).hexdigest()[:16]
    return digests


def test_spawn_chain_graph_bytes_are_pinned():
    assert spawn_digests() == SPAWN_DIGESTS


if __name__ == "__main__":
    print("SPAWN_DIGESTS = {")
    for seed, digest in spawn_digests().items():
        print(f"    {seed}: {digest!r},")
    print("}")
