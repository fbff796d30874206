"""Golden fingerprints of exploration and simulation output.

The digests below pin the exact bytes of ``to_json()`` for the bundled
models, the exact reachable key sets of generated models and the exact
bytes of ``to_jsonl()`` for seeded runs of every bundled model. Any change
to state keys, node numbering, edge order, message identity or trace
serialization shows up here, so hot-path rewrites of the explorer, the
scheduler and both writers can be checked against them.

Run this file as a script to print the current digests:
``PYTHONPATH=src python tests/test_golden.py``.
"""
import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import SENSOR_NAMES, TICKET_ENV, TICKET_NAMES, bundled_text  # noqa: E402
from gen import generate_model  # noqa: E402
from trebeca.explorer import ExploreBounds, explore  # noqa: E402
from trebeca.parser import load_model, validate_model  # noqa: E402
from trebeca.scheduler import CHECK_EFFECTIVE, CHECK_LITERAL, SchedulePolicy, run  # noqa: E402

# label -> (model file, env, bounds, deadline check)
BUNDLED_CASES = {
    "ticket_h20": ("ticket_service.rebeca", TICKET_ENV,
                   ExploreBounds(horizon=20), CHECK_LITERAL),
    "ticket_row_steps12": ("ticket_service.rebeca", dict(zip(TICKET_NAMES, (2, 2, 1, 1, 3, 7))),
                           ExploreBounds(max_steps=12), CHECK_LITERAL),
    "sensor_h10": ("sensor_network.rebeca", dict(zip(SENSOR_NAMES, (1, 4, 2, 3, 2, 4))),
                   ExploreBounds(horizon=10), CHECK_LITERAL),
    "sensor_unstable_cap600": ("sensor_network.rebeca",
                               dict(zip(SENSOR_NAMES, (2, 1, 1, 1, 4, 7))),
                               ExploreBounds(horizon=18, max_states=600), CHECK_LITERAL),
    "ping_pong_h20": ("ping_pong.rebeca", {}, ExploreBounds(horizon=20), CHECK_LITERAL),
    "choice_delay_h10": ("choice_delay.rebeca", {}, ExploreBounds(horizon=10), CHECK_LITERAL),
    "deadline_miss_h10": ("deadline_miss.rebeca", {}, ExploreBounds(horizon=10),
                          CHECK_LITERAL),
    "ticket_effective_h20": ("ticket_service.rebeca",
                             dict(zip(TICKET_NAMES, (2, 1, 1, 1, 3, 7))),
                             ExploreBounds(horizon=20), CHECK_EFFECTIVE),
}

# label -> (model file, env, seed, schedule policy). Between them the runs
# end by horizon, max-steps, empty bag and all-expired, purge messages with
# finite deadlines in both deadline-check modes, and take nondeterministic
# choices.
RUN_CASES = {
    "ticket_h50_s3": ("ticket_service.rebeca", TICKET_ENV, 3, SchedulePolicy(horizon=50)),
    "ticket_effective_h40_s1": ("ticket_service.rebeca",
                                dict(zip(TICKET_NAMES, (2, 1, 1, 1, 3, 7))), 1,
                                SchedulePolicy(horizon=40, deadline_check=CHECK_EFFECTIVE)),
    "sensor_h30_s7": ("sensor_network.rebeca", dict(zip(SENSOR_NAMES, (1, 4, 2, 3, 2, 4))), 7,
                      SchedulePolicy(horizon=30)),
    "sensor_unstable_steps150_s2": ("sensor_network.rebeca",
                                    dict(zip(SENSOR_NAMES, (2, 1, 1, 1, 4, 7))), 2,
                                    SchedulePolicy(max_steps=150)),
    "ping_pong_steps40_s0": ("ping_pong.rebeca", {}, 0, SchedulePolicy(max_steps=40)),
    "choice_delay_h20_s5": ("choice_delay.rebeca", {}, 5, SchedulePolicy(horizon=20)),
    "deadline_miss_h20_s0": ("deadline_miss.rebeca", {}, 0, SchedulePolicy(horizon=20)),
}

GENERATED_SEEDS = range(120)
GENERATED_BOUNDS = dict(horizon=4, max_states=300)

# sha256 of to_json(), first 16 hex digits.
BUNDLED_DIGESTS = {
    'choice_delay_h10': '56c6bfa92769816c',
    'deadline_miss_h10': '5bfbd902dddcf79b',
    'ping_pong_h20': '1cc1a4602cf1e5dc',
    'sensor_h10': 'fae130ecfc44fb09',
    'sensor_unstable_cap600': '721a874c6f88f385',
    'ticket_effective_h20': '4974af6013783cc8',
    'ticket_h20': '3c3237d59a727dfd',
    'ticket_row_steps12': '89869a1ed69c0a2e',
}

# sha256 of the newline-joined sorted key set, first 16 hex digits.
GENERATED_DIGESTS = {
    0: '03d73859fedaae5d', 1: '34e429d8c68ddb81', 2: '759160cc5f190600', 3: '1c54f4fe6b678f24',
    4: '22ac434ef6c66024', 5: 'e86a004c7b11ae2f', 6: '0b713afa5ccebea1', 7: '54613425ed42dfde',
    8: 'bcaa6a39a0cbcc7e', 9: '763c613c1feb86c2', 10: '140e65e2f91a90ab', 11: 'b2affdddff6ed17c',
    12: '714aff56ba8aaecd', 13: '60b4f7907a06850d', 14: 'b5a5dced98ba6cc0', 15: 'bcaa6a39a0cbcc7e',
    16: 'ac7ca1beff404df1', 17: '85ca68528c4e47f8', 18: '2c01266053b4ef57', 19: '315268e64367f571',
    20: '7ea3d635900d6a4c', 21: '733796e1d2409cb4', 22: 'c6b685509c9e989b', 23: '89b408ff2676f4e7',
    24: '7aba4add61d46cff', 25: '4de1289811fe2f13', 26: '45a99cea724b135b', 27: '172df5903117bfb2',
    28: '598668c7d6765896', 29: 'f68e1266269cf749', 30: 'fe93dc68c1fbcce7', 31: 'e299e9d77723c04c',
    32: 'c1e84d9b55e3311b', 33: '9ad76165eb401546', 34: '19636f7b09ca0c65', 35: 'fe07cdc9777dcd4f',
    36: 'f40b6837f9edebbe', 37: '58b3891ce1395d84', 38: 'f1614d5deb1ce888', 39: 'bcaa6a39a0cbcc7e',
    40: '8e7bcf129e2b73a5', 41: '90a98f819b752e60', 42: '0294b1a308a1974b', 43: '5066943cfca3a63c',
    44: 'a1bd79edec48ac1d', 45: 'd579c98578cb8ce4', 46: '023d79444aabf38d', 47: 'e022f98d648dcbf0',
    48: '769babd9f928d8c1', 49: '5f560410634587e1', 50: '29a6a329cb2523f0', 51: '67d0ee7baf2154af',
    52: 'f081ccf3f00a9a5c', 53: '7ffa626f2ed32e77', 54: '1b3da1223da2a04a', 55: '051dd618f3708bf0',
    56: '76fc45294f2633c0', 57: '779a8419a5c5ed77', 58: '84b66a36be436aaa', 59: 'b7513b216d09a9a2',
    60: '376222b58f353b20', 61: '86a414f1d4212a39', 62: 'b230c2b23ad4874c', 63: 'b895e7a8523e706e',
    64: 'd990d71473923f52', 65: '10d069417def9de4', 66: 'cb8cab3a465de449', 67: 'e1e8a7c4e805c8b9',
    68: 'd85c25a6e1828de4', 69: 'e2a75ef9b74e2d7e', 70: '3f1f5c7586e8fe85', 71: 'd62e77e50e114788',
    72: '28bd27ce4c3242c6', 73: 'b3e26e845665b354', 74: '3711cdc05f2d481f', 75: 'e32c7ac4604abd5c',
    76: 'a269c2b230ee9e42', 77: '581cd951be344597', 78: 'ee302e45e7295185', 79: '5d2e00363047266d',
    80: '7bb4c294b3b1ae2b', 81: 'f983617c2a3addd2', 82: '6a3d3a53f9c86be2', 83: 'e6ac1d1de2dc8431',
    84: '3ccc3af4986f04e8', 85: 'e3cf500c6ed7c140', 86: 'be4e17e1246a518a', 87: 'a8d8ccd861fcfa97',
    88: '0b65859d0bf159f3', 89: 'a9ce3d8f20df9600', 90: '53d66392191bc065', 91: '88b271ac81e4ac85',
    92: '5abc25a8e2f73f3a', 93: '721b06b64d65321e', 94: 'e427dac2bba8066b', 95: '3d99b0adfb10ad8c',
    96: '0386774ded1cd2a9', 97: 'a8c202026b96e687', 98: 'ca3b4b77a18a0af3', 99: '04dca6a00c777305',
    100: '5cdff4fc9dc0b8e6', 101: '00649a697c58f2f0', 102: 'f8fa60f38c4afcc2', 103: '420330af9956b86e',
    104: 'b88dad06da363616', 105: '18ee3e5f5521ee4f', 106: '20366ffe0b2708b8', 107: 'ae3b0c7a1e22a4f5',
    108: '3a8428baa63eb3d5', 109: '9179af7946360a94', 110: '4ce26ea5e27b099e', 111: '45caa4166c220dfd',
    112: '35efb668d3f3d7ef', 113: 'd7d2dfd0b4c71f2c', 114: '3be0b3050e6bb100', 115: 'ab24c732f566aa79',
    116: '7461cdf34b370643', 117: '742ffe890268f60b', 118: '7a97cbffc9db4dd6', 119: '249e683a087b2f33',
}


# sha256 of to_jsonl(), first 16 hex digits.
RUN_DIGESTS = {
    'choice_delay_h20_s5': '2e7517b2100e04e3',
    'deadline_miss_h20_s0': '83f64d14a5514f18',
    'ping_pong_steps40_s0': 'a1caa240f977dba8',
    'sensor_h30_s7': '7c5d88a8f1f3f4c0',
    'sensor_unstable_steps150_s2': '5bf9e6297005f320',
    'ticket_effective_h40_s1': 'e4be8e61c72748f1',
    'ticket_h50_s3': '3d7e7daa13cb742d',
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def bundled_digest(label: str) -> str:
    name, env, bounds, check = BUNDLED_CASES[label]
    result = explore(load_model(bundled_text(name)), env, bounds, deadline_check=check)
    return _sha(result.to_json())


def generated_digest(seed: int) -> str:
    model = generate_model(seed)
    env = {d.name: 1 for d in model.env_decls}
    result = explore(validate_model(model), env, ExploreBounds(**GENERATED_BOUNDS))
    return _sha("\n".join(sorted(result.key_set())))


def run_trace(label: str):
    name, env, seed, policy = RUN_CASES[label]
    return run(load_model(bundled_text(name)), env, seed, policy)


def run_digest(label: str) -> str:
    return _sha(run_trace(label).to_jsonl())


@pytest.mark.parametrize("label", sorted(BUNDLED_CASES))
def test_bundled_graph_bytes_are_pinned(label):
    assert bundled_digest(label) == BUNDLED_DIGESTS[label]


@pytest.mark.parametrize("label", sorted(RUN_CASES))
def test_run_trace_bytes_are_pinned(label):
    assert run_digest(label) == RUN_DIGESTS[label]


def test_run_cases_cover_every_model_and_end():
    traces = {label: run_trace(label) for label in RUN_CASES}
    assert {RUN_CASES[label][0] for label in RUN_CASES} == {
        "ticket_service.rebeca", "sensor_network.rebeca", "ping_pong.rebeca",
        "choice_delay.rebeca", "deadline_miss.rebeca"}
    assert {t.end_reason for t in traces.values()} == {
        "horizon", "max-steps", "empty-bag", "all-expired"}
    purged_dls = {ev.dl for ev in traces["deadline_miss_h20_s0"].events
                  if ev.kind == "msg_purged"}
    assert purged_dls and "inf" not in purged_dls
    assert any(ev.kind == "msg_purged" for ev in traces["ticket_effective_h40_s1"].events)


def test_generated_key_sets_are_pinned():
    actual = {seed: generated_digest(seed) for seed in GENERATED_SEEDS}
    assert actual == GENERATED_DIGESTS


if __name__ == "__main__":
    print("BUNDLED_DIGESTS = {")
    for label in sorted(BUNDLED_CASES):
        print(f"    {label!r}: {bundled_digest(label)!r},")
    print("}")
    print("RUN_DIGESTS = {")
    for label in sorted(RUN_CASES):
        print(f"    {label!r}: {run_digest(label)!r},")
    print("}")
    print("GENERATED_DIGESTS = {")
    for seed in GENERATED_SEEDS:
        print(f"    {seed}: {generated_digest(seed)!r},")
    print("}")
