import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import trebeca
from trebeca import explorer, load_model

TICKET_ENV = {
    "requestDeadline": 2, "checkIssuedPeriod": 2, "retryRequestPeriod": 1,
    "newRequestPeriod": 1, "serviceTime1": 3, "serviceTime2": 7,
}
SENSOR_NAMES = ["netDelay", "adminPeriod", "sensor0Period", "sensor1Period",
                "scientistDeadline", "rescueDeadline"]
SENSOR_ENV = dict(zip(SENSOR_NAMES, (1, 4, 2, 3, 2, 4)))
TICKET_NAMES = ["requestDeadline", "checkIssuedPeriod", "retryRequestPeriod",
                "newRequestPeriod", "serviceTime1", "serviceTime2"]

BUNDLED_MONITORS = ("ticket_issued.monitor", "ticket_not_issued.monitor",
                    "mission_failed.monitor", "mission_success.monitor")


def bundled_text(name: str) -> str:
    return trebeca.bundled(name).read_text(encoding="utf-8")


def explore_without_memo(*args, **kwargs):
    """``explore`` with a memo key that never repeats, so every lookup
    misses and every step runs its message server."""
    with mock.patch.object(explorer, "transition_key", lambda state, msg: object()):
        return explorer.explore(*args, **kwargs)


def graph_outputs(result) -> tuple:
    """All that an exploration hands on: the graph JSON, the events of
    every edge, the purges of every node, and the error branches."""
    return (result.to_json(),
            [(e.src, e.dst, e.decision, e.events) for e in result.edges],
            [(n.terminal, n.purge_events) for n in result.nodes],
            [(b.src, b.decision, b.message) for b in result.error_branches])


@pytest.fixture(scope="session")
def ticket_model():
    return load_model(bundled_text("ticket_service.rebeca"))


@pytest.fixture(scope="session")
def sensor_model():
    return load_model(bundled_text("sensor_network.rebeca"))


@pytest.fixture(scope="session")
def ping_pong_model():
    return load_model(bundled_text("ping_pong.rebeca"))


@pytest.fixture(scope="session")
def choice_delay_model():
    return load_model(bundled_text("choice_delay.rebeca"))


@pytest.fixture(scope="session")
def deadline_miss_model():
    return load_model(bundled_text("deadline_miss.rebeca"))
