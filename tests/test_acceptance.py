"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget."""
import time
from pathlib import Path

import trebeca
import test_properties
import test_sos_rules
from conftest import SENSOR_NAMES, TICKET_ENV, TICKET_NAMES, bundled_text
from gen import generate_model
from trebeca.cli import main
from trebeca.erlgen import emit
from trebeca.explorer import ExploreBounds, explore, follow, replay, trace_decisions
from trebeca.model import EV_SELECTED, pretty_print
from trebeca.monitors import PASS, check_graph, check_trace, parse_monitor
from trebeca.parser import load_model, parse_model
from trebeca.scheduler import SchedulePolicy, run

GOLDEN = Path(__file__).parent / "golden"

BUNDLED = {
    "ticket_service.rebeca": TICKET_ENV,
    "sensor_network.rebeca": dict(zip(SENSOR_NAMES, (1, 4, 2, 3, 2, 4))),
    "ping_pong.rebeca": {},
    "choice_delay.rebeca": {},
    "deadline_miss.rebeca": {},
}


class Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} exceeded its {self.seconds}s budget: {elapsed:.1f}s")
        return False


def test_criterion_1_sos_rule_suite():
    with Budget("1 SOS rule suite", 1.0):
        for rule_test in test_sos_rules.ALL_RULE_TESTS:
            rule_test()


def test_criterion_2_cmd_run_determinism(tmp_path):
    with Budget("2 determinism", 10.0):
        for name, env in BUNDLED.items():
            model = str(trebeca.bundled(name))
            args = []
            for key, value in env.items():
                args += ["--env", f"{key}={value}"]
            blobs = []
            for i in range(3):
                out = tmp_path / f"{name}.{i}.jsonl"
                code = main(["run", model, *args, "--seed", "5",
                             "--horizon", "20", "--trace", str(out)])
                assert code == 0, name
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1] == blobs[2], name


def test_criterion_3_simulation_containment():
    with Budget("3 simulation containment", 120.0):
        for name, env in BUNDLED.items():
            checked = load_model(bundled_text(name))
            result = explore(checked, env, ExploreBounds(horizon=30, max_states=200000))
            assert not any(r == "truncated" for _, r in result.terminals()), name
            policy = SchedulePolicy(horizon=30)
            for seed in range(100):
                trace = run(checked, env, seed, policy)
                node = follow(result, trace_decisions(trace))
                assert result.nodes[node].terminal == trace.end_reason, (name, seed)


def test_criterion_4_ticket_service_table():
    with Budget("4 ticket-service table", 120.0):
        checked = load_model(bundled_text("ticket_service.rebeca"))
        spec = parse_monitor("EVENTUALLY selected a.ticketIssued\n"
                             "NEVER selected a.ticketIssued\n")
        issued_env = dict(zip(TICKET_NAMES, (2, 2, 1, 1, 3, 7)))
        result = explore(checked, issued_env, ExploreBounds(horizon=50))
        verdict = check_graph(result, spec)
        assert verdict.clauses[0].exists_status == PASS, "row (2,2,1,1,3,7): Ticket issued"
        for row in ((2, 1, 1, 1, 3, 7), (2, 1, 1, 1, 4, 7), (2, 2, 1, 1, 4, 7)):
            env = dict(zip(TICKET_NAMES, row))
            result = explore(checked, env, ExploreBounds(horizon=50))
            verdict = check_graph(result, spec)
            assert verdict.clauses[1].forall_status == PASS, f"row {row}: Not issued"


def _mission_witnessed(checked, env, horizon, method):
    """Find a seeded run that selects admin.<method>, replay its decision
    path, and check the replayed trace."""
    for seed in range(5000):
        trace = run(checked, env, seed, SchedulePolicy(horizon=horizon))
        if any(ev.kind == EV_SELECTED and ev.rebec == "admin" and ev.method == method
               for ev in trace.events):
            break
    else:
        raise AssertionError(f"no witness for {method} under {env}")
    # A one-state exploration carries the model, bindings, deadline mode
    # and horizon that replay re-executes the path under.
    replayed = replay(explore(checked, env, ExploreBounds(horizon=horizon, max_states=1)),
                      trace_decisions(trace))
    assert replayed.events == trace.events
    assert replayed.to_jsonl() == trace.to_jsonl()
    return check_trace(replayed, parse_monitor(f"EVENTUALLY selected admin.{method}")).clauses[0]


def test_criterion_5_sensor_network_table():
    with Budget("5 sensor-network table", 300.0):
        checked = load_model(bundled_text("sensor_network.rebeca"))
        spec = parse_monitor("EVENTUALLY selected admin.missionFailed\n"
                             "EVENTUALLY selected admin.missionSuccess\n")
        # (1,4,2,3,2,3): a mission can fail
        failed_env = dict(zip(SENSOR_NAMES, (1, 4, 2, 3, 2, 3)))
        verdict = check_graph(explore(checked, failed_env, ExploreBounds(horizon=12)),
                              spec)
        assert verdict.clauses[0].exists_status == PASS, "Mission failed row"
        # (1,4,2,3,2,4): missions succeed; no failure shows up in the bounds
        success_env = dict(zip(SENSOR_NAMES, (1, 4, 2, 3, 2, 4)))
        verdict = check_graph(explore(checked, success_env, ExploreBounds(horizon=12)),
                              spec)
        assert verdict.clauses[1].exists_status == PASS, "Mission success row"
        assert verdict.clauses[0].exists_status != PASS, "no failure within bounds"
        # (2,1,1,1,4,rescueDL): rapid updates keep the system unstable
        for rescue_dl in (5, 6, 7):
            env = dict(zip(SENSOR_NAMES, (2, 1, 1, 1, 4, rescue_dl)))
            clause = _mission_witnessed(checked, env, 18, "missionFailed")
            assert clause.status == PASS, f"instability rescueDL={rescue_dl}"
        # slowing the admin to period 4 recovers success at rescueDL=7
        env = dict(zip(SENSOR_NAMES, (2, 4, 1, 1, 4, 7)))
        clause = _mission_witnessed(checked, env, 18, "missionSuccess")
        assert clause.status == PASS, "stable admin period row"


def test_criterion_6_property_suite():
    with Budget("6 property suite", 300.0):
        test_properties.check_many_runs(1000)
        test_properties.check_order_independence(100, min_compared=55)
        test_properties.check_containment(70)


def test_criterion_7_backend_goldens(tmp_path):
    with Budget("7 backend goldens", 1.0):
        for name, source in (
            ("ticket_service", bundled_text("ticket_service.rebeca")),
            ("delay_demo", (GOLDEN / "delay_demo.rebeca").read_text()),
        ):
            files = emit(load_model(source)).files
            golden_dir = GOLDEN / name
            assert sorted(files) == sorted(p.name for p in golden_dir.iterdir())
            for fname, text in files.items():
                assert text == (golden_dir / fname).read_text(), f"{name}/{fname}"
        worker = (GOLDEN / "delay_demo" / "worker.erl").read_text()
        assert "receive after 10 -> ok end" in worker
        assert "spawn(fun() ->" in worker and "receive after 15 ->" in worker
        dyn = tmp_path / "dyn.rebeca"
        dyn.write_text(
            "reactiveclass A { knownrebecs {} statevars {}"
            " msgsrv initial() { r = new B(); } }\n"
            "reactiveclass B { knownrebecs {} statevars {} msgsrv initial() {} }\n"
            "main { A a():(); B b():(); }\n")
        assert main(["emit", str(dyn), "--out", str(tmp_path / "o")]) == 4


def test_criterion_8_round_trip():
    with Budget("8 round trip", 30.0):
        for name in BUNDLED:
            model = parse_model(bundled_text(name))
            assert parse_model(pretty_print(model)) == model, name
        for seed in range(500):
            model = generate_model(seed)
            assert parse_model(pretty_print(model)) == model, f"seed {seed}"
