"""Randomized invariants over generated small models.

The helpers take a model count so the acceptance suite can rerun them at
its own scale; the plain tests keep counts modest for everyday runs.
"""
import dataclasses
import random
from collections import Counter, deque
from itertools import chain
from unittest import mock

from conftest import BUNDLED_MONITORS, bundled_text, explore_without_memo, graph_outputs
from gen import generate_model
from test_golden import BUNDLED_CASES, RUN_CASES, run_trace
from test_monitors import ZERO_TIME_LOOPS
from trebeca import explorer, monitors, scheduler
from trebeca.explorer import (
    Edge,
    ErrorBranch,
    ExploreBounds,
    explore,
    follow,
    trace_decisions,
)
from trebeca.interp import ExecError
from trebeca.model import (
    EV_CREATED,
    EV_DELAY,
    EV_PURGED,
    EV_SELECTED,
    EV_SENT,
    NEVER,
    SystemState,
    pretty_print,
)
from trebeca.parser import load_model, parse_model, validate_model
from trebeca.scheduler import CHECK_EFFECTIVE, CHECK_LITERAL, SchedulePolicy, eligible, run

RUN_POLICY = SchedulePolicy(horizon=12, max_steps=200)


def checked_model(seed: int):
    model = generate_model(seed)
    return model, validate_model(model)


def env_for(model):
    return {d.name: 1 for d in model.env_decls}


def run_one(seed: int):
    model, checked = checked_model(seed)
    return run(checked, env_for(model), seed, RUN_POLICY)


def assert_trace_invariants(trace) -> None:
    """tt-monotonicity of selections, per-rebec clock monotonicity and
    frozenness, and purge/selection soundness via bag accounting."""
    clock: dict[str, int] = {}
    bag: Counter = Counter()
    last_tt = 0
    for ev in trace.events:
        if ev.kind == EV_CREATED:
            clock[ev.rebec] = ev.time
        elif ev.kind == EV_SENT:
            bag[(ev.rebec, ev.method, ev.args, ev.sender, ev.tt, ev.dl)] += 1
        elif ev.kind == EV_SELECTED:
            assert ev.tt >= last_tt, "selected time tags must be non-decreasing"
            last_tt = ev.tt
            key = (ev.rebec, ev.method, ev.args, ev.sender, ev.tt, ev.dl)
            assert bag[key] > 0, "selected a message that is not in the bag"
            bag[key] -= 1
            before = clock[ev.rebec]
            assert ev.time == max(ev.tt, before), "clock must be frozen between turns"
            if ev.dl != "inf":
                assert before <= int(ev.dl), "executed message was not eligible"
            clock[ev.rebec] = ev.time
        elif ev.kind == EV_DELAY:
            assert ev.time >= clock[ev.rebec], "delay may only advance the clock"
            clock[ev.rebec] = ev.time
        elif ev.kind == EV_PURGED:
            key = (ev.rebec, ev.method, ev.args, ev.sender, ev.tt, ev.dl)
            assert bag[key] > 0, "purged a message that is not in the bag"
            bag[key] -= 1
            assert ev.dl != "inf" and ev.time > int(ev.dl), "purged a live message"


def check_many_runs(count: int) -> None:
    for seed in range(count):
        try:
            trace = run_one(seed)
        except ExecError as exc:
            # arithmetic faults are legal; unresolved names never are
            assert "unknown name" not in str(exc)
            continue
        assert_trace_invariants(trace)


def check_round_trips(count: int) -> None:
    for seed in range(count):
        model = generate_model(seed)
        assert parse_model(pretty_print(model)) == model, f"seed {seed}"


def budget_truncated(result) -> bool:
    """Truncation by the state budget depends on visit order; truncation by
    the horizon does not (it is a property of each state)."""
    return any(reason == "truncated" for _, reason in result.terminals())


def shuffled_ties(seed: int):
    """A patch, reusable, under which each step's candidates come in an
    order drawn from one generator seeded with ``seed``."""
    rng = random.Random(seed)
    min_tt_candidates = scheduler.min_tt_candidates

    def shuffled_candidates(state):
        candidates = min_tt_candidates(state)
        rng.shuffle(candidates)
        return candidates

    return mock.patch.object(scheduler, "min_tt_candidates", shuffled_candidates)


def check_order_independence(count: int, min_compared: int) -> None:
    compared = 0
    shuffled_order = shuffled_ties(99)
    for seed in range(count):
        model, checked = checked_model(seed)
        bounds = ExploreBounds(horizon=6, max_states=4000)
        base = explore(checked, env_for(model), bounds)
        if budget_truncated(base):
            continue
        with shuffled_order:
            shuffled = explore(checked, env_for(model), bounds)
        assert base.key_set() == shuffled.key_set(), f"seed {seed}"
        compared += 1
    assert compared >= min_compared


def check_containment(count: int) -> None:
    policy = SchedulePolicy(horizon=6)
    for seed in range(count):
        model, checked = checked_model(seed)
        bounds = ExploreBounds(horizon=6, max_states=4000)
        result = explore(checked, env_for(model), bounds)
        if budget_truncated(result):
            continue
        try:
            trace = run(checked, env_for(model), seed, policy)
        except ExecError:
            continue
        node = follow(result, trace_decisions(trace))
        assert result.nodes[node].terminal == trace.end_reason, f"seed {seed}"


def full_scan(state, mode):
    """The purge rule stated plainly, on a copy of ``state``: every message
    that ``eligible`` rejects is purged, in bag order."""
    copy = SystemState(state.checked, state.env_bindings)
    copy.envs = dict(state.envs)
    copy.bag = list(state.bag)
    events = [msg.event(EV_PURGED, copy.envs[msg.receiver].now)
              for msg in copy.bag if not eligible(msg, copy, mode)]
    return events, [msg for msg in copy.bag if eligible(msg, copy, mode)]


def assert_floor_bounds_bag(state):
    """Every finite deadline has its receiver's floor at or below it, and
    ``late`` holds while some time tag is past its deadline."""
    for msg in state.bag:
        if msg.dl != NEVER:
            assert state.floors[msg.receiver] <= msg.dl
            assert msg.tt <= msg.dl or state.late


def check_purge_oracle(count: int) -> None:
    purge_expired = scheduler.purge_expired
    removed = Counter()

    def oracle_purge(state, mode):
        assert_floor_bounds_bag(state)
        expected = full_scan(state, mode)
        events = purge_expired(state, mode)
        assert (events, state.bag) == expected
        assert_floor_bounds_bag(state)
        removed[mode] += len(events)
        removed[mode, "tt>dl"] += sum(ev.tt > int(ev.dl) for ev in events)
        return events

    with mock.patch.object(scheduler, "purge_expired", oracle_purge):
        for seed in range(count):
            model, checked = checked_model(seed)
            for mode in (CHECK_LITERAL, CHECK_EFFECTIVE):
                policy = SchedulePolicy(deadline_check=mode, horizon=12, max_steps=200)
                try:
                    run(checked, env_for(model), seed, policy)
                except ExecError:
                    pass
                explore(checked, env_for(model), ExploreBounds(horizon=6, max_states=200),
                        deadline_check=mode)
    # The oracle saw real purges, including effective mode's tt > dl rule.
    assert removed[CHECK_LITERAL] > 0 and removed[CHECK_EFFECTIVE, "tt>dl"] > 0


def check_memo_oracle(count: int) -> None:
    """The explorer gives the same graphs, events and error branches with
    its memo as with a memo key that never repeats."""
    runs = Counter()
    side = ["memo"]
    execute_selected = explorer.execute_selected

    def counted(*args):
        runs[side[0]] += 1
        return execute_selected(*args)

    bounds = ExploreBounds(horizon=6, max_states=300)
    with mock.patch.object(explorer, "execute_selected", counted):
        for seed in range(count):
            model, checked = checked_model(seed)
            for mode in (CHECK_LITERAL, CHECK_EFFECTIVE):
                side[0] = "memo"
                memo = explore(checked, env_for(model), bounds, deadline_check=mode)
                side[0] = "all-miss"
                plain = explore_without_memo(checked, env_for(model), bounds,
                                             deadline_check=mode)
                assert graph_outputs(memo) == graph_outputs(plain), f"seed {seed} {mode}"
    # The memo was used. Generated bodies cannot fault (they divide by
    # nothing), so test_explorer holds the faulting cases.
    assert runs["memo"] < runs["all-miss"]


# Wildcard clauses that every model can decide, whatever its names.
ANY_MONITOR = ("EVENTUALLY purged *.*\nNEVER purged *.*\nEVENTUALLY sent *.* WITHIN 2\n"
               "ALWAYS-PRECEDES(purged *.*, selected *.*)\n")


def generated_monitor(model, seed: int) -> str:
    """Clauses over one instance and two methods drawn from ``model``."""
    rng = random.Random(seed)
    inst = rng.choice(model.main).name
    m1, m2 = (rng.choice([m.name for c in model.classes for m in c.methods]) for _ in "ab")
    return (f"EVENTUALLY selected {inst}.{m1}\nNEVER selected *.{m2}\n"
            f"ALWAYS-PRECEDES(selected *.{m1}, selected {inst}.{m2})\n"
            f"EVENTUALLY selected *.{m2} WITHIN 3\n" + ANY_MONITOR)


def check_fold_memo_oracle(count: int) -> None:
    """``check_graph`` gives the same statuses and witnesses with its fold
    memo as with one ``_fold_events`` per product state and edge, on graphs
    whose edges share events objects and on graphs where none do."""
    folds = Counter()
    side = ["memo"]
    fold_events = monitors._fold_events

    def counted(*args):
        folds[side[0]] += 1
        return fold_events(*args)

    def per_edge(_folds, clause, st, events):
        return counted(clause, st, events)

    def outcomes(result, spec):
        side[0] = "memo"
        shared = monitors.check_graph(result, spec)
        side[0] = "per-edge"
        with mock.patch.object(monitors, "_fold_shared", per_edge):
            plain = monitors.check_graph(result, spec)
        got = [[(c.exists_status, c.forall_status, c.exists_witness, c.forall_witness)
                for c in verdict.clauses] for verdict in (shared, plain)]
        assert got[0] == got[1]
        return got[0]

    bundled_spec = monitors.parse_monitor(
        "".join(bundled_text(name) for name in BUNDLED_MONITORS) + ANY_MONITOR)
    with mock.patch.object(monitors, "_fold_events", counted):
        for name, env, bounds, mode in BUNDLED_CASES.values():
            result = explore(load_model(bundled_text(name)), env, bounds, deadline_check=mode)
            outcomes(result, bundled_spec)
        for seed in range(count):
            model, checked = checked_model(seed)
            spec = monitors.parse_monitor(generated_monitor(model, seed))
            bounds = ExploreBounds(horizon=6, max_states=300)
            memo = explore(checked, env_for(model), bounds)
            plain = explore_without_memo(checked, env_for(model), bounds)
            assert outcomes(memo, spec) == outcomes(plain, spec), f"seed {seed}"
    # The memo was used.
    assert folds["memo"] < folds["per-edge"]


def check_sends_reach_live_rebecs(count: int) -> None:
    """Every message enters the bag addressed to a live rebec. No step
    checks this; the checker proves it (``interp._Compiler.send``), so a
    feature that lets a body name a rebec another way must keep it."""
    add_message = SystemState.add_message
    seen = Counter()

    def live_add(state, msg):
        assert msg.receiver in state.envs, msg
        # An id with a '#' was made by a new, which itself sends only
        # initial; any other message to such a rebec went through a local.
        seen["to a new rebec", msg.method != "initial" and "#" in msg.receiver] += 1
        seen["from a new rebec", "#" in msg.sender] += 1
        return add_message(state, msg)

    with mock.patch.object(SystemState, "add_message", live_add):
        for name, env, bounds, mode in BUNDLED_CASES.values():
            explore(load_model(bundled_text(name)), env, bounds, deadline_check=mode)
        for label in RUN_CASES:
            run_trace(label)
        bounds = ExploreBounds(horizon=6, max_states=300)
        for seed in range(count):
            model, checked = checked_model(seed)
            for mode in (CHECK_LITERAL, CHECK_EFFECTIVE):
                explore(checked, env_for(model), bounds, deadline_check=mode)
    # Sends reached rebecs known only through a local, and created rebecs sent.
    assert seen["to a new rebec", True] > 0 and seen["from a new rebec", True] > 0


def every_exploration():
    """(label, checked model, env, bounds, deadline check) for every golden
    exploration and for generated seeds 0-119 at horizon 6, capped at 4,000
    states: small models, tie-heavy rows and spawn chains."""
    for label, (name, env, bounds, mode) in BUNDLED_CASES.items():
        yield label, load_model(bundled_text(name)), env, bounds, mode
    for seed in range(120):
        model, checked = checked_model(seed)
        yield (f"seed {seed}", checked, env_for(model),
               ExploreBounds(horizon=6, max_states=4000), CHECK_LITERAL)


def scratch_state_key(state) -> str:
    """A state key rendered from scratch: every rebec id sorted, every
    record asked for its key, then the bag's texts."""
    envs = state.envs
    return ("|".join([envs[rid].key() for rid in sorted(envs)]) + "#"
            + ";".join([m.text for m in state.bag]))


# Equal copies in the bag, and purges that leave messages to serve: each go
# takes two ticks, so the copy still queued misses its deadline.
EQUAL_COPIES = (
    "reactiveclass A { knownrebecs {} statevars {}"
    " msgsrv initial() { self.go() deadline(1); self.go() deadline(1);"
    " self.go() after(1); self.go() after(1); }"
    " msgsrv go() { delay(2); self.go() after(1); } }"
    " main { A a():(); }")


def built_successor(parent, msg, record, sent):
    """What serving ``msg`` in ``parent`` leads to, built from a clone."""
    succ = parent.clone()
    succ.remove_message(msg)
    succ.envs[msg.receiver] = record
    for m in sent:
        succ.add_message(m)
    return succ


def check_keys_from_parents() -> None:
    """Every key the explorer builds from its parent's parts equals the
    rendering from scratch of the state it names: the root, a memo miss's
    executed state, or a memo hit's successor built from a clone. Keys are
    built from parents whose purge removed messages and from bags holding
    equal copies."""
    state_key = explorer.state_key
    prepare_step = explorer.prepare_step
    seen = Counter()
    label = ""
    purged = None  # the state being expanded, if its purge removed messages

    def watched_prepare(state, *args):
        nonlocal purged
        out = prepare_step(state, *args)
        purged = state if out[0] else None
        return out

    def checked_key(state, parts=None, msg=None, record=None, sent=(), work=None):
        parent_ids = parts[0] if parts else []
        key = state_key(state, parts, msg, record, sent, work)
        succ = (state if msg is None else work if work is not None
                else built_successor(state, msg, record, sent))
        assert key == scratch_state_key(succ), label
        seen["keys"] += 1
        # A step that created rebecs; the root's parent has no rebecs.
        seen["spawns"] += bool(parent_ids) and len(succ.envs) > len(parent_ids)
        seen["after a purge"] += state is purged
        bag = succ.bag
        seen["equal copies"] += any(a.sort_key == b.sort_key for a, b in zip(bag, bag[1:]))
        return key

    copies = load_model(EQUAL_COPIES)
    explorations = chain(every_exploration(), [
        (f"equal copies {mode}", copies, {}, ExploreBounds(horizon=8), mode)
        for mode in (CHECK_LITERAL, CHECK_EFFECTIVE)])
    with mock.patch.object(explorer, "state_key", checked_key), \
            mock.patch.object(explorer, "prepare_step", watched_prepare):
        for label, checked, env, bounds, mode in explorations:
            explore(checked, env, bounds, deadline_check=mode)
    assert seen["keys"] > 100_000 and seen["spawns"] > 10_000, seen
    assert seen["after a purge"] > 0 and seen["equal copies"] > 0, seen


def old_canonicalize(result) -> None:
    """The renumbering and global edge sort that ``explorer._canonicalize``
    did before it sorted nodes level by level and edges node by node."""
    order = sorted(range(len(result.nodes)),
                   key=lambda i: (result.nodes[i].depth, result.nodes[i].key))
    remap = {old: new for new, old in enumerate(order)}
    result.nodes = [result.nodes[old] for old in order]
    for e in result.edges:
        e.src = remap[e.src]
        e.dst = remap[e.dst]
    for b in result.error_branches:
        b.src = remap[b.src]
    result.edges.sort(key=lambda e: (e.src, e.decision.message, e.decision.choices, e.dst))
    result.error_branches.sort(key=lambda b: (b.src, b.decision.message, b.decision.choices))


def check_graph_bytes_ignore_tie_order() -> None:
    """``to_json()`` is byte-identical with shuffled candidates wherever no
    state cap cut the search, and ``_canonicalize`` agrees with the old
    global sort on every search."""
    canonicalize = explorer._canonicalize
    shuffled_order = shuffled_ties(27)

    def both(result):
        copy = dataclasses.replace(
            result, nodes=list(result.nodes),
            edges=[Edge(e.src, e.dst, e.decision, e.time, e.events) for e in result.edges],
            error_branches=[ErrorBranch(b.src, b.decision, b.message)
                            for b in result.error_branches])
        canonicalize(result)
        old_canonicalize(copy)
        assert graph_outputs(copy) == graph_outputs(result), label

    compared = skipped = 0
    for label, checked, env, bounds, mode in every_exploration():
        with mock.patch.object(explorer, "_canonicalize", both):
            base = explore(checked, env, bounds, deadline_check=mode)
        if budget_truncated(base):
            skipped += 1
            continue
        with shuffled_order:
            shuffled = explore(checked, env, bounds, deadline_check=mode)
        assert shuffled.to_json() == base.to_json(), label
        compared += 1
    assert (compared, skipped) == (121, 7)


def old_check_graph(result, spec):
    """``monitors.check_graph`` as it was before product states became ints:
    tuple states, a ``parents`` dict, a dict of successor lists and the
    set-based cycle search, with every state folding its purges and edges."""
    out_edges = result.out_edges()
    faulted = {branch.src for branch in result.error_branches}
    horizon = result.bounds.horizon
    verdicts = []
    for clause in spec.clauses:
        folds = {}
        start = (result.root, monitors._fold_events(clause, monitors._ST_OPEN,
                                                    result.root_events))
        parents = {start: None}
        successors = {}
        queue = deque([start])
        path_outcomes = {}
        while queue:
            prod = queue.popleft()
            succs = successors[prod] = []
            nid, st = prod
            node = result.nodes[nid]
            if node.purge_events:
                st = monitors._fold_events(clause, st, node.purge_events)
            if node.terminal is not None:
                bound = horizon if node.terminal == scheduler.END_HORIZON else None
                path_outcomes.setdefault(
                    monitors._end_status(clause, st, node.terminal, bound), prod)
            if nid in faulted:
                path_outcomes.setdefault(monitors._DECIDED.get(st, monitors.INCONCLUSIVE), prod)
            for edge in out_edges[nid]:
                nxt = (edge.dst, monitors._fold_shared(folds, clause, st, edge.events))
                succs.append(nxt)
                if nxt not in parents:
                    parents[nxt] = (prod, edge)
                    queue.append(nxt)
        undecided = monitors.FAIL if clause.op == monitors.EVENTUALLY else monitors.PASS
        for prod in old_cycle_states(successors, start):
            path_outcomes.setdefault(monitors._DECIDED.get(prod[1], undecided), prod)
        verdicts.append((
            monitors._aggregate(path_outcomes, prefer=(monitors.PASS, monitors.INCONCLUSIVE,
                                                       monitors.FAIL)),
            monitors._aggregate(path_outcomes, prefer=(monitors.FAIL, monitors.INCONCLUSIVE,
                                                       monitors.PASS)),
            old_path_to(parents, path_outcomes.get(monitors.PASS)),
            old_path_to(parents, path_outcomes.get(monitors.FAIL))))
    return verdicts


def old_path_to(parents, prod):
    if prod is None or prod not in parents:
        return None
    path = []
    cur = prod
    while parents[cur] is not None:
        prev, edge = parents[cur]
        path.append(edge.decision)
        cur = prev
    path.reverse()
    return path


def old_cycle_states(successors, start):
    targets = []
    on_path, done = {start}, set()
    work = [(start, iter(successors[start]))]
    while work:
        prod, it = work[-1]
        for nxt in it:
            if nxt in on_path:
                targets.append(nxt)
            elif nxt not in done:
                on_path.add(nxt)
                work.append((nxt, iter(successors[nxt])))
                break
        else:
            work.pop()
            on_path.remove(prod)
            done.add(prod)
    return targets


def check_graph_verdicts_match_the_tuple_search() -> None:
    """``check_graph`` gives the statuses and witnesses of the old tuple
    search on every golden exploration and generated seeds 0-119 (as
    ``every_exploration``), and on the zero-time loops. It skips the cycle
    search on some clause, and runs it, finding targets, on every clause of
    every loop."""
    cycle_states = monitors._cycle_states
    searched = []

    def counted(*args):
        targets = cycle_states(*args)
        searched.append(len(targets))
        return targets

    def compare(label, result, spec):
        searched.clear()
        with mock.patch.object(monitors, "_cycle_states", counted):
            got = [(c.exists_status, c.forall_status, c.exists_witness, c.forall_witness)
                   for c in monitors.check_graph(result, spec).clauses]
        assert got == old_check_graph(result, spec), label
        return list(searched)

    bundled_spec = monitors.parse_monitor(
        "".join(bundled_text(name) for name in BUNDLED_MONITORS) + ANY_MONITOR)
    graphs = clauses = skipped = 0
    for label, checked, env, bounds, mode in every_exploration():
        if label.startswith("seed "):
            spec = monitors.parse_monitor(generated_monitor(checked.model, int(label[5:])))
        else:
            spec = bundled_spec
        searches = compare(label, explore(checked, env, bounds, deadline_check=mode), spec)
        graphs += 1
        clauses += len(spec.clauses)
        skipped += len(spec.clauses) - len(searches)
    assert graphs == 128 and 0 < skipped < clauses, (graphs, skipped, clauses)
    loop_spec = monitors.parse_monitor(
        ANY_MONITOR + "EVENTUALLY selected *.mark\nNEVER selected *.mark\n")
    for label, text in ZERO_TIME_LOOPS.items():
        result = explore(load_model(text), {}, ExploreBounds(horizon=5))
        searches = compare(label, result, loop_spec)
        assert len(searches) == len(loop_spec.clauses) and all(searches), (label, searches)


def test_runs_satisfy_semantic_invariants():
    check_many_runs(300)


def test_round_trip_generated():
    check_round_trips(200)


def test_explorer_order_independence():
    check_order_independence(80, min_compared=50)


def test_runs_contained_in_graphs():
    check_containment(60)


def test_purges_match_a_full_scan():
    check_purge_oracle(120)


def test_memo_matches_an_explorer_that_always_misses():
    check_memo_oracle(120)


def test_graph_verdicts_match_a_fold_per_edge():
    check_fold_memo_oracle(120)


def test_sends_reach_live_rebecs():
    check_sends_reach_live_rebecs(120)


def test_keys_built_from_parents_match_a_rendering_from_scratch():
    check_keys_from_parents()


def test_graph_bytes_do_not_depend_on_tie_order():
    check_graph_bytes_ignore_tie_order()


def test_graph_verdicts_match_the_tuple_search():
    check_graph_verdicts_match_the_tuple_search()
