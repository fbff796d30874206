"""Message selection and the top-level simulation loop.

Each step purges expired messages, picks one of the messages carrying the
globally smallest time tag, and executes the corresponding method to
completion. Ties between equal time tags are genuine nondeterminism: the
simulator breaks them with a seeded rng, the explorer branches.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as escape
from typing import Optional

from .interp import Resolver, exec_method, make_rebec_env
from .model import (
    EV_CREATED,
    EV_ENDED,
    EV_PURGED,
    EV_SELECTED,
    EV_SENT,
    EXTERNAL_ID,
    Event,
    Message,
    MessageEvent,
    NEVER,
    RebecRef,
    SystemState,
    TraceEvent,
    Value,
    deadline_text,
    json_int,
    json_str,
    message_sort_key,
)
from .parser import CheckedModel

CHECK_LITERAL = "literal"
CHECK_EFFECTIVE = "effective"
DEADLINE_CHECKS = (CHECK_LITERAL, CHECK_EFFECTIVE)

# Termination reasons. The first two end a run for good; the others mean the
# run was cut short and more behaviour exists beyond the bound. A truncated
# node is one the explorer left unexpanded when its state cap cut the search.
END_EMPTY = "empty-bag"
END_EXPIRED = "all-expired"
END_HORIZON = "horizon"
END_MAX_STEPS = "max-steps"
END_PARTIAL = "partial"
END_TRUNCATED = "truncated"
TRUNCATED_REASONS = frozenset({END_HORIZON, END_MAX_STEPS, END_PARTIAL, END_TRUNCATED})

_JSONL_BLOCK = 256  # trace lines that Trace.to_jsonl joins at a time


def require_bounds(missing: str, **bounds: Optional[int]) -> None:
    """The one bound rule of runs and explorations: raise ``ValueError``
    with ``missing`` when no bound is set, or naming a negative bound."""
    if all(value is None for value in bounds.values()):
        raise ValueError(missing)
    for name, value in bounds.items():
        if value is not None and value < 0:
            raise ValueError(f"{name.replace('_', '-')} must be non-negative, got {value}")


@dataclass
class SchedulePolicy:
    deadline_check: str = CHECK_LITERAL
    horizon: Optional[int] = None
    max_steps: Optional[int] = None

    def require_bound(self) -> None:
        require_bounds("a run needs a horizon or a max-steps bound",
                       horizon=self.horizon, max_steps=self.max_steps)


@dataclass
class Trace:
    events: list[Event] = field(default_factory=list)

    @property
    def end_reason(self) -> Optional[str]:
        for ev in reversed(self.events):
            if ev.kind == EV_ENDED:
                return ev.reason
        return None

    def end(self, reason: str, horizon: Optional[int]) -> None:
        """Close the trace with ``run_ended``. A horizon cut is stamped with
        the bound itself, so monitors can tell how far the run definitely
        looked; any other end with the time of the last event."""
        time = horizon if reason == END_HORIZON else self.events[-1].time
        self.events.append(TraceEvent(kind=EV_ENDED, time=time, reason=reason))

    def selected(self) -> list[MessageEvent]:
        return [ev for ev in self.events if ev.kind == EV_SELECTED]

    def to_jsonl(self) -> str:
        """One JSON object per event, fields in fixed order, exactly as
        ``json.dumps(record, separators=(",", ":"))`` writes it; only
        ``run_ended`` adds its ``reason``."""
        # A block of lines at a time: a whole trace's lines, each an object
        # of its own, would take more memory than the text they join into.
        events, blocks = self.events, []
        for first in range(0, len(events), _JSONL_BLOCK):
            lines = []
            for step, ev in enumerate(events[first:first + _JSONL_BLOCK], first):
                msg = ev.msg
                if msg is not None:
                    # A message event, written from its message's fields: none
                    # is None, and a deadline's text needs no escaping.
                    lines.append(f'{{"step":{step},"kind":{escape(ev.kind)},"time":{ev.time},'
                                 f'"rebec":{escape(msg.receiver)},"method":{escape(msg.method)},'
                                 f'"sender":{escape(msg.sender)},"tt":{msg.tt},'
                                 f'"dl":"{deadline_text(msg.dl)}"}}\n')
                    continue
                line = (f'{{"step":{step},"kind":{json_str(ev.kind)},"time":{ev.time},'
                        f'"rebec":{json_str(ev.rebec)},"method":{json_str(ev.method)},'
                        f'"sender":{json_str(ev.sender)},"tt":{json_int(ev.tt)},'
                        f'"dl":{json_str(ev.dl)}')
                if ev.kind == EV_ENDED:
                    line += f',"reason":{json_str(ev.reason)}'
                lines.append(line + "}\n")
            blocks.append("".join(lines))
        return "".join(blocks)


# ---------------------------------------------------------------------------
# Message eligibility and purging


def eligible(msg: Message, state: SystemState, mode: str = CHECK_LITERAL) -> bool:
    """Whether the message may still be served.

    ``literal`` keeps the side condition exactly as the rule states it
    (receiver clock <= deadline); ``effective`` also rejects messages whose
    time tag alone is already past the deadline. A NEVER deadline lies above
    every tick, so both hold for it. ``mode`` is one of ``DEADLINE_CHECKS``.
    """
    receiver = state.envs[msg.receiver]
    if mode == CHECK_LITERAL:
        return receiver.now <= msg.dl
    return max(msg.tt, receiver.now) <= msg.dl


def purge_expired(state: SystemState, mode: str) -> list[MessageEvent]:
    """Drop every ineligible message, in canonical bag order.

    The bag is scanned only if some receiver's clock has passed its floor
    (``SystemState.floors``) or, under effective deadlines, ``state.late``
    says a time tag may lie past its deadline: otherwise every message is
    eligible. A scan rebuilds both exactly.
    """
    if not (state.late and mode == CHECK_EFFECTIVE):
        envs = state.envs
        for receiver, floor in state.floors.items():
            if envs[receiver].now > floor:
                break
        else:
            return []
    events: list[MessageEvent] = []
    keep: list[Message] = []
    floors: dict[str, int] = {}
    late = False
    for msg in state.bag:
        dl = msg.dl
        # A message without a deadline is eligible in every mode.
        if dl == NEVER:
            keep.append(msg)
        elif eligible(msg, state, mode):
            keep.append(msg)
            if floors.get(msg.receiver, NEVER) > dl:
                floors[msg.receiver] = dl
            if msg.tt > dl:
                late = True
        else:
            events.append(msg.event(EV_PURGED, state.envs[msg.receiver].now))
    state.bag = keep
    state.floors = floors
    state.late = late
    return events


def min_tt_candidates(state: SystemState) -> list[Message]:
    """Distinct messages carrying the smallest time tag, canonically ordered:
    the first message of each run of equal messages in the bag's prefix.

    Identical duplicates collapse: serving either copy of an equal message
    is the same transition. Equal messages have equal sort keys, so they
    are adjacent in the bag. A message that equals the last one taken
    starts a run of copies, which a bisection skips; otherwise one look at
    its time tag tells whether the prefix goes on.
    """
    bag = state.bag
    if not bag:
        return []
    msg = bag[0]
    out = [msg]
    lowest = msg.tt
    i, n = 1, len(bag)
    while i < n:
        nxt = bag[i]
        if nxt.sort_key == msg.sort_key:
            i = bisect_right(bag, msg.sort_key, i, key=message_sort_key)
        elif nxt.tt == lowest:
            out.append(nxt)
            msg = nxt
            i += 1
        else:
            break
    return out


def prepare_step(state: SystemState, deadline_check: str, horizon: Optional[int]
                 ) -> tuple[list[MessageEvent], Optional[str], list[Message]]:
    """Purge ``state`` and return ``(purge events, end reason, candidates)``:
    what every transition of ``run``, the explorer and ``replay`` does before
    it picks a message. The end reason is set, with no candidates, when the
    bag is empty, every message has expired or the next time tag lies past
    ``horizon``."""
    if not state.bag:
        return [], END_EMPTY, []
    events = purge_expired(state, deadline_check)
    if not state.bag:
        return events, END_EXPIRED, []
    if horizon is not None and state.bag[0].tt > horizon:
        return events, END_HORIZON, []
    return events, None, min_tt_candidates(state)


def execute_selected(state: SystemState, msg: Message,
                     resolver: Resolver) -> list[Event]:
    """Remove ``msg`` from the bag and serve it (``interp.exec_method``);
    shared by simulator, explorer and replay so their traces agree byte for
    byte. Returns the step's events, ``msg_selected`` first.

    ``msg`` must be an object taken from ``state.bag``
    (``SystemState.remove_message``).
    """
    state.remove_message(msg)
    return exec_method(msg, state, resolver)


# ---------------------------------------------------------------------------
# Initial state and the full run


def normalize_env_bindings(checked: CheckedModel, raw: dict) -> dict[str, Value]:
    """Check that the binding is total and that every value has its
    variable's type: a ``bool`` for a boolean, an ``int`` but no ``bool``
    for an int."""
    unknown = [name for name in raw if name not in checked.env_types]
    if unknown:
        raise ValueError(f"unknown env variable(s): {', '.join(sorted(unknown))}")
    missing = [name for name in checked.env_types if name not in raw]
    if missing:
        raise ValueError(f"missing env binding(s): {', '.join(sorted(missing))}")
    for name, value in raw.items():
        check_env_value(checked, name, value)
    return dict(raw)


def check_env_value(checked: CheckedModel, name: str, value: Value) -> None:
    """Raise ``ValueError`` unless ``value`` has the type of the declared
    env variable ``name``."""
    expected = checked.env_types[name]
    if expected == "boolean" and type(value) is not bool:
        raise ValueError(f"env variable {name!r} must be boolean")
    if expected == "int" and type(value) is not int:
        raise ValueError(f"env variable {name!r} must be an integer")


def build_initial_state(checked: CheckedModel,
                        env_bindings: dict) -> tuple[SystemState, list[Event]]:
    """Instantiate the main block under checked bindings: every rebec starts
    at time 0 with its initial message queued at time tag 0 and no deadline."""
    env_bindings = normalize_env_bindings(checked, env_bindings)
    state = SystemState(checked, env_bindings)
    events: list[Event] = []
    for inst in checked.model.main:
        info = checked.classes[inst.class_name]
        knowns = {decl.name: RebecRef(arg)
                  for decl, arg in zip(info.definition.known_decls, inst.known_args)}
        values = [read(env_bindings) for read in checked.init_readers[inst.name]]
        state.envs[inst.name] = make_rebec_env(inst.name, info, 0, knowns, values)
        events.append(TraceEvent(
            kind=EV_CREATED, time=0, rebec=inst.name, sender=EXTERNAL_ID,
        ))
    for inst in checked.model.main:
        msg = Message(receiver=inst.name, method="initial", args=(),
                      sender=EXTERNAL_ID, tt=0, dl=NEVER)
        state.add_message(msg)
        events.append(msg.event(EV_SENT, 0))
    return state, events


def start(checked: CheckedModel, env_bindings: dict, deadline_check: str,
          bounds) -> tuple[SystemState, list[Event]]:
    """The initial state and events of a run or an exploration, once its
    ``bounds`` (``require_bound``), its deadline mode and its bindings are
    checked, in that order; a fault is a ``ValueError``."""
    bounds.require_bound()
    if deadline_check not in DEADLINE_CHECKS:
        raise ValueError(f"unknown deadline check mode {deadline_check!r}")
    return build_initial_state(checked, env_bindings)


def run(checked: CheckedModel, env_bindings: dict, seed: int,
        policy: SchedulePolicy) -> Trace:
    """Simulate from the initial state until the policy ends the run.

    A pure function of its arguments: the same model, bindings, seed and
    policy give an identical trace.
    """
    state, events = start(checked, env_bindings, policy.deadline_check, policy)
    trace = Trace(events)
    rng = random.Random(seed)
    resolver = Resolver(rng=rng)
    steps = 0
    while policy.max_steps is None or steps < policy.max_steps:
        purge_events, end, candidates = prepare_step(state, policy.deadline_check,
                                                     policy.horizon)
        events += purge_events
        if end is not None:
            trace.end(end, policy.horizon)
            return trace
        # Draw only on a tie, then in the body: every seeded trace assumes it.
        msg = candidates[0] if len(candidates) == 1 else candidates[rng.randrange(len(candidates))]
        resolver.taken = []  # one resolver per run, a fresh record per step
        events += execute_selected(state, msg, resolver)
        steps += 1
    trace.end(END_MAX_STEPS, policy.horizon)
    return trace
