"""Seeded generator of small Timed Rebeca models, emitted as source text.

The benchmark owns this generator, so its corpus depends on the benchmark
seed and on nothing in the program or its tests. The shape follows the
property suite's random models: one to three classes, a few state
variables, known rebecs and message servers, nondeterministic choice,
delays, deadlines and dynamic creation of a "leaf" class (one without
known rebecs). Every model validates and never divides.

Sends to a method that can send again get a positive after-offset, so no
chain of sends spins at one instant. Dynamic creation is the exception,
kept on purpose: a leaf class whose ``initial`` creates another instance of
itself is a spawn chain. Every step then adds a rebec at the same instant,
so state width grows with depth until the explorer's state cap or the
run's step bound cuts it. Those models are the corpus's slow tail.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

INT_TYPES = ("int", "time")


@dataclass
class Generated:
    """One corpus entry: the model text and a monitor clause about it."""

    source: str
    clause: str


class _Method:
    def __init__(self, name, params):
        self.name = name
        self.params = params  # [(name, type)]
        self.body = []


class _Class:
    def __init__(self, name, statevars, knowns, methods, queue_bound):
        self.name = name
        self.statevars = statevars  # [(name, type)]
        self.knowns = knowns  # [(name, class name)]
        self.methods = methods  # [_Method]
        self.queue_bound = queue_bound


# Statements are tuples:
#   ("assign", name, expr)   ("delay", expr)   ("now",)
#   ("send", target, method, [exprs], after, deadline)   after/deadline: int or None
#   ("new", local, class)    ("if", cond, then_stmts, else_stmts or None)
# Expressions are already source text.


class _Scope:
    def __init__(self, rng, env_vars, cls, params):
        self.rng = rng
        self.env_vars = env_vars
        self.cls = cls
        self.params = params
        self.locals: dict[str, str] = {}
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        name = f"{prefix}{self.counter}"
        self.counter += 1
        return name

    def names_of(self, kinds) -> list[str]:
        pool = list(self.env_vars) + self.cls.statevars + self.params
        pool += list(self.locals.items())
        return [n for n, t in pool if t in kinds]


def _int_expr(sc: _Scope, depth: int = 0) -> str:
    rng = sc.rng
    roll = rng.random()
    if depth >= 2 or roll < 0.45:
        return str(rng.randrange(0, 6))
    if roll < 0.6:
        names = sc.names_of(INT_TYPES)
        return rng.choice(names) if names else str(rng.randrange(0, 6))
    if roll < 0.7:
        return "now()"
    if roll < 0.85:
        op = rng.choice(["+", "-", "*"])
        return f"({_int_expr(sc, depth + 1)} {op} {_int_expr(sc, depth + 1)})"
    alts = [_int_expr(sc, depth + 1) for _ in range(rng.choice([2, 2, 3]))]
    return f"?({', '.join(alts)})"


def _bool_expr(sc: _Scope, depth: int = 0) -> str:
    rng = sc.rng
    roll = rng.random()
    if depth >= 2 or roll < 0.3:
        return rng.choice(["true", "false"])
    if roll < 0.45:
        names = sc.names_of(("boolean",))
        return rng.choice(names) if names else "true"
    if roll < 0.8:
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"({_int_expr(sc, depth + 1)} {op} {_int_expr(sc, depth + 1)})"
    if roll < 0.9:
        return f"!({_bool_expr(sc, depth + 1)})"
    op = rng.choice(["&&", "||"])
    return f"({_bool_expr(sc, depth + 1)} {op} {_bool_expr(sc, depth + 1)})"


def _typed_expr(sc: _Scope, type_name: str) -> str:
    return _bool_expr(sc) if type_name == "boolean" else _int_expr(sc)


def _send(sc: _Scope, classes: dict) -> tuple:
    rng = sc.rng
    target, target_cls = rng.choice([("self", sc.cls.name)] + sc.cls.knowns)
    method = rng.choice(classes[target_cls].methods)
    after = rng.randrange(1, 4) if rng.random() < 0.8 else None
    deadline = rng.randrange(1, 5) if rng.random() < 0.3 else None
    args = [_typed_expr(sc, t) for _, t in method.params]
    return ("send", target, method.name, args, after, deadline)


def _stmts(sc: _Scope, classes: dict, leaves: list, budget: int) -> list:
    rng = sc.rng
    out = []
    for _ in range(budget):
        roll = rng.random()
        if roll < 0.3:
            targets = sc.cls.statevars + [(n, t) for n, t in sc.locals.items()
                                          if not t.startswith("rebec")]
            if targets and rng.random() < 0.7:
                name, t = rng.choice(targets)
                value = _typed_expr(sc, t)
            else:
                name, t = sc.fresh("v"), rng.choice(["int", "boolean"])
                value = _typed_expr(sc, t)  # before the local is in scope
                sc.locals[name] = t
            out.append(("assign", name, value))
        elif roll < 0.45:
            if rng.random() < 0.7:
                out.append(("delay", str(rng.randrange(0, 3))))
            else:
                out.append(("delay", f"?({rng.randrange(0, 3)}, {rng.randrange(0, 3)})"))
        elif roll < 0.75:
            out.append(_send(sc, classes))
        elif roll < 0.9:
            entry = dict(sc.locals)
            cond = _bool_expr(sc)
            then_body = _stmts(sc, classes, leaves, rng.randrange(1, 3))
            sc.locals = dict(entry)  # branch locals stay branch-local
            else_body = None
            if rng.random() < 0.5:
                else_body = _stmts(sc, classes, leaves, rng.randrange(1, 3))
            sc.locals = dict(entry)
            out.append(("if", cond, then_body, else_body))
        elif roll < 0.95 and leaves:
            leaf = classes[rng.choice(leaves)]
            name = sc.fresh("r")
            out.append(("new", name, leaf.name))
            sc.locals[name] = f"rebec:{leaf.name}"
            if rng.random() < 0.5:
                method = rng.choice(leaf.methods)
                args = [_typed_expr(sc, t) for _, t in method.params]
                out.append(("send", name, method.name, args, rng.randrange(1, 3), None))
        else:
            out.append(("now",))
    return out


def _can_send(stmts) -> bool:
    for s in stmts:
        if s[0] in ("send", "new"):
            return True
        if s[0] == "if" and (_can_send(s[2]) or _can_send(s[3] or [])):
            return True
    return False


def _force_progress(classes: dict) -> None:
    """A send whose target method can send again gets after >= 1."""
    sends = {(c.name, m.name): _can_send(m.body)
             for c in classes.values() for m in c.methods}

    def fix(stmts, owner: dict):
        for i, s in enumerate(stmts):
            if s[0] == "send":
                target_cls = owner.get(s[1])
                if sends.get((target_cls, s[2]), True) and not s[4]:
                    stmts[i] = s[:4] + (1,) + s[5:]
            elif s[0] == "if":
                fix(s[2], owner)
                fix(s[3] or [], owner)

    for cls in classes.values():
        owner = {"self": cls.name, **dict(cls.knowns)}
        for m in cls.methods:
            local = dict(owner)
            for s in m.body:
                if s[0] == "new":
                    local[s[1]] = s[2]
            fix(m.body, local)


def _emit_stmts(stmts, indent: int, out: list) -> None:
    pad = "    " * indent
    for s in stmts:
        kind = s[0]
        if kind == "assign":
            out.append(f"{pad}{s[1]} = {s[2]};")
        elif kind == "delay":
            out.append(f"{pad}delay({s[1]});")
        elif kind == "now":
            out.append(f"{pad}now();")
        elif kind == "new":
            out.append(f"{pad}{s[1]} = new {s[2]}();")
        elif kind == "send":
            _, target, method, args, after, deadline = s
            text = f"{pad}{target}.{method}({', '.join(args)})"
            if after is not None:
                text += f" after({after})"
            if deadline is not None:
                text += f" deadline({deadline})"
            out.append(text + ";")
        else:
            out.append(f"{pad}if ({s[1]}) {{")
            _emit_stmts(s[2], indent + 1, out)
            if s[3]:
                out.append(f"{pad}}} else {{")
                _emit_stmts(s[3], indent + 1, out)
            out.append(f"{pad}}}")


def generate(seed: int) -> Generated:
    """Model number ``seed``: its source text and one monitor clause."""
    rng = random.Random(seed)
    n_classes = rng.randrange(1, 4)
    names = [f"C{i}" for i in range(n_classes)]
    leaves = [names[-1]] if n_classes > 1 and rng.random() < 0.3 else []
    env_vars = [(f"p{i}", "int") for i in range(rng.randrange(0, 3))]

    classes: dict[str, _Class] = {}
    for name in names:
        statevars = [(f"s{i}", rng.choice(["int", "boolean", "time"]))
                     for i in range(rng.randrange(0, 3))]
        knowns = []
        if name not in leaves:
            knowns = [(f"k{i}", rng.choice(names)) for i in range(rng.randrange(0, 3))]
        methods = [_Method("initial", [])]
        for i in range(rng.randrange(0, 3)):
            params = [(f"a{j}", rng.choice(["int", "boolean"]))
                      for j in range(rng.randrange(0, 3))]
            methods.append(_Method(f"m{i}", params))
        classes[name] = _Class(name, statevars, knowns, methods,
                               rng.choice([None, None, None, 5]))

    for cls in classes.values():
        for m in cls.methods:
            sc = _Scope(rng, env_vars, cls, m.params)
            budget = rng.randrange(1, 4) if m.name == "initial" else rng.randrange(0, 4)
            m.body = _stmts(sc, classes, leaves, budget)
    _force_progress(classes)

    # Every class gets at least one instance, so known wiring always resolves.
    instances = []
    by_class: dict[str, list[str]] = {}
    for cls in classes.values():
        for _ in range(1 + (rng.random() < 0.25)):
            inst = f"r{len(instances)}"
            instances.append((inst, cls))
            by_class.setdefault(cls.name, []).append(inst)

    out = [f"env int {n};" for n, _ in env_vars]
    if env_vars:
        out.append("")
    for cls in classes.values():
        bound = f"({cls.queue_bound})" if cls.queue_bound else ""
        out.append(f"reactiveclass {cls.name}{bound} {{")
        out.append("    knownrebecs {")
        out += [f"        {c} {n};" for n, c in cls.knowns]
        out.append("    }")
        out.append("    statevars {")
        out += [f"        {t} {n};" for n, t in cls.statevars]
        out.append("    }")
        for m in cls.methods:
            params = ", ".join(f"{t} {n}" for n, t in m.params)
            out.append(f"    msgsrv {m.name}({params}) {{")
            _emit_stmts(m.body, 2, out)
            out.append("    }")
        out.append("}")
        out.append("")
    out.append("main {")
    for inst, cls in instances:
        knowns = ", ".join(rng.choice(by_class[c]) for _, c in cls.knowns)
        inits = []
        for _, t in cls.statevars[:rng.randrange(0, len(cls.statevars) + 1)]:
            inits.append(rng.choice(["true", "false"]) if t == "boolean"
                         else str(rng.randrange(0, 4)))
        out.append(f"    {cls.name} {inst}({knowns}):({', '.join(inits)});")
    out.append("}")

    inst, cls = rng.choice(instances)
    event = f"{rng.choice(['selected', 'selected', 'sent', 'purged'])} {inst}.{rng.choice(cls.methods).name}"
    kind = rng.random()
    if kind < 0.5:
        clause = f"EVENTUALLY {event}"
    elif kind < 0.8:
        clause = f"NEVER {event}"
    else:
        other, other_cls = rng.choice(instances)
        clause = f"ALWAYS-PRECEDES(selected {other}.{rng.choice(other_cls.methods).name}, {event})"
    return Generated(source="\n".join(out) + "\n", clause=clause)
