"""Command-line entry point: check, run, explore, sweep, emit.

Exit codes are stable: 0 success / all clauses pass, 1 model errors and
runtime faults, 2 monitor failure, 3 inconclusive verdicts, 4 unsupported
feature in emission, 64 usage errors, 74 I/O errors. Diagnostics go to
stderr, data to files or stdout.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from . import erlgen, monitors
from .explorer import ExploreBounds, explore
from .interp import ExecError
from .parser import CheckedModel, SourceError, load_model, parse_int
from .scheduler import (
    CHECK_LITERAL,
    DEADLINE_CHECKS,
    SchedulePolicy,
    check_env_value,
    normalize_env_bindings,
    run,
)

EXIT_OK = 0
EXIT_MODEL_ERROR = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_UNSUPPORTED = 4
EXIT_USAGE = 64
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 64 for usage
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Usage(Exception):
    pass


class _Failed(Exception):
    def __init__(self, code: int):
        self.code = code


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise _Failed(EXIT_IO) from exc


def _load(path: str, load: Callable, warnings: Callable):
    """``load`` of the text of ``path``, printing each error (exit 1), then
    each of ``warnings(result)``, at its position in ``path``."""
    text = _read_text(path)
    try:
        result = load(text)
    except SourceError as exc:
        for err in exc.errors:
            print(err.render(path), file=sys.stderr)
        raise _Failed(EXIT_MODEL_ERROR) from exc
    for warning in warnings(result):
        print(warning.render(path), file=sys.stderr)
    return result


def _load_checked(path: str) -> CheckedModel:
    return _load(path, load_model, lambda checked: checked.warnings)


def _load_monitor(path: Optional[str], checked: CheckedModel) -> Optional[monitors.MonitorSpec]:
    if not path:
        return None
    return _load(path, monitors.parse_monitor,
                 lambda spec: monitors.validate_monitor(spec, checked))


def _pairs(text: str, path: str, sep: str, form: str) -> Iterator[tuple[str, str, str]]:
    """``(path:line, name, value)`` for each ``name<sep>value`` line of the
    file ``path``; ``#`` starts a comment. A line without ``sep`` (``form``
    spells the line expected) or a name given twice is a usage error."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if sep not in line:
            raise _Usage(f"{where}: expected {form}")
        name, _, value = line.partition(sep)
        name = name.strip()
        if name in seen:
            raise _Usage(f"{where}: duplicate key {name!r}")
        seen.add(name)
        yield where, name, value.strip()


def _parse_env_value(text: str, where: Optional[str] = None):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return parse_int(text)
    except ValueError:
        message = f"env values must be integers or true/false, got {text!r}"
        raise _Usage(f"{where}: {message}" if where else message) from None


def _collect_env(args) -> dict:
    bindings: dict = {}
    if args.env_file:
        for where, name, value in _pairs(_read_text(args.env_file), args.env_file,
                                         "=", "name=value"):
            bindings[name] = _parse_env_value(value, where)
    for item in args.env or []:
        if "=" not in item:
            raise _Usage(f"--env expects name=value, got {item!r}")
        name, _, value = item.partition("=")
        bindings[name.strip()] = _parse_env_value(value.strip())
    return bindings


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        raise _Failed(EXIT_IO) from exc


def _witness_text(ev) -> str:
    if ev is None:
        return ""
    if ev.kind == "run_ended":
        return f"run_ended({ev.reason})@{ev.time}"
    return f"{ev.kind}@{ev.time} {ev.rebec}.{ev.method}"


def _verdict_exit(statuses: list[str]) -> int:
    if any(s == monitors.FAIL for s in statuses):
        return EXIT_FAIL
    if all(s == monitors.PASS for s in statuses):
        return EXIT_OK
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    _load_checked(args.model)
    print("ok", file=sys.stderr)
    return EXIT_OK


def cmd_run(args) -> int:
    checked = _load_checked(args.model)
    policy = SchedulePolicy(
        deadline_check=args.deadline_check,
        horizon=args.horizon, max_steps=args.max_steps,
    )
    spec = _load_monitor(args.monitor, checked)
    try:
        trace = run(checked, _collect_env(args), args.seed, policy)
    except ValueError as exc:
        raise _Usage(str(exc))
    except ExecError as exc:
        print(f"{args.model}: runtime error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    if args.trace:
        _write_file(args.trace, trace.to_jsonl())
    print(f"run ended: reason={trace.end_reason} events={len(trace.events)}",
          file=sys.stderr)
    if spec is None:
        return EXIT_OK
    verdict = monitors.check_trace(trace, spec)
    if args.json:
        doc = {"clauses": [
            {"clause": str(c.clause), "status": c.status, "witness": _witness_text(c.witness)}
            for c in verdict.clauses
        ]}
        print(json.dumps(doc, indent=2))
    else:
        for c in verdict.clauses:
            print(f"{c.status.upper():12s} {c.clause}    [{_witness_text(c.witness)}]")
    return _verdict_exit([c.status for c in verdict.clauses])


def cmd_explore(args) -> int:
    checked = _load_checked(args.model)
    bounds = ExploreBounds(horizon=args.horizon, max_steps=args.max_steps,
                           max_states=args.max_states)
    spec = _load_monitor(args.monitor, checked)
    try:
        result = explore(checked, _collect_env(args), bounds,
                         deadline_check=args.deadline_check)
    except ValueError as exc:
        raise _Usage(str(exc))
    terminals = result.terminals()
    print(f"explored states={len(result.nodes)} edges={len(result.edges)}"
          f" terminals={len(terminals)} truncated={result.truncated}"
          f" errors={len(result.error_branches)}", file=sys.stderr)
    for branch in result.error_branches:
        print(f"{args.model}: runtime error: {branch.message}", file=sys.stderr)
    if args.graph:
        _write_file(args.graph, result.to_json())
    if args.dot:
        _write_file(args.dot, result.to_dot())
    code = EXIT_OK
    if spec is not None:
        verdict = monitors.check_graph(result, spec)
        if args.json:
            doc = {"clauses": [
                {"clause": str(c.clause), "exists": c.exists_status, "forall": c.forall_status}
                for c in verdict.clauses
            ]}
            print(json.dumps(doc, indent=2))
        else:
            for c in verdict.clauses:
                print(str(c))
        code = _verdict_exit([c.exists_status if args.exit_on == "exists" else c.forall_status
                              for c in verdict.clauses])
    # A runtime fault is a model error, whatever the verdicts say, as in sweep.
    return EXIT_MODEL_ERROR if result.error_branches else code


@dataclass
class SweepSpec:
    """A grid of env-variable candidate lists, the seeds to run per point,
    and the per-point schedule settings."""

    env_lists: list  # (name, [values]) in file order
    seeds: list
    where: dict = field(default_factory=dict)  # env list name -> its "path:line"
    horizon: Optional[int] = None
    max_steps: Optional[int] = None
    deadline_check: str = CHECK_LITERAL

    @property
    def names(self) -> list:
        return [name for name, _ in self.env_lists]

    def points(self) -> list:
        return list(itertools.product(*[values for _, values in self.env_lists]))


def _spec_int(text: str, where: str, name: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise _Usage(f"{where}: {name} must be an integer, got {text!r}") from None


def parse_sweep_spec(text: str, path: str) -> SweepSpec:
    spec = SweepSpec(env_lists=[], seeds=[0])
    for where, name, value in _pairs(text, path, ":", "'name: value'"):
        if value.startswith("[") and value.endswith("]"):
            items = [v.strip() for v in value[1:-1].split(",")]
            if items == [""]:
                raise _Usage(f"{where}: empty value list for {name!r}")
            if "" in items:
                raise _Usage(f"{where}: empty item in the value list for {name!r}, got {value}")
            if name == "seeds":
                spec.seeds = [_spec_int(v, where, "a seed") for v in items]
                if len(set(spec.seeds)) < len(spec.seeds):
                    raise _Usage(f"{where}: seeds must be distinct, got {value}")
                if min(spec.seeds) < 0:
                    raise _Usage(f"{where}: seeds must be non-negative, got {value}")
            else:
                spec.env_lists.append((name, [_parse_env_value(v, where) for v in items]))
                spec.where[name] = where
        elif name in ("horizon", "max_steps"):
            bound = _spec_int(value, where, name)
            if bound < 0:
                raise _Usage(f"{where}: {name} must be non-negative, got {bound}")
            setattr(spec, name, bound)
        elif name == "deadline_check":
            if value not in DEADLINE_CHECKS:
                raise _Usage(f"{where}: unknown deadline_check {value!r}")
            spec.deadline_check = value
        elif name == "seeds":
            count = _spec_int(value, where, name)
            if count < 1:
                raise _Usage(f"{where}: seeds: N needs N >= 1, got {count}")
            spec.seeds = list(range(count))
        else:
            raise _Usage(f"{where}: scalar env values must be written as [v]")
    if not spec.env_lists:
        raise _Usage(f"{path}: sweep file declares no env variable lists")
    return spec


def cmd_sweep(args) -> int:
    checked = _load_checked(args.model)
    sweep = parse_sweep_spec(_read_text(args.sweep), args.sweep)
    policy = SchedulePolicy(
        deadline_check=sweep.deadline_check,
        horizon=sweep.horizon if sweep.horizon is not None else args.horizon,
        max_steps=sweep.max_steps if sweep.max_steps is not None else args.max_steps)
    spec = _load_monitor(args.monitor, checked)

    names = sweep.names
    points = sweep.points()
    seeds = sorted(sweep.seeds)  # seeds listed out of order write the same files
    total = len(points) * len(seeds)
    print(f"sweep: {len(points)} parameter point(s) x {len(seeds)} seed(s)"
          f" = {total} run(s)", file=sys.stderr)
    if total > args.cap and not args.force:
        print(f"refusing to run {total} > cap {args.cap} runs (use --force)",
              file=sys.stderr)
        return EXIT_USAGE
    try:  # a usage error writes nothing
        policy.require_bound()
        for name, values in sweep.env_lists:
            where = sweep.where[name]
            if name not in checked.env_types:
                raise _Usage(f"{where}: unknown env variable {name!r}")
            for value in values:
                try:
                    check_env_value(checked, name, value)
                except ValueError as exc:
                    raise _Usage(f"{where}: {exc}") from None
        # Every value is typed, so one point finds any missing binding.
        normalize_env_bindings(checked, dict(zip(names, points[0])))
    except ValueError as exc:
        raise _Usage(str(exc))

    out_dir = Path(args.out)
    clause_names = [str(c) for c in spec.clauses] if spec else []
    faulted = False
    try:
        (out_dir / "traces").mkdir(parents=True, exist_ok=True)
        with (out_dir / "results.csv").open("w", newline="", encoding="utf-8") as rfh, \
                (out_dir / "summary.csv").open("w", newline="", encoding="utf-8") as sfh:
            results, summary = csv.writer(rfh), csv.writer(sfh)
            results.writerow(["point", *names, "seed", "end_reason", *clause_names, "trace"])
            summary.writerow(["point", *names, "seeds", "runtime_errors",
                              *[f"{c} [pass/fail/inconclusive]" for c in clause_names]])
            for index, point in enumerate(points):
                counts = [Counter() for _ in clause_names]
                errors = 0
                for seed in seeds:
                    try:
                        trace = run(checked, dict(zip(names, point)), seed, policy)
                    except ExecError as exc:
                        print(f"{args.model}: runtime error: {exc}", file=sys.stderr)
                        faulted = True
                        errors += 1
                        results.writerow([index, *point, seed, "runtime-error",
                                          *[""] * len(clause_names), ""])
                        continue
                    rel = f"traces/point{index:04d}_seed{seed:04d}.jsonl"
                    (out_dir / rel).write_text(trace.to_jsonl(), encoding="utf-8")
                    statuses = ([c.status for c in monitors.check_trace(trace, spec).clauses]
                                if spec else [])
                    for count, status in zip(counts, statuses):
                        count[status] += 1
                    results.writerow([index, *point, seed, trace.end_reason, *statuses, rel])
                summary.writerow([index, *point, len(seeds), errors, *[
                    f"{c['pass']}/{c['fail']}/{c['inconclusive']}" for c in counts]])
    except OSError as exc:
        print(f"cannot write sweep output: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {total} run(s) under {out_dir}", file=sys.stderr)
    return EXIT_MODEL_ERROR if faulted else EXIT_OK


def cmd_emit(args) -> int:
    checked = _load_checked(args.model)
    try:
        program = erlgen.emit(checked)
    except erlgen.UnsupportedFeatureError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_UNSUPPORTED
    try:
        written = program.write_to(args.out)
    except OSError as exc:
        print(f"cannot write emitted sources: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring


def _int_flag(text: str) -> int:
    """``parse_int`` with argparse's error text for an int flag."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _add_env_opts(p) -> None:
    p.add_argument("--env", action="append", metavar="NAME=VALUE",
                   help="bind an env variable (repeatable)")
    p.add_argument("--env-file", metavar="FILE",
                   help="file of NAME=VALUE lines binding env variables")


def build_parser() -> _Parser:
    parser = _Parser(prog="trebeca", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a model")
    p.add_argument("model")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="seeded simulation of a model")
    p.add_argument("model")
    _add_env_opts(p)
    p.add_argument("--seed", type=_int_flag, default=0)
    p.add_argument("--horizon", type=_int_flag)
    p.add_argument("--max-steps", type=_int_flag)
    p.add_argument("--deadline-check", choices=DEADLINE_CHECKS,
                   default=CHECK_LITERAL)
    p.add_argument("--monitor", metavar="FILE")
    p.add_argument("--trace", metavar="FILE", help="write the JSONL trace here")
    p.add_argument("--json", action="store_true", help="print verdicts as JSON")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("explore", help="bounded exhaustive exploration")
    p.add_argument("model")
    _add_env_opts(p)
    p.add_argument("--horizon", type=_int_flag)
    p.add_argument("--max-steps", type=_int_flag)
    p.add_argument("--max-states", type=_int_flag)
    p.add_argument("--deadline-check", choices=DEADLINE_CHECKS,
                   default=CHECK_LITERAL)
    p.add_argument("--monitor", metavar="FILE")
    p.add_argument("--graph", metavar="FILE", help="write the graph as JSON")
    p.add_argument("--dot", metavar="FILE", help="write the graph as DOT")
    p.add_argument("--json", action="store_true", help="print verdicts as JSON")
    p.add_argument("--exit-on", choices=["forall", "exists"], default="forall",
                   help="which verdict drives the exit code")
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("sweep", help="run a grid of env points and seeds")
    p.add_argument("model")
    p.add_argument("sweep", help="sweep spec file: 'name: [v1, v2]' lines")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--monitor", metavar="FILE")
    p.add_argument("--horizon", type=_int_flag)
    p.add_argument("--max-steps", type=_int_flag)
    p.add_argument("--cap", type=_int_flag, default=1000,
                   help="refuse sweeps larger than this without --force")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("emit", help="translate a model to Erlang sources")
    p.add_argument("model")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(fn=cmd_emit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _Usage as exc:
        print(f"trebeca: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Failed as exc:
        return exc.code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
