"""Command line interface.

Subcommands: ``check`` (parse and classify), ``verify`` (decide a
property, optionally tick-bounded), ``gen`` (write a scenario spec file)
and ``replay`` (re-validate a report's trace against its spec).

Exit codes: 0 the property holds (or the input is valid), 1 it fails,
2 undecided within the search budget (or, for ``replay``, a report with
nothing to certify), 3 input error, usage errors included.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys

from .delta import count_bound, symmetric_classes
from .reports import (
    TOOL_VERSION,
    ReportError,
    VerdictReport,
    emit_report,
    input_digest,
    parse_report,
)
from .rules import check_balanced, check_progressive, compute_dmax
from .scenarios import Cnf3, DroneParams, TmSpec, gen_3sat, gen_drone, gen_tm
from .search import (
    BOUNDED_REALIZABILITY,
    BOUNDED_SURVIVABILITY,
    FAILS,
    HOLDS,
    REALIZABILITY,
    SURVIVABILITY,
    SearchBudget,
    UNKNOWN,
    VerifierInputError,
    bounded_realizability,
    bounded_survivability,
    realizability,
    survivability,
    validate_lasso,
    validate_trace,
)
from .specfile import SpecFile, SpecParseError, parse_spec, print_spec
from .terms import TmsrError

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3

OUTCOME_EXIT = {HOLDS: EXIT_HOLDS, FAILS: EXIT_FAILS, UNKNOWN: EXIT_UNKNOWN}


def _read(path: str) -> str:
    """The file's text as stored: no newline translation, so a spec file
    reads exactly as ``parse_spec`` and the input digest see it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TmsrError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise TmsrError(f"cannot write {path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Raise the error ``_write`` would raise for a path it cannot create
    or overwrite, without creating or truncating it."""
    parent = os.path.dirname(path) or "."
    try:
        parent_is_dir = stat.S_ISDIR(os.stat(parent).st_mode)
    except OSError as exc:
        # What open meets on the way: ENOENT for a missing component,
        # ENOTDIR for one that is not a directory.
        code = exc.errno
    else:
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not parent_is_dir:
            code = errno.ENOTDIR
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            return
    exc = OSError(code, os.strerror(code), path)
    raise TmsrError(f"cannot write {path}: {exc}")


def _load_spec(path: str) -> tuple[SpecFile, str]:
    text = _read(path)
    return parse_spec(text), text


def _int(option: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise TmsrError(f"{option}: {text!r} is not an integer") from None


def _cmd_check(args) -> int:
    spec, _ = _load_spec(args.spec)
    sys_ = spec.system
    unbalanced = check_balanced(sys_)
    print(f"rules: {len(sys_.rules)}")
    print(f"balanced: {'no: ' + ', '.join(unbalanced) if unbalanced else 'yes'}")
    progressive_ok = False
    if not unbalanced:
        offenders = check_progressive(sys_)
        progressive_ok = not offenders
        print(f"progressive: {'no: ' + ', '.join(offenders) if offenders else 'yes'}")
    else:
        print("progressive: not checked (unbalanced)")
    dmax = compute_dmax(sys_, spec.init, spec.critical)
    print(f"dmax: {dmax}")
    print(f"fact size bound k: {sys_.max_fact_size}")
    classes = symmetric_classes(sys_, spec.critical)
    print(
        "symmetric constants: "
        + ("; ".join(" ".join(members) for members in classes) or "none")
    )
    print(
        f"alphabet: {sys_.signature.predicate_count} predicates, "
        f"{sys_.signature.symbol_count} constant/function symbols"
    )
    print(
        "delta configurations at most: "
        + str(
            count_bound(
                len(spec.init),
                sys_.max_fact_size,
                dmax,
                sys_.signature.predicate_count,
                sys_.signature.symbol_count,
            )
        )
    )
    return EXIT_HOLDS if progressive_ok else EXIT_FAILS


def _cmd_verify(args) -> int:
    spec, text = _load_spec(args.spec)
    budget = SearchBudget(max_states=args.max_states, max_seconds=args.timeout)
    ticks = None
    if args.ticks is not None:
        if args.ticks == "default":
            if spec.ticks is None:
                raise TmsrError("spec declares no default tick budget")
            ticks = spec.ticks
        else:
            ticks = _int("--ticks", args.ticks)
    if args.out:
        _check_writable(args.out)

    if args.mode == REALIZABILITY:
        if ticks is None:
            verdict = realizability(spec.system, spec.init, spec.critical, budget)
        else:
            verdict = bounded_realizability(
                spec.system, spec.init, spec.critical, ticks, budget
            )
    else:
        if ticks is None:
            verdict = survivability(spec.system, spec.init, spec.critical, budget)
        else:
            verdict = bounded_survivability(
                spec.system, spec.init, spec.critical, ticks, budget
            )

    report = VerdictReport(verdict, ticks=ticks, digest=input_digest(text))
    payload = emit_report(report)
    if args.out:
        _write(args.out, payload)
        print(f"{verdict.mode}: {verdict.outcome} (report written to {args.out})")
    else:
        sys.stdout.write(payload)
    return OUTCOME_EXIT[verdict.outcome]


def _fields(option: str, text: str, width: int | None) -> list[list[str]]:
    """The nonblank ';'-separated chunks of text, each split at ',' into
    ``width`` fields (any number if None)."""
    out = []
    for chunk in text.split(";"):
        if chunk.strip():
            fields = chunk.split(",")
            if width is not None and len(fields) != width:
                raise TmsrError(f"{option}: {chunk.strip()!r} needs {width} fields")
            out.append(fields)
    return out


def _pairs(option: str, text: str) -> tuple[tuple[int, int], ...]:
    return tuple((_int(option, x), _int(option, y)) for x, y in _fields(option, text, 2))


def _load_machine(path: str) -> TmSpec:
    try:
        m = json.loads(_read(path))
    except ValueError as exc:
        raise TmsrError(f"{path}: not JSON: {exc}") from None
    if not isinstance(m, dict):
        raise TmsrError(f"{path}: a machine description is a JSON object")
    try:
        word = m.get("input", [])
        if isinstance(word, str):
            word = list(word)
        instructions = {}
        for q, sym, q2, sym2, move in m["instructions"]:
            if (q, sym) in instructions:
                raise TmsrError(
                    f"{path}: two instructions for state {q!r} reading {sym!r}"
                )
            instructions[q, sym] = (q2, sym2, move)
        return TmSpec(
            states=tuple(m["states"]),
            final_states=frozenset(m.get("final", [])),
            alphabet=tuple(m["alphabet"]),
            instructions=instructions,
            space=int(m["space"]),
            input_word=tuple(word),
            start_state=m.get("start"),
            head=int(m.get("head", 1)),
        )
    except KeyError as exc:
        raise TmsrError(f"{path}: machine description lacks {exc}") from None
    except (LookupError, TypeError, ValueError) as exc:
        raise TmsrError(f"{path}: malformed machine description: {exc}") from None


def _cmd_gen(args) -> int:
    if args.kind == "drone":
        grid = args.grid.split("x")
        if len(grid) != 2:
            raise TmsrError(f"--grid: {args.grid!r} is not of the form XxY")
        base = _pairs("--base", args.base)
        if len(base) != 1:
            raise TmsrError(f"--base: {args.base!r} is not one cell x,y")
        spec = gen_drone(
            DroneParams(
                drones=args.drones,
                points=_pairs("--points", args.points),
                x_max=_int("--grid", grid[0]),
                y_max=_int("--grid", grid[1]),
                base=base[0],
                recency=args.recency,
                energy_cap=args.energy,
                wind=tuple(
                    (_int("--wind", x), _int("--wind", y), d)
                    for x, y, d in _fields("--wind", args.wind, 3)
                ),
                strategy=args.strategy,
                single_slot_station=args.station,
                station_bound=args.station_bound,
            )
        )
    elif args.kind == "3sat":
        clauses = [
            tuple(_int("--clauses", v) for v in lits)
            for lits in _fields("--clauses", args.clauses, None)
        ]
        if not clauses:
            raise TmsrError("--clauses: no clause given")
        variables = args.vars or max(abs(l) for c in clauses for l in c)
        spec = gen_3sat(Cnf3(variables, tuple(clauses)))
    else:
        spec = gen_tm(_load_machine(args.machine))
    _write(args.out, print_spec(spec))
    print(f"wrote {args.out} ({len(spec.system.rules)} rules)")
    return EXIT_HOLDS


def _artifact_mismatch(parsed) -> str | None:
    """Why the report's artifact cannot certify its mode and outcome, if so."""
    bounded = parsed.mode in (BOUNDED_REALIZABILITY, BOUNDED_SURVIVABILITY)
    if parsed.outcome == HOLDS:
        if not bounded and parsed.lasso is None:
            return f"{parsed.mode} holds needs a lasso"
        if bounded and parsed.trace is None:
            return f"{parsed.mode} holds needs a trace"
    if parsed.outcome == FAILS and parsed.lasso is not None:
        return f"{parsed.mode} fails cannot carry a lasso"
    return None


def _cmd_replay(args) -> int:
    spec, text = _load_spec(args.spec)
    parsed = parse_report(_read(args.report), spec)
    if parsed.outcome == UNKNOWN:
        print("report is undecided: nothing to certify")
        return EXIT_UNKNOWN

    if parsed.digest and parsed.digest != input_digest(text):
        print("trace INVALID: the report's input digest is not that of the spec")
        return EXIT_FAILS
    if parsed.version is not None and parsed.version != TOOL_VERSION:
        print(
            f"trace INVALID: the report was written by version {parsed.version!r}, "
            f"not by this tool's {TOOL_VERSION!r}"
        )
        return EXIT_FAILS

    first = parsed.lasso.stem if parsed.lasso is not None else parsed.trace
    if first is None:
        print("report carries no trace to validate")
        return EXIT_UNKNOWN
    if first.init != spec.init:
        print("trace INVALID: the trace does not start at the spec's initial configuration")
        return EXIT_FAILS
    mismatch = _artifact_mismatch(parsed)
    if mismatch is not None:
        print(f"trace INVALID: {mismatch}")
        return EXIT_FAILS
    if parsed.lasso is not None:
        dmax = compute_dmax(spec.system, spec.init, spec.critical)
        result = validate_lasso(spec.system, spec.critical, parsed.lasso, dmax)
    else:
        result = validate_trace(
            spec.system,
            spec.critical,
            parsed.trace,
            expected_ticks=parsed.ticks,
            expect_critical_end=parsed.outcome == FAILS,
        )
    if result.ok:
        print("trace validates")
        return EXIT_HOLDS
    where = "" if result.failed_index is None else f" at step {result.failed_index}"
    print(f"trace INVALID{where}: {result.message}")
    return EXIT_FAILS


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 3, since 2 means undecided."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tmsr",
        description="Timed multiset rewriting verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and classify a spec file")
    p_check.add_argument("spec")
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="decide a property")
    p_verify.add_argument("spec")
    p_verify.add_argument(
        "--mode",
        choices=[REALIZABILITY, SURVIVABILITY],
        required=True,
    )
    p_verify.add_argument(
        "--ticks",
        nargs="?",
        const="default",
        default=None,
        help="tick budget for bounded checking; bare --ticks uses the spec default",
    )
    p_verify.add_argument("--max-states", type=int, default=1_000_000)
    p_verify.add_argument("--timeout", type=float, default=600.0)
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a scenario spec file")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)

    g_drone = gen_sub.add_parser("drone")
    g_drone.add_argument("--drones", type=int, default=1)
    g_drone.add_argument("--grid", default="2x2", help="x_max x y_max, e.g. 2x2")
    g_drone.add_argument("--points", default="0,1")
    g_drone.add_argument("--base", default="1,1")
    g_drone.add_argument("--recency", type=int, default=6)
    g_drone.add_argument("--energy", type=int, default=4)
    g_drone.add_argument("--wind", default="")
    g_drone.add_argument("--strategy", choices=["greedy", "free"], default="greedy")
    g_drone.add_argument("--station", action="store_true")
    g_drone.add_argument("--station-bound", type=int, default=None)
    g_drone.add_argument("--out", required=True)
    g_drone.set_defaults(func=_cmd_gen)

    g_sat = gen_sub.add_parser("3sat")
    g_sat.add_argument("--clauses", required=True, help='e.g. "1,-2,3;2,2,-1"')
    g_sat.add_argument("--vars", type=int, default=None)
    g_sat.add_argument("--out", required=True)
    g_sat.set_defaults(func=_cmd_gen)

    g_tm = gen_sub.add_parser("tm")
    g_tm.add_argument("--machine", required=True, help="machine description (JSON)")
    g_tm.add_argument("--out", required=True)
    g_tm.set_defaults(func=_cmd_gen)

    p_replay = sub.add_parser("replay", help="validate a report against its spec")
    p_replay.add_argument("spec")
    p_replay.add_argument("report")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


# The argument parser, built on the first call of ``main`` and reused by
# later calls in the same process: parsing arguments leaves it unchanged.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecParseError, ReportError, VerifierInputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TmsrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
