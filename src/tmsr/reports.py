"""JSON verdict reports: emission and re-ingestion for replay.

Schema (stable): mode, outcome, ticks (the tick budget, at least 1, in
bounded modes only), statistics (states,
peak_frontier, max_depth, optional depth_cap, elapsed_ms,
l_sigma_decimal, and in unbounded modes symmetry: the classes of
interchangeable constants the states were counted up to, as lists of
names), init (canonical config array), trace (step array,
present for bounded witnesses and for counterexamples), lasso (stem and
cycle step arrays, present for unbounded holds), optional critical_pair
and note, version and input digest. Configurations always serialize in
canonical order. All fields other than elapsed_ms are deterministic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .search import (
    BOUNDED_REALIZABILITY,
    BOUNDED_SURVIVABILITY,
    FAILS,
    HOLDS,
    Lasso,
    REALIZABILITY,
    SURVIVABILITY,
    Trace,
    TraceStep,
    UNKNOWN,
    Verdict,
)
from .specfile import SpecFile, SpecParser
from .terms import (
    TIME,
    Configuration,
    Fact,
    Substitution,
    TimestampedFact,
    TmsrError,
    Var,
    fact_text,
    term_text,
)

TOOL_VERSION = "0.1.0"


class ReportError(TmsrError):
    pass


def _config_json(c: Configuration) -> list[dict]:
    return [{"fact": fact_text(tf.fact), "ts": tf.ts} for tf in c.facts]


def _subst_json(s: Substitution | None) -> dict | None:
    if s is None:
        return None
    return {
        "times": {name: value for name, value in s.times},
        "terms": [
            {"var": v.name, "sort": v.sort, "term": term_text(t)}
            for v, t in s.terms
        ],
    }


def _steps_json(steps) -> list[dict]:
    return [
        {
            "label": st.label,
            "subst": _subst_json(st.subst),
            "config": _config_json(st.config),
        }
        for st in steps
    ]


def input_digest(spec_text: str) -> str:
    return hashlib.sha256(spec_text.encode()).hexdigest()


@dataclass(frozen=True)
class VerdictReport:
    verdict: Verdict
    ticks: int | None = None
    digest: str = ""


def report_json(report: VerdictReport) -> dict:
    v = report.verdict
    out: dict = {
        "mode": v.mode,
        "outcome": v.outcome,
    }
    if report.ticks is not None:
        out["ticks"] = report.ticks
    stats = {
        "states": v.stats.states,
        "peak_frontier": v.stats.peak_frontier,
        "max_depth": v.stats.max_depth,
        "elapsed_ms": round(v.stats.elapsed_ms, 3),
        "l_sigma_decimal": v.stats.l_sigma_decimal,
    }
    if v.stats.depth_cap is not None:
        stats["depth_cap"] = v.stats.depth_cap
    if v.stats.symmetry is not None:
        stats["symmetry"] = [list(members) for members in v.stats.symmetry]
    out["statistics"] = stats

    trace = None
    if v.outcome == HOLDS and isinstance(v.witness, Trace):
        trace = v.witness
    elif v.counterexample is not None:
        trace = v.counterexample
    if trace is not None:
        out["init"] = _config_json(trace.init)
        out["trace"] = _steps_json(trace.steps)
    if isinstance(v.witness, Lasso):
        out["init"] = _config_json(v.witness.stem.init)
        out["lasso"] = {
            "stem": _steps_json(v.witness.stem.steps),
            "cycle": _steps_json(v.witness.cycle.steps),
        }
    if v.critical_pair is not None:
        out["critical_pair"] = v.critical_pair
    if v.note:
        out["note"] = v.note
    out["version"] = TOOL_VERSION
    out["input_digest"] = report.digest
    return out


def emit_report(report: VerdictReport) -> str:
    """``report_json``'s document as ``json.dumps(..., indent=2)`` writes
    it, and a newline. With an indent, json formats in pure Python; the
    writer below gives the same bytes for the types a report holds in
    about half the time."""
    out: list[str] = []
    _write(report_json(report), "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append ``value`` in json's indented form; ``newline`` is the line
    break and indent its items follow."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    else:
        out.append(json.dumps(value))  # a float or a boolean


# ---------------------------------------------------------------------------
# Re-ingestion


@dataclass(frozen=True)
class ParsedReport:
    mode: str
    outcome: str
    ticks: int | None  # the tick budget of a bounded mode, None when unbounded
    trace: Trace | None
    lasso: Lasso | None
    digest: str  # the input digest; empty when the report has none
    version: str | None  # the tool version; None when the report has none


_JSON_TYPES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    type(None): "null",
}


def _require(value, kind, what: str):
    """``value`` if ``json.loads`` made it of type ``kind`` (no subclass, so
    a boolean is no integer)."""
    if type(value) is not kind:
        raise ReportError(f"{what} must be {_JSON_TYPES[kind]}, found {_JSON_TYPES[type(value)]}")
    return value


def _field(obj: dict, key: str, kind, what: str):
    if key not in obj:
        raise ReportError(f"{what} has no field {key!r}")
    return _require(obj[key], kind, f"field {key!r} of {what}")


class _ReportReader:
    """Reads the configurations and steps of one report against its spec.
    Each distinct fact text goes through the one parser, which checks that
    the fact is ground and well-sorted, and each distinct configuration
    entry, a (fact text, stamp) pair, is built once: an equal one met
    again reuses it (facts are immutable). Each configuration is
    then checked for its order and its one Time fact."""

    def __init__(self, spec: SpecFile):
        self.sig = spec.system.signature
        self.parser = SpecParser.for_signature(spec)
        self.facts: dict[str, Fact] = {}
        # (fact text, stamp) -> (timestamped fact, canonical key, is Time)
        self.entries: dict[tuple[str, int], tuple[TimestampedFact, tuple[int, str], bool]] = {}

    def entry(self, obj) -> tuple[TimestampedFact, tuple[int, str], bool]:
        """A configuration entry, checked, and built if it is new."""
        _require(obj, dict, "a configuration entry")
        text = _field(obj, "fact", str, "a configuration entry")
        ts = _field(obj, "ts", int, "a configuration entry")
        got = self.entries.get((text, ts))
        if got is None:
            fact = self.facts.get(text)
            if fact is None:
                fact = self.facts[text] = self.parser.fact_text(text)
            got = (TimestampedFact(fact, ts), (ts, fact_text(fact)), fact.pred == TIME)
            self.entries[text, ts] = got
        return got

    def config(self, arr: list) -> Configuration:
        entries = self.entries
        facts = []
        clocks = 0
        ordered = True
        last_key = last_fact = None
        for entry in arr:
            got = None
            # A stored entry is taken only for a text and an exact integer
            # stamp: True and 1.0 equal 1 as dict keys.
            if type(entry) is dict:
                text, ts = entry.get("fact"), entry.get("ts")
                if type(text) is str and type(ts) is int:
                    got = entries.get((text, ts))
            if got is None:
                got = self.entry(entry)
            tf, key, is_time = got
            if last_key is not None and (
                key < last_key or (key == last_key and tf.fact != last_fact)
            ):
                ordered = False
            last_key, last_fact = key, tf.fact
            clocks += is_time
            facts.append(tf)
        if ordered and clocks == 1:
            # Facts in canonical order, each ground, one of them Time: what
            # the constructor would build from them, without its sort.
            return Configuration._canonical(tuple(facts))
        return Configuration(tuple(facts))  # orders the facts, or raises

    def subst(self, obj) -> Substitution | None:
        if obj is None:
            return None
        _require(obj, dict, "a substitution")
        times = {}
        for name, value in _require(obj.get("times", {}), dict, "substitution times").items():
            times[name] = _require(value, int, f"the time of {name!r}")
        terms = {}
        for entry in _require(obj.get("terms", []), list, "substitution terms"):
            _require(entry, dict, "a substitution term")
            sort = _field(entry, "sort", str, "a substitution term")
            if sort not in self.sig.sorts:
                raise ReportError(f"undeclared sort {sort!r}")
            var = Var(_field(entry, "var", str, "a substitution term"), sort)
            text = _field(entry, "term", str, "a substitution term")
            # The parser takes only a ground term of the variable's sort.
            terms[var] = self.parser.term_text(text, sort)
        return Substitution.of(times, terms)

    def steps(self, arr: list) -> tuple[TraceStep, ...]:
        steps = []
        for entry in arr:
            _require(entry, dict, "a step")
            steps.append(
                TraceStep(
                    _field(entry, "label", str, "a step"),
                    self.subst(entry.get("subst")),
                    self.config(_field(entry, "config", list, "a step")),
                )
            )
        return tuple(steps)


_MODES = (REALIZABILITY, SURVIVABILITY, BOUNDED_REALIZABILITY, BOUNDED_SURVIVABILITY)
_OUTCOMES = (HOLDS, FAILS, UNKNOWN)


def parse_report(text: str, spec: SpecFile) -> ParsedReport:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportError(f"not valid JSON: {exc}") from None
    _require(obj, dict, "a report")
    mode = _field(obj, "mode", str, "the report")
    if mode not in _MODES:
        raise ReportError(f"unknown mode {mode!r}")
    outcome = _field(obj, "outcome", str, "the report")
    if outcome not in _OUTCOMES:
        raise ReportError(f"unknown outcome {outcome!r}")
    ticks = None
    if mode in (BOUNDED_REALIZABILITY, BOUNDED_SURVIVABILITY):
        ticks = _field(obj, "ticks", int, f"the {mode} report")
        if ticks < 1:
            raise ReportError(f"tick budget {ticks} is below 1")
    elif "ticks" in obj:
        raise ReportError(f"the {mode} report has a tick budget")
    digest = _require(obj.get("input_digest", ""), str, "field 'input_digest' of the report")
    version = obj.get("version")
    if version is not None:
        _require(version, str, "field 'version' of the report")
    trace = None
    lasso = None
    reader = _ReportReader(spec)
    try:
        if "lasso" in obj:
            init = reader.config(_field(obj, "init", list, "the report"))
            arms = _field(obj, "lasso", dict, "the report")
            stem = Trace(init, reader.steps(_field(arms, "stem", list, "the lasso")))
            cycle = Trace(stem.final, reader.steps(_field(arms, "cycle", list, "the lasso")))
            lasso = Lasso(stem, cycle)
        elif "trace" in obj:
            init = reader.config(_field(obj, "init", list, "the report"))
            trace = Trace(init, reader.steps(_field(obj, "trace", list, "the report")))
    except TmsrError as exc:
        raise ReportError(f"malformed trace: {exc}") from None
    return ParsedReport(mode, outcome, ticks, trace, lasso, digest, version)
