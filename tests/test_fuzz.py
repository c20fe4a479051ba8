"""Fuzzing the two input parsers, spec text and JSON reports, and the
symmetry detector; and the spec parser's per-line equivalence on every
generated family.

Whatever the input, ``parse_spec`` may only fail with ``SpecParseError``
and ``parse_report`` only with ``ReportError``; the command line turns
both into exit 3. The runs are derandomized so that every test run
checks the same inputs.
"""

import dataclasses
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    only_rule_line,
    parse_outcome,
    rename_fact,
    renaming_preserves,
    rule_line_numbers,
    SMALL_TM,
    swaps_preserving,
    symmetry_off,
)

from tmsr import Configuration, TimestampedFact, TmsrError, make_system
from tmsr.delta import symmetric_classes
from tmsr.reports import ReportError, VerdictReport, emit_report, parse_report
from tmsr.search import bounded_survivability, realizability, survivability
from tmsr.scenarios import Cnf3, DroneParams, gen_3sat, gen_drone, gen_tm
from tmsr.specfile import HEADER, SpecParseError, SpecParser, parse_spec, print_spec

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
)

DRONE_SPEC = print_spec(gen_drone(DroneParams(recency=2)))


# Characters the spec syntax gives a meaning, a few it does not, and
# non-ASCII letters and digits.
SPEC_CHARS = st.sampled_from(list('\n\t "#@(),:|+-><={}_ATPDXdpsz0129é٣²~$'))

# Any code point at all. Drawn as integers, since hypothesis's own text
# strategies first build a Unicode table that takes seconds.
ANY_CHAR = st.integers(0, 0x10FFFF).map(chr)


def _parse_spec_or_diagnose(text: str) -> None:
    try:
        parse_spec(text)
    except SpecParseError:
        pass


@FUZZ
@given(st.lists(ANY_CHAR | SPEC_CHARS, max_size=200).map("".join))
def test_parse_spec_on_arbitrary_text(text):
    _parse_spec_or_diagnose(text)
    _parse_spec_or_diagnose(f"{HEADER}\n{text}")


@FUZZ
@given(st.text(SPEC_CHARS, max_size=200))
def test_parse_spec_on_spec_characters(text):
    _parse_spec_or_diagnose(f"{HEADER}\npred P : Nat\n{text}")


@FUZZ
@given(
    st.integers(0, len(DRONE_SPEC) - 1),
    st.sampled_from(["delete", "replace", "insert"]),
    SPEC_CHARS,
)
def test_parse_spec_on_mutated_drone_spec(pos, op, ch):
    _parse_spec_or_diagnose(_mutate_char(DRONE_SPEC, pos, op, ch))


def _mutate_char(text: str, pos: int, op: str, ch: str) -> str:
    if op == "delete":
        return text[:pos] + text[pos + 1 :]
    if op == "replace":
        return text[:pos] + ch + text[pos + 1 :]
    return text[:pos] + ch + text[pos:]


# A greedy one-drone spec: its rule lines differ in a few constants, so most
# late lines repeat the left side, right side and guard of earlier lines.
GREEDY_SPEC = print_spec(gen_drone(DroneParams(recency=3)))
GREEDY_RULE_LINES = rule_line_numbers(GREEDY_SPEC)

# A free one-drone spec: no two of its rule lines share both sides, and most
# late lines hold one side, or both, of earlier lines.
FREE_LINE_SPEC = print_spec(gen_drone(DroneParams(strategy="free", recency=3)))
FREE_RULE_LINES = rule_line_numbers(FREE_LINE_SPEC)


def _rules_by_line(text, lines):
    return {j: parse_outcome(only_rule_line(text, j)) for j in lines}


@pytest.fixture(scope="module")
def greedy_rules_by_line():
    return _rules_by_line(GREEDY_SPEC, GREEDY_RULE_LINES)


@pytest.fixture(scope="module")
def free_rules_by_line():
    return _rules_by_line(FREE_LINE_SPEC, FREE_RULE_LINES)


@FUZZ
@given(
    data=st.data(),
    j=st.sampled_from(GREEDY_RULE_LINES[len(GREEDY_RULE_LINES) // 2 :]),
    op=st.sampled_from(["delete", "replace", "insert"]),
    ch=SPEC_CHARS,
)
def test_mutated_rule_line_parses_as_if_alone(greedy_rules_by_line, data, j, op, ch):
    _check_mutated_line(GREEDY_SPEC, greedy_rules_by_line, data, j, op, ch)


@FUZZ
@given(
    data=st.data(),
    j=st.sampled_from(FREE_RULE_LINES[len(FREE_RULE_LINES) // 2 :]),
    op=st.sampled_from(["delete", "replace", "insert"]),
    ch=SPEC_CHARS,
)
def test_mutated_free_rule_line_parses_as_if_alone(free_rules_by_line, data, j, op, ch):
    _check_mutated_line(FREE_LINE_SPEC, free_rules_by_line, data, j, op, ch)


def _check_mutated_line(text, rules_by_line, data, j, op, ch):
    # The whole spec gives the rules of every other line and what the
    # mutated line gives alone, or that line's diagnostic.
    lines = text.split("\n")
    line = _mutate_char(lines[j], data.draw(st.integers(0, len(lines[j]) - 1)), op, ch)
    whole = parse_outcome("\n".join(lines[:j] + [line] + lines[j + 1 :]))
    alone = parse_outcome(only_rule_line(text, j, line))
    if isinstance(alone, tuple):
        assert whole == alone
    else:
        before = [r for i in sorted(rules_by_line) if i < j for r in rules_by_line[i]]
        after = [r for i in sorted(rules_by_line) if i > j for r in rules_by_line[i]]
        assert whole == before + alone + after


def _sat_sample():
    rng = random.Random(14)
    out = []
    for _ in range(8):
        variables = rng.randint(1, 3)
        clauses = tuple(
            tuple(rng.choice((-1, 1)) * rng.randint(1, variables) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        )
        out.append(gen_3sat(Cnf3(variables, clauses)))
    return out


GENERATED_FAMILIES = {
    **{
        f"{strategy}-d{drones}": lambda s=strategy, d=drones: [
            gen_drone(DroneParams(drones=d, strategy=s))
        ]
        for strategy in ("free", "greedy")
        for drones in (1, 2, 3)
    },
    "sat-sample": _sat_sample,
    "tm": lambda: [gen_tm(SMALL_TM)],
}


@pytest.mark.parametrize("family", sorted(GENERATED_FAMILIES))
def test_whole_spec_gives_each_line_its_rules_alone(family):
    # Every rule line, parsed alone (the other rule lines blanked), gives
    # exactly its slice of the whole spec's rules: fields and order.
    for spec in GENERATED_FAMILIES[family]():
        text = print_spec(spec)
        rules = parse_spec(text).system.rules
        assert rules == spec.system.rules
        i = 0
        for j in rule_line_numbers(text):
            alone = parse_spec(only_rule_line(text, j)).system.rules
            got = rules[i : i + len(alone)]
            assert alone and got == alone
            assert [(repr(r), r.past_bounds, r.patterns) for r in got] == [
                (repr(r), r.past_bounds, r.patterns) for r in alone
            ]
            i += len(alone)
        assert i == len(rules)


@pytest.fixture(scope="module")
def drone_reports():
    """Real reports to mutate, each with its spec: a bounded counterexample
    trace (recency 2) and a realizability lasso (recency 6)."""
    out = []
    for recency, decide, ticks in [(2, bounded_survivability, 8), (6, realizability, None)]:
        spec = gen_drone(DroneParams(recency=recency))
        args = (spec.system, spec.init, spec.critical) + (() if ticks is None else (ticks,))
        verdict = decide(*args)
        out.append((spec, emit_report(VerdictReport(verdict, ticks=ticks))))
    return out


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "Time", "tick", "Dr(d1,1,1,4)", "P(p1,0,1)", "X", "Nat", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(SPEC_CHARS, max_size=5), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every place in a JSON document, as a key path from the root."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


def _mutate(doc, path, value, delete):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@FUZZ
@given(data=st.data())
def test_parse_report_on_mutated_reports(drone_reports, data):
    spec, text = data.draw(st.sampled_from(drone_reports))
    doc = json.loads(text)
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths))
    mutated = _mutate(doc, path, data.draw(JSON_VALUES), data.draw(st.booleans()))
    try:
        parse_report(json.dumps(mutated), spec)
    except ReportError:
        pass


@FUZZ
@given(data=st.data())
def test_parse_report_on_mutated_report_text(drone_reports, data):
    spec, text = data.draw(st.sampled_from(drone_reports))
    pos = data.draw(st.integers(0, len(text) - 1))
    ch = data.draw(st.sampled_from(list('{}[]",:0123456789 tnfx-.eE\\')))
    try:
        parse_report(text[:pos] + ch + text[pos + 1 :], spec)
    except ReportError:
        pass


def _entry_by_entry(spec, arr):
    """A configuration read as a reader that keeps nothing between
    entries reads it: each entry checked and parsed, then the facts put
    in canonical order."""
    parser = SpecParser.for_signature(spec)
    facts = []
    for entry in arr:
        if type(entry) is not dict or type(entry.get("ts")) is not int:
            raise ReportError("malformed entry")
        text = entry.get("fact")
        if type(text) is not str:
            raise ReportError("malformed entry")
        facts.append(TimestampedFact(parser.fact_text(text), entry["ts"]))
    return Configuration(tuple(facts))


CONFIG_EDITS = st.sampled_from(["shuffle", "reverse", "duplicate", "drop", "move", "stamp"])


@FUZZ
@given(data=st.data())
def test_configurations_read_as_entry_by_entry(drone_reports, data):
    # Entries are reordered, repeated, dropped, moved between
    # configurations or restamped with any JSON value: the report reads as
    # its configurations do entry by entry, or is a ReportError when one
    # of them does not read.
    spec, text = data.draw(st.sampled_from(drone_reports))
    doc = json.loads(text)
    steps = doc.get("trace") or doc["lasso"]["stem"] + doc["lasso"]["cycle"]
    configs = [doc["init"]] + [step["config"] for step in steps]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(data.draw(st.integers(1, 4))):
        config = rng.choice(configs)
        edit = data.draw(CONFIG_EDITS)
        j = rng.randrange(len(config)) if config else 0
        if edit == "shuffle":
            rng.shuffle(config)
        elif edit == "reverse":
            config.reverse()
        elif edit == "duplicate" and config:
            config.insert(rng.randrange(len(config) + 1), dict(config[j]))
        elif edit == "drop" and config:
            del config[j]
        elif edit == "move" and config:
            rng.choice(configs).append(config.pop(j))
        elif edit == "stamp" and config:
            config[j] = {**config[j], "ts": data.draw(JSON_VALUES)}
    try:
        expected = [_entry_by_entry(spec, config) for config in configs]
    except TmsrError:
        expected = None
    try:
        parsed = parse_report(json.dumps(doc), spec)
    except ReportError:
        assert expected is None
        return
    assert expected is not None
    trace = parsed.trace
    if trace is None:
        trace = parsed.lasso.stem
        got = [trace.init] + [s.config for s in trace.steps + parsed.lasso.cycle.steps]
    else:
        got = [trace.init] + [s.config for s in trace.steps]
    assert got == expected
    assert [c.facts for c in got] == [c.facts for c in expected]


# A two-drone free spec on a 2x2 grid: 80 rules, small enough to search
# in every example. Realizability holds and survivability fails.
FREE_SPEC = gen_drone(
    DroneParams(drones=2, strategy="free", x_max=1, y_max=1, energy_cap=4, recency=4)
)
SWAP = {"d1": "d2", "d2": "d1"}


def _mutate_fact(fact, op, value):
    """The fact with its first drone constant swapped ("drone") or its
    last numeral set to ``value`` ("numeral"); other facts stay."""
    args = list(fact.args)
    if op == "drone":
        return rename_fact(fact, SWAP)
    numerals = [i for i, a in enumerate(args) if isinstance(a, int)]
    if numerals:
        args[numerals[-1]] = value
    return dataclasses.replace(fact, args=tuple(args))


def _mutate_rule(rule, op, target, value):
    if op == "rename":
        return dataclasses.replace(rule, name=rule.name + "-x")
    if op == "offset":
        created = list(rule.created)
        k = target % len(created)
        created[k] = dataclasses.replace(created[k], offset=1 + value % 2)
        return _replace_sides(rule, created=tuple(created))
    parts = [("preserved", p) for p in range(len(rule.preserved))]
    parts += [("consumed", p) for p in range(len(rule.consumed))]
    parts += [("created", p) for p in range(len(rule.created))]
    field, k = parts[target % len(parts)]
    items = list(getattr(rule, field))
    items[k] = dataclasses.replace(items[k], fact=_mutate_fact(items[k].fact, op, value))
    return _replace_sides(rule, **{field: tuple(items)})


def _replace_sides(rule, **changes):
    return dataclasses.replace(rule, sides=dataclasses.replace(rule.sides, **changes))


def _mirror(rules, j):
    """The position of the rule that is rule j with the drones swapped."""
    image = rename_rule(rules[j])
    return next(
        i for i, r in enumerate(rules) if dataclasses.replace(r, name=image.name) == image
    )


def rename_rule(rule):
    """The rule with the drones swapped in every fact."""
    return _replace_sides(
        rule,
        preserved=tuple(dataclasses.replace(p, fact=rename_fact(p.fact, SWAP)) for p in rule.preserved),
        consumed=tuple(dataclasses.replace(p, fact=rename_fact(p.fact, SWAP)) for p in rule.consumed),
        created=tuple(dataclasses.replace(cf, fact=rename_fact(cf.fact, SWAP)) for cf in rule.created),
    )


@FUZZ
@given(
    j=st.integers(0, len(FREE_SPEC.system.rules) - 1),
    op=st.sampled_from(["rename", "offset", "numeral", "drone"]),
    target=st.integers(0, 5),
    value=st.integers(0, 2),
    mirrored=st.booleans(),
)
def test_symmetry_detector_on_mutated_free_drone_rules(j, op, target, value, mirrored):
    # Mutate one rule, and with ``mirrored`` its drone-swapped twin the
    # same way, which keeps the drones interchangeable.
    rules = list(FREE_SPEC.system.rules)
    if mirrored:
        twin = _mirror(rules, j)
        rules[twin] = rename_rule(_mutate_rule(rename_rule(rules[twin]), op, target, value))
    rules[j] = _mutate_rule(rules[j], op, target, value)
    sysm = make_system(FREE_SPEC.system.signature, rules, FREE_SPEC.system.max_fact_size)
    cs = FREE_SPEC.critical
    classes = symmetric_classes(sysm, cs)
    swaps = swaps_preserving(sysm, cs)
    assert classes in ((), (("d1", "d2"),))
    assert bool(classes) == (frozenset(("d1", "d2")) in swaps)
    for members in classes:
        for a, b in itertools.combinations(members, 2):
            assert renaming_preserves(sysm, cs, {a: b, b: a})
    if mirrored or op == "rename":
        assert classes

    init = FREE_SPEC.init
    for decide in (realizability, survivability):
        reduced = decide(sysm, init, cs)
        with symmetry_off():
            full = decide(sysm, init, cs)
        assert reduced.outcome == full.outcome
        assert reduced.stats.states <= full.stats.states
        if full.counterexample is not None:
            assert len(reduced.counterexample.steps) == len(full.counterexample.steps)

