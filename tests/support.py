"""Shared test helpers: brute-force oracles and random system generation.

Everything here is deliberately independent of the package's search code:
the concrete-state oracle normalizes timestamps by hand and detects
cycles with networkx, the matcher enumerates candidate substitutions
exhaustively, the reference scan runs every rule through a plain
backtracking matcher, the reference rewrite is multiset arithmetic on
the fact list, and satisfiability / machine termination are
decided by direct enumeration and simulation. The bounded oracle is the
graph of concrete configurations that the reference scan and rewrite
reach, with distances taken by networkx. A rule line's reference
parse is the spec with every other rule line blanked. A renaming of
constants is checked against the rules and critical pairs by renaming
every term and comparing the multisets.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import networkx as nx

import tmsr.search
from tmsr import (
    App,
    Configuration,
    Const,
    CreatedFact,
    CriticalSpec,
    Fact,
    RulePattern,
    Substitution,
    System,
    TimeConstraint,
    TimestampedFact,
    UnboundVariableError,
    Var,
    apply_rule,
    apply_subst,
    enabled,
    expand_critical_pair,
    expand_rule,
    is_critical,
    make_signature,
    make_system,
    tick,
)
from tmsr.rules import GREATER
from tmsr.scenarios import TmSpec
from tmsr.specfile import SpecParseError, parse_spec
from tmsr.terms import NAT, TIME, fact_vars, term_text


# ---------------------------------------------------------------------------
# Exhaustive matcher


def guard_holds(guard, tmap) -> bool:
    """Arithmetic truth of the atoms ``L > R + N`` / ``L = R + N`` under tmap."""
    for c in guard:
        left, right = tmap[c.left], tmap[c.right] + c.offset
        if not (left > right if c.rel == GREATER else left == right):
            return False
    return True


def ground_subterms(t):
    if isinstance(t, int):
        return {k for k in range(t + 1)}
    if hasattr(t, "args"):  # App
        out = {t}
        for a in t.args:
            out |= ground_subterms(a)
        return out
    return {t}


def brute_force_matches(rule, config: Configuration) -> set[Substitution]:
    """All substitutions over the configuration's stamps and ground
    subterms satisfying the rule, found by plain enumeration."""
    tvars = sorted({p.tvar for p in rule.patterns} | {rule.time_var})
    vvars = sorted(
        {v for p in rule.patterns for v in fact_vars(p.fact)},
        key=lambda v: (v.name, v.sort),
    )
    stamps = sorted({tf.ts for tf in config.facts})
    terms = set()
    for tf in config.facts:
        for a in tf.fact.args:
            terms |= ground_subterms(a)
    terms = sorted(terms, key=term_text)
    present = Counter(config.facts)

    out = set()
    for tvals in itertools.product(stamps, repeat=len(tvars)):
        tmap = dict(zip(tvars, tvals))
        if tmap[rule.time_var] != config.time:
            continue
        if any(tmap[tv] > config.time for tv in rule.past_bounds):
            continue
        if not guard_holds(rule.guard, tmap):
            continue
        for vvals in itertools.product(terms, repeat=len(vvars)):
            vmap = dict(zip(vvars, vvals))
            try:
                needed = [
                    TimestampedFact(apply_subst(p.fact, vmap), tmap[p.tvar])
                    for p in rule.patterns
                ]
            except UnboundVariableError:
                continue
            if not Counter(needed) - present:  # multiset inclusion
                out.add(
                    Substitution.of(
                        {tv: tmap[tv] for tv in tvars}, vmap
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Reference scan: every rule and critical pair, in declaration order,
# through a backtracking matcher that tries every element for every
# pattern and copies the bindings at each try. The package compiles its
# matching; it must return exactly these lists, in this order.


def _ref_match_term(pat, ground, binding) -> bool:
    if isinstance(pat, Var):
        seen = binding.get(pat)
        if seen is None:
            binding[pat] = ground
            return True
        return seen == ground
    if isinstance(pat, int):
        return pat == ground
    if isinstance(pat, App):
        if pat.fn == "s" and len(pat.args) == 1 and isinstance(ground, int):
            if ground >= 1:
                return _ref_match_term(pat.args[0], ground - 1, binding)
            return False
        if isinstance(ground, App) and ground.fn == pat.fn and len(ground.args) == len(pat.args):
            return all(
                _ref_match_term(p, g, binding) for p, g in zip(pat.args, ground.args)
            )
        return False
    return pat == ground  # Const


def _ref_match_fact(pat, ground, binding) -> bool:
    if pat.pred != ground.pred or len(pat.args) != len(ground.args):
        return False
    return all(_ref_match_term(p, g, binding) for p, g in zip(pat.args, ground.args))


def reference_matches(patterns, elements, tbind, past_tvars, clock, guard, first_only):
    out = []
    seen = set()
    used = [False] * len(elements)
    vbind = {}

    def walk(i):
        if i == len(patterns):
            if guard_holds(guard, tbind):
                s = Substitution.of(tbind, vbind)
                if s not in seen:
                    seen.add(s)
                    out.append(s)
                    if first_only:
                        return True
            return False
        pat = patterns[i]
        for j, el in enumerate(elements):
            if used[j] or el.fact.pred != pat.fact.pred:
                continue
            if pat.tvar in past_tvars and clock is not None and el.ts > clock:
                continue
            prev_t = tbind.get(pat.tvar)
            if prev_t is not None and prev_t != el.ts:
                continue
            saved_v = dict(vbind)
            if not _ref_match_fact(pat.fact, el.fact, vbind):
                vbind.clear()
                vbind.update(saved_v)
                continue
            if prev_t is None:
                tbind[pat.tvar] = el.ts
            used[j] = True
            stop = walk(i + 1)
            used[j] = False
            if prev_t is None:
                del tbind[pat.tvar]
            vbind.clear()
            vbind.update(saved_v)
            if stop:
                return True
        return False

    walk(0)
    return out


def reference_match_rule(rule, config, first_only=False):
    return reference_matches(
        rule.patterns,
        config.facts,
        {rule.time_var: config.time},
        frozenset(rule.past_bounds),
        config.time,
        rule.guard,
        first_only,
    )


def reference_enabled(sys: System, config: Configuration):
    return [(r, s) for r in sys.rules for s in reference_match_rule(r, config)]


def reference_must_tick(sys: System, config: Configuration) -> bool:
    return not any(reference_match_rule(r, config, first_only=True) for r in sys.rules)


def reference_is_critical(cs: CriticalSpec, config: Configuration):
    for i, pair in enumerate(cs.pairs):
        got = reference_matches(
            pair.patterns, config.facts, {}, frozenset(), None, pair.guard, True
        )
        if got:
            return i, got[0]
    return None


def reference_rewrite(rule, config: Configuration, s: Substitution) -> Configuration:
    """The successor of config under a matched (rule, s): each consumed
    instance removed from the fact list, each created one appended, and the
    result sorted by the public constructor."""
    terms = dict(s.terms)
    times = dict(s.times)
    facts = list(config.facts)
    for p in rule.consumed:
        facts.remove(TimestampedFact(apply_subst(p.fact, terms), times[p.tvar]))
    for cf in rule.created:
        facts.append(TimestampedFact(apply_subst(cf.fact, terms), config.time + cf.offset))
    return Configuration(tuple(facts))


# ---------------------------------------------------------------------------
# Concrete-state oracle with hand-rolled timestamp normalization


def normalize(config: Configuration, dmax: int) -> Configuration:
    seq = config.facts
    out = [TimestampedFact(seq[0].fact, 0)]
    ts = 0
    prev = seq[0].ts
    for tf in seq[1:]:
        ts += min(tf.ts - prev, dmax + 1)
        out.append(TimestampedFact(tf.fact, ts))
        prev = tf.ts
    return Configuration(tuple(out))


def oracle_graph(sys: System, init: Configuration, cs: CriticalSpec, dmax: int):
    """Reachable normalized concrete states under lazy sampling. Critical
    states are kept as nodes but not expanded."""
    start = normalize(init, dmax)
    graph = nx.DiGraph()
    critical = {}
    stack = [start]
    graph.add_node(start)
    critical[start] = is_critical(cs, start) is not None
    while stack:
        node = stack.pop()
        if critical[node]:
            continue
        pairs = enabled(sys, node)
        if pairs:
            children = [
                normalize(apply_rule(r, node, s, sys.max_fact_size), dmax)
                for r, s in pairs
            ]
        else:
            children = [normalize(tick(node), dmax)]
        for child in children:
            if child not in graph:
                graph.add_node(child)
                critical[child] = is_critical(cs, child) is not None
                stack.append(child)
            graph.add_edge(node, child)
    return start, graph, critical


def oracle_verdicts(
    sys: System, init: Configuration, cs: CriticalSpec, dmax: int
) -> tuple[bool, bool]:
    """(realizable, survivable) by exhaustive quotient exploration."""
    start, graph, critical = oracle_graph(sys, init, cs, dmax)
    critical_reachable = any(critical.values())
    if critical[start]:
        return False, False
    compliant = graph.subgraph([n for n in graph if not critical[n]])
    realizable = False
    reachable = nx.descendants(compliant, start) | {start}
    for scc in nx.strongly_connected_components(compliant.subgraph(reachable)):
        node = next(iter(scc))
        if len(scc) > 1 or compliant.has_edge(node, node):
            realizable = True
            break
    return realizable, realizable and not critical_reachable


def bounded_graph(sys: System, init: Configuration, cs: CriticalSpec, n: int):
    """The concrete configurations reachable from ``init`` under lazy
    sampling, found with the reference scan and rewrite, as a graph with an
    edge per step. A configuration's clock fact counts its clock advances;
    critical nodes and nodes at the n-th advance are not expanded. Returns
    the graph, its critical nodes and its nodes at the n-th advance."""
    graph = nx.DiGraph()
    graph.add_node(init)
    critical, last = set(), set()
    stack = [init]
    while stack:
        node = stack.pop()
        if reference_is_critical(cs, node) is not None:
            critical.add(node)
            continue
        if node.time - init.time == n:
            last.add(node)
            continue
        pairs = reference_enabled(sys, node)
        for child in [reference_rewrite(r, node, s) for r, s in pairs] or [tick(node)]:
            if child not in graph:
                stack.append(child)
            graph.add_edge(node, child)
    return graph, critical, last


# ---------------------------------------------------------------------------
# Random progressive systems


def random_progressive_system(rng: random.Random):
    """A small progressive system, initial configuration and critical
    spec with all numeric offsets within 2."""
    n_preds = rng.randint(2, 4)
    preds = {f"P{i}": () for i in range(n_preds)}
    consts = {}
    if rng.random() < 0.3:
        preds["U"] = ("Obj",)
        consts = {"a": "Obj", "b": "Obj"}
    sig = make_signature(("Obj",) if consts else (), preds, {}, consts)
    pred_names = [p for p in preds]

    def random_pattern(tvar: str, allow_var: bool):
        name = rng.choice(pred_names)
        if name == "U":
            if allow_var and rng.random() < 0.5:
                arg = Var("X", "Obj")
            else:
                arg = Const(rng.choice("ab"))
            return RulePattern(Fact("U", (arg,)), tvar)
        return RulePattern(Fact(name), tvar)

    def random_ground_fact():
        name = rng.choice(pred_names)
        if name == "U":
            return Fact("U", (Const(rng.choice("ab")),))
        return Fact(name)

    rules = []
    for ri in range(rng.randint(1, 5)):
        n_cons = rng.randint(1, 2)
        consumed = [random_pattern(f"T{j}", allow_var=True) for j in range(n_cons)]
        preserved = []
        if rng.random() < 0.4:
            preserved.append(random_pattern("Tp", allow_var=False))
        bound_vars = [
            v for p in consumed + preserved for v in fact_vars(p.fact)
        ]
        created = []
        offsets = [rng.randint(1, 2)] + [
            rng.randint(0, 2) for _ in range(n_cons - 1)
        ]
        for off in offsets:
            name = rng.choice(pred_names)
            if name == "U":
                if bound_vars and rng.random() < 0.5:
                    created.append(CreatedFact(Fact("U", (bound_vars[0],)), off))
                else:
                    created.append(
                        CreatedFact(Fact("U", (Const(rng.choice("ab")),)), off)
                    )
            else:
                created.append(CreatedFact(Fact(name), off))
        tvars = ["T"] + [p.tvar for p in consumed + preserved]
        guard = []
        for _ in range(rng.randint(0, 2)):
            rel = rng.choice(["greater", "equal", "ge"])
            guard.append(
                TimeConstraint(
                    rel, rng.choice(tvars), rng.choice(tvars), rng.randint(-2, 2)
                )
            )
        rules.extend(
            expand_rule(f"r{ri}", "T", preserved, consumed, created, guard)
        )

    m = rng.randint(2, 4)
    facts = [TimestampedFact(Fact(TIME), rng.randint(0, 2))]
    for _ in range(m - 1):
        facts.append(TimestampedFact(random_ground_fact(), rng.randint(0, 2)))
    init = Configuration(tuple(facts))

    pairs = []
    for pi in range(rng.randint(0, 2)):
        pats = [random_pattern(f"S{j}", allow_var=False) for j in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            pats.append(RulePattern(Fact(TIME), "St"))
        guard = []
        if rng.random() < 0.6 and len(pats) >= 2:
            guard.append(
                TimeConstraint(
                    rng.choice(["greater", "equal", "ge"]),
                    pats[0].tvar,
                    pats[1].tvar,
                    rng.randint(-2, 2),
                )
            )
        pairs.extend(expand_critical_pair(f"c{pi}", pats, guard))
    cs = CriticalSpec(tuple(pairs))

    system = make_system(sig, rules, init=init)
    return system, init, cs


# ---------------------------------------------------------------------------
# Satisfiability and machine-termination oracles


def brute_force_sat(variables: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=variables):
        if all(
            any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def all_small_cnfs(max_vars: int = 3, max_clauses: int = 3):
    """Canonical representatives of every 3-CNF over the variable and
    clause budgets, literals drawn with repetition."""
    literals = []
    for v in range(1, max_vars + 1):
        literals += [v, -v]
    clause_pool = sorted(
        {tuple(sorted(c)) for c in itertools.combinations_with_replacement(literals, 3)}
    )
    for n in range(1, max_clauses + 1):
        for combo in itertools.combinations_with_replacement(clause_pool, n):
            yield combo


# A three-state machine on a two-cell tape, small enough for tests that
# run every procedure on it.
SMALL_TM = TmSpec(
    states=("q0", "q1", "qa"),
    final_states=frozenset(("qa",)),
    alphabet=("0", "1"),
    instructions={
        ("q0", "0"): ("q1", "1", "R"),
        ("q0", "1"): ("qa", "1", "N"),
        ("q1", "0"): ("q0", "0", "L"),
        ("q1", "1"): ("q1", "0", "R"),
    },
    space=2,
    input_word=("0", "1"),
)


def machine_runs_forever(spec) -> bool:
    """Direct simulation with repetition detection. Halting means
    reaching a final state; leaving the tape window in a non-final state
    idles forever."""
    tape = list(spec.tape_cells())
    q = spec.start_state
    pos = spec.head
    seen = set()
    while True:
        if q in spec.final_states:
            return False
        if not (0 <= pos <= spec.space + 1):
            return True
        key = (q, pos, tuple(tape))
        if key in seen:
            return True
        seen.add(key)
        q2, sym2, move = spec.instructions[(q, tape[pos])]
        tape[pos] = sym2
        q = q2
        pos += {"L": -1, "R": 1, "N": 0}[move]


# ---------------------------------------------------------------------------
# One rule line at a time


def rule_line_numbers(text: str) -> list[int]:
    """The 0-based indexes of the lines of ``text`` that declare a rule."""
    return [i for i, line in enumerate(text.split("\n")) if line.lstrip().startswith("rule")]


def only_rule_line(text: str, j: int, line: str | None = None) -> str:
    """``text`` with every rule line but line ``j`` blanked, and line ``j``
    replaced by ``line`` if given. Blanking keeps the line numbers."""
    blank = set(rule_line_numbers(text)) - {j}
    lines = ["" if i in blank else s for i, s in enumerate(text.split("\n"))]
    if line is not None:
        lines[j] = line
    return "\n".join(lines)


def parse_outcome(text: str):
    """``parse_spec``'s rules as a list, or its diagnostic as the tuple
    (code, line, col, message)."""
    try:
        return list(parse_spec(text).system.rules)
    except SpecParseError as exc:
        return (exc.code, exc.line, exc.col, str(exc))


# ---------------------------------------------------------------------------
# Renamings of constants


def rename_term(t, mapping: dict[str, str]):
    if isinstance(t, Const):
        return Const(mapping.get(t.name, t.name))
    if isinstance(t, App):
        return App(t.fn, tuple(rename_term(a, mapping) for a in t.args))
    return t


def rename_fact(f: Fact, mapping: dict[str, str]) -> Fact:
    return Fact(f.pred, tuple(rename_term(a, mapping) for a in f.args))


def _rule_shape(r, mapping):
    """Everything of a rule but its name, renamed."""
    return (
        r.time_var,
        tuple((rename_fact(p.fact, mapping), p.tvar) for p in r.preserved),
        tuple((rename_fact(p.fact, mapping), p.tvar) for p in r.consumed),
        tuple((rename_fact(cf.fact, mapping), cf.offset) for cf in r.created),
        r.guard,
    )


def _pair_shape(pair, mapping):
    return (tuple((rename_fact(p.fact, mapping), p.tvar) for p in pair.patterns), pair.guard)


def renaming_preserves(sys: System, cs: CriticalSpec, mapping: dict[str, str]) -> bool:
    """Whether renaming by ``mapping`` maps the multiset of rules (names
    ignored) and the multiset of critical pairs onto themselves."""
    return Counter(_rule_shape(r, mapping) for r in sys.rules) == Counter(
        _rule_shape(r, {}) for r in sys.rules
    ) and Counter(_pair_shape(p, mapping) for p in cs.pairs) == Counter(
        _pair_shape(p, {}) for p in cs.pairs
    )


def swaps_preserving(sys: System, cs: CriticalSpec) -> set[frozenset[str]]:
    """Every pair of constants of one sort other than Nat whose swap maps
    the rules and critical pairs onto themselves."""
    out = set()
    constants = sys.signature.constants
    for a, b in itertools.combinations(constants, 2):
        if constants[a] == constants[b] != NAT and renaming_preserves(sys, cs, {a: b, b: a}):
            out.add(frozenset((a, b)))
    return out


def turn_taking_spec(back_offset: int = 1) -> str:
    """Two tokens hand a turn back and forth, one clock advance per pass.
    With ``back_offset`` 1 the tokens are interchangeable, and the
    reduced search closes its lasso after half the loop; with 2 they are
    not."""
    return (
        "tmsr-spec 1\nsort Tok\nconst a : Tok\nconst b : Tok\npred Turn : Tok\n"
        'rule "pass-a": Time@T, Turn(a)@T1 -> Time@T, Turn(b)@(T+1)\n'
        f'rule "pass-b": Time@T, Turn(b)@T1 -> Time@T, Turn(a)@(T+{back_offset})\n'
        "init: Time@0, Turn(a)@0\n"
    )


@contextmanager
def symmetry_off():
    """Run the searches and replay unreduced: no constant is found
    interchangeable."""
    with mock.patch.object(tmsr.search, "symmetric_classes", lambda sys, cs: ()):
        yield
