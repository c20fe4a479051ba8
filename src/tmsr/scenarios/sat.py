"""Reduction from 3-CNF satisfiability to tick-bounded realizability.

The built system first rewrites every undecided variable fact into a
true or false assignment fact (one instantaneous step per variable, all
before the first clock advance), then walks the clause list one clause
per tick: the pending-suffix fact is rewritten to the next suffix
whenever some literal of its head clause is satisfied by an assignment
fact. A configuration is critical when the pending suffix's head clause
is already falsified: all its falsifying assignment facts are present.
With n clauses, a compliant trace with exactly n clock advances exists
iff the formula is satisfiable.

Rule count is 2p + 6n for p variables and n clauses: two assignment
rules per variable, and per clause one reduction rule per literal
position whose at-least-as-old-as guard on the preserved assignment fact
loads as two alternatives.

A rule depends only on a few small integers (its variable, or its
clause index, literal position, literal and whether the clause is the
last), so each distinct rule and critical pair is built once per process
and shared by every formula that holds it: it is checked, compiled for
matching and printed once. Its parts are shared too: its facts, its
patterns, the sides of the positions of a clause that hold one literal,
and the guards of all clause rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..rules import (
    CreatedFact,
    CriticalPair,
    CriticalSpec,
    GE,
    Rule,
    RulePattern,
    RuleSides,
    TimeConstraint,
    expand_guard,
    expand_rule,
    make_system,
)
from ..specfile import SpecFile
from ..terms import (
    Configuration,
    Fact,
    TIME,
    TimestampedFact,
    TmsrError,
    make_signature,
)


class CnfError(TmsrError):
    pass


@dataclass(frozen=True)
class Cnf3:
    """3-CNF with 1-based signed literals, e.g. (x1 or not x2 or x3) is
    (1, -2, 3)."""

    variables: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.variables < 1:
            raise CnfError("need at least one variable")
        if not self.clauses:
            raise CnfError("need at least one clause")
        for clause in self.clauses:
            if len(clause) != 3:
                raise CnfError("clauses carry exactly three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.variables:
                    raise CnfError(f"literal {lit} out of range")


# The 32,508 formulas of at most 3 variables and 3 clauses fill 289
# entries of these memos in all; the bound keeps a process that generates
# much larger formulas from holding every rule it ever built.
_MEMO_SIZE = 4096


@lru_cache(maxsize=_MEMO_SIZE)
def _fact(pred: str) -> Fact:
    """The nullary fact ``pred``, one object per name, so that equal facts
    of different shared rules are one object too."""
    return Fact(pred)


@lru_cache(maxsize=_MEMO_SIZE)
def _pattern(pred: str, tvar: str) -> RulePattern:
    """The pattern of the nullary fact ``pred`` stamped ``tvar``, shared."""
    return RulePattern(_fact(pred), tvar)


@lru_cache(maxsize=_MEMO_SIZE)
def _set_rules(i: int) -> tuple[Rule, ...]:
    """The rules that set variable i to true or to false."""
    rules: list[Rule] = []
    for value, pred in (("true", f"A{i}"), ("false", f"B{i}")):
        rules.extend(
            expand_rule(
                f"set{i}-{value}",
                "T",
                [],
                [_pattern(f"V{i}", "Tv")],
                [CreatedFact(_fact(pred), 1)],
                [TimeConstraint(GE, "T", "Tv")],
            )
        )
    return tuple(rules)


# The alternatives of every clause rule's guard T >= Ta, T >= Tc. The
# second atom restates the past bound of the consumed suffix fact.
_CLAUSE_GUARDS = expand_guard(
    [TimeConstraint(GE, "T", "Ta"), TimeConstraint(GE, "T", "Tc")],
    "T",
    frozenset(["Tc"]),
)


@lru_cache(maxsize=_MEMO_SIZE)
def _clause_sides(j: int, lit: int, last: bool) -> RuleSides:
    """The sides of the rules that pass clause j on through literal lit,
    shared by every position of the clause that holds lit: the pending
    suffix I{j} becomes I{j+1}, or Itop, the empty suffix, after the last
    clause."""
    key = f"A{abs(lit)}" if lit > 0 else f"B{abs(lit)}"
    return RuleSides(
        "T",
        (_pattern(key, "Ta"),),
        (_pattern(f"I{j}", "Tc"),),
        (CreatedFact(_fact("Itop" if last else f"I{j + 1}"), 1),),
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _clause_rules(j: int, pos: int, lit: int, last: bool) -> tuple[Rule, ...]:
    """The rules that pass clause j on through its literal at position pos."""
    sides = _clause_sides(j, lit, last)
    return tuple(Rule(f"clause{j}-lit{pos}", sides, guard) for guard in _CLAUSE_GUARDS)


@lru_cache(maxsize=_MEMO_SIZE)
def _falsified_pair(j: int, lits: tuple[int, ...]) -> CriticalPair:
    """Clause j, pending, with every one of its (sorted, distinct) literals
    falsified."""
    patterns = [
        _pattern("Start", "Ts"),
        _pattern(f"I{j}", "Tc"),
    ]
    for lit in lits:
        falsifier = f"B{lit}" if lit > 0 else f"A{-lit}"
        patterns.append(_pattern(falsifier, f"Tf{len(patterns)}"))
    return CriticalPair(f"falsified-{j}", tuple(patterns), ())


def gen_3sat(f: Cnf3) -> SpecFile:
    p, n = f.variables, len(f.clauses)
    preds: dict[str, tuple[str, ...]] = {"Start": ()}
    for i in range(1, p + 1):
        preds[f"V{i}"] = ()
        preds[f"A{i}"] = ()
        preds[f"B{i}"] = ()
    for j in range(1, n + 1):
        preds[f"I{j}"] = ()
    preds["Itop"] = ()
    sig = make_signature((), preds, {}, {})

    rules: list[Rule] = []
    for i in range(1, p + 1):
        rules.extend(_set_rules(i))
    for j, clause in enumerate(f.clauses, start=1):
        for pos, lit in enumerate(clause, start=1):
            rules.extend(_clause_rules(j, pos, lit, j == n))

    init_facts = [TimestampedFact(_fact(TIME), 0)]
    for i in range(1, p + 1):
        init_facts.append(TimestampedFact(_fact(f"V{i}"), 0))
    init_facts.append(TimestampedFact(_fact("I1"), 0))
    init_facts.append(TimestampedFact(_fact("Start"), 0))
    init = Configuration(tuple(init_facts))

    pairs = tuple(
        _falsified_pair(j, tuple(sorted(set(clause))))
        for j, clause in enumerate(f.clauses, start=1)
    )

    system = make_system(sig, rules, init=init)
    return SpecFile(system, init, CriticalSpec(pairs), ticks=n)
