"""Rewrite rules, guards, matching, criticality and the static classifier.

An instantaneous rule reads the global clock through its time variable,
keeps a multiset of preserved fact patterns, consumes a multiset of fact
patterns and creates fact patterns stamped at a non-negative offset from
the clock. Every consumed pattern additionally carries the implicit
past-only bound (its timestamp must not exceed the clock); this bound is
materialized on the rule at construction time and checked by matching
and by ``apply_rule``.

Guards are conjunctions of atoms ``L > R + N`` or ``L = R + N`` with a
signed offset N. A ``>=`` written by the user denotes the disjunction of
the two and is loaded by expanding the rule into alternatives sharing the
same name, except where the atom merely restates a past-only bound on a
consumed fact, in which case it is absorbed into the materialized bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Container, Iterable, NamedTuple, Sequence

from .terms import (
    App,
    Configuration,
    Const,
    Fact,
    SUCC,
    Signature,
    Substitution,
    TIME,
    Term,
    TimestampedFact,
    TmsrError,
    UnboundVariableError,
    Var,
    ZERO,
    apply_subst,
    check_fact,
    fact_size,
    fact_text,
    fact_vars,
    insert_canonical,
)

GREATER = "greater"
EQUAL = "equal"
GE = "ge"  # input sugar only; never stored on a loaded rule

TICK_LABEL = "tick"


class RuleError(TmsrError):
    pass


class _lazy:
    """An attribute computed on first access and stored in the instance
    dict, where later lookups find it before this descriptor. Unlike
    ``functools.cached_property`` in Python 3.11, it takes no lock."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class FactSizeError(TmsrError):
    """A created fact exceeded the declared size bound; the run aborts."""


@dataclass(frozen=True, slots=True)
class TimeConstraint:
    rel: str  # GREATER or EQUAL (GE only as expander input)
    left: str
    right: str
    offset: int = 0

    def text(self) -> str:
        op = {GREATER: ">", EQUAL: "=", GE: ">="}[self.rel]
        if self.offset > 0:
            return f"{self.left} {op} {self.right} + {self.offset}"
        if self.offset < 0:
            return f"{self.left} {op} {self.right} - {-self.offset}"
        return f"{self.left} {op} {self.right}"


@dataclass(frozen=True, slots=True)
class RulePattern:
    """A fact pattern together with its timestamp variable."""

    fact: Fact
    tvar: str


@dataclass(frozen=True, slots=True)
class CreatedFact:
    """A fact pattern created at clock + offset."""

    fact: Fact
    offset: int


def _check_guard(name: str, guard: Sequence[TimeConstraint], bound: Container[str]) -> None:
    """A rule's guard must be expanded and read only bound time variables."""
    for c in guard:
        if c.rel not in (GREATER, EQUAL):
            raise RuleError(
                f"rule {name!r}: guard relation {c.rel!r} must be "
                "expanded before rule construction"
            )
    for c in guard:
        for v in (c.left, c.right):
            if v not in bound:
                raise RuleError(
                    f"rule {name!r}: guard variable {v!r} does not "
                    "appear in the precondition"
                )


_CLOCK_FACT = f"a {TIME} fact is the clock, read through the time variable"


@dataclass(frozen=True, init=False)
class RuleSides:
    """A rule without its name and guard: the clock variable and the
    preserved, consumed and created facts. It checks itself once, when
    built, so rules that differ only in name or guard can share one. The
    clock is no pattern and no created fact: the sides read it through
    their time variable and leave it as it is. Their errors do not name a
    rule; ``rule_sides`` adds the name."""

    time_var: str
    preserved: tuple[RulePattern, ...]
    consumed: tuple[RulePattern, ...]
    created: tuple[CreatedFact, ...]
    # Full precondition in declaration order, clock pattern excluded.
    patterns: tuple[RulePattern, ...] = field(init=False, repr=False, compare=False)
    # Materialized past-only bounds: timestamp variables of consumed facts,
    # each required to be <= the clock at match time.
    past_bounds: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # The time variables a guard may read: the clock's and the patterns'.
    bound: frozenset[str] = field(init=False, repr=False, compare=False)
    # The largest creation offset, 0 without created facts: the sides are
    # progressive iff it is at least 1.
    max_offset: int = field(init=False, repr=False, compare=False)
    # As many facts created as consumed (the clock and preserved facts sit
    # on both sides).
    balanced: bool = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        time_var: str,
        preserved: tuple[RulePattern, ...],
        consumed: tuple[RulePattern, ...],
        created: tuple[CreatedFact, ...],
    ) -> None:
        # Fields are set in the instance dict, as in Rule.
        patterns = preserved + consumed
        fields = self.__dict__
        fields["time_var"] = time_var
        fields["preserved"] = preserved
        fields["consumed"] = consumed
        fields["created"] = created
        fields["patterns"] = patterns
        fields["past_bounds"] = tuple([p.tvar for p in consumed])
        fields["bound"] = frozenset([time_var, *[p.tvar for p in patterns]])
        fields["balanced"] = len(consumed) == len(created)
        for p in patterns:
            if p.fact.pred == TIME:
                raise RuleError(_CLOCK_FACT)
        max_offset = 0
        for cf in created:
            if cf.fact.pred == TIME:
                raise RuleError(_CLOCK_FACT)
            if cf.offset < 0:
                raise RuleError("negative creation offset")
            if cf.offset > max_offset:
                max_offset = cf.offset
        fields["max_offset"] = max_offset
        created_vars = [v for cf in created for v in fact_vars(cf.fact)]
        if created_vars:
            bound_vars = {v for p in patterns for v in fact_vars(p.fact)}
            for v in created_vars:
                if v not in bound_vars:
                    raise RuleError(f"created fact uses unbound variable {v.name!r}")

    @_lazy
    def rewrite_plan(self) -> _RewritePlan:
        """What ``rewrite`` needs of a rule, compiled on first use: the
        consumed patterns as (fact, ground, tvar), the created facts as
        (fact, size, offset) with size None unless the fact is ground (and
        then used as it is)."""
        consumed = tuple(
            (p.fact, _normal_ground_args(p.fact.args), p.tvar) for p in self.consumed
        )
        created = tuple(
            (cf.fact, fact_size(cf.fact) if _normal_ground_args(cf.fact.args) else None, cf.offset)
            for cf in self.created
        )
        return consumed, created


def rule_sides(
    name: str,
    guard: Sequence[TimeConstraint],
    time_var: str,
    preserved: tuple[RulePattern, ...],
    consumed: tuple[RulePattern, ...],
    created: tuple[CreatedFact, ...],
) -> RuleSides:
    """The sides of the rule ``name`` with this (expanded) guard, with the
    rule's name in any error. A rule's guard is checked before its sides,
    so a guard variable these sides leave unbound is the error reported."""
    try:
        return RuleSides(time_var, preserved, consumed, created)
    except RuleError as exc:
        _check_guard(name, guard, {time_var, *(p.tvar for p in preserved + consumed)})
        raise RuleError(f"rule {name!r}: {exc}") from None


@dataclass(frozen=True, init=False)
class Rule:
    """A named rule: shared, checked sides and a guard of expanded atoms
    over their time variables, checked here."""

    name: str
    sides: RuleSides
    guard: tuple[TimeConstraint, ...]

    def __init__(self, name: str, sides: RuleSides, guard: tuple[TimeConstraint, ...]) -> None:
        # One rule per spec line: setting the fields in the instance dict
        # takes about half the time of the generated frozen __init__,
        # which calls object.__setattr__ for each of them.
        fields = self.__dict__
        fields["name"] = name
        fields["sides"] = sides
        fields["guard"] = guard
        if guard:
            _check_guard(name, guard, sides.bound)

    time_var = property(attrgetter("sides.time_var"))
    preserved = property(attrgetter("sides.preserved"))
    consumed = property(attrgetter("sides.consumed"))
    created = property(attrgetter("sides.created"))
    patterns = property(attrgetter("sides.patterns"))
    past_bounds = property(attrgetter("sides.past_bounds"))

    @_lazy
    def plan(self) -> _MatchPlan:
        """The precondition compiled for the matcher (see Matching below),
        built on first use: generators that only print a spec never match."""
        return _compile(self.patterns, self.guard, (self.time_var,), self.past_bounds)

    @_lazy
    def rewrite_plan(self) -> _RewritePlan:
        """The sides' rewrite plan, looked up once per rule."""
        return self.sides.rewrite_plan

    @_lazy
    def text(self) -> str:
        """The rule's line in a spec file, built on first use: a rule that
        several specs share is printed once."""
        s = self.sides
        lhs = [f"{TIME}@{s.time_var}"]
        lhs += [f"{fact_text(p.fact)}@{p.tvar}" for p in s.preserved]
        lhs += [f"{fact_text(p.fact)}@{p.tvar}" for p in s.consumed]
        rhs = [f"{TIME}@{s.time_var}"]
        rhs += [f"{fact_text(p.fact)}@{p.tvar}" for p in s.preserved]
        for cf in s.created:
            if cf.offset == 0:
                rhs.append(f"{fact_text(cf.fact)}@{s.time_var}")
            else:
                rhs.append(f"{fact_text(cf.fact)}@({s.time_var}+{cf.offset})")
        guard = ""
        if self.guard:
            guard = " | " + ", ".join(c.text() for c in self.guard)
        return f'rule "{self.name}": {", ".join(lhs)}{guard} -> {", ".join(rhs)}'


def tick(c: Configuration) -> Configuration:
    return c.replace_time(c.time + 1)


def expand_guard(
    atoms: Sequence[TimeConstraint],
    time_var: str | None,
    consumed_tvars: frozenset[str],
) -> list[tuple[TimeConstraint, ...]]:
    """Expand >= atoms into alternative conjunctions. Atoms restating a
    past-only bound on a consumed fact are dropped (already materialized);
    trivially true atoms (T >= T) are dropped too."""
    alternatives: list[list[TimeConstraint]] = [[]]
    for a in atoms:
        if a.rel != GE:
            for alt in alternatives:
                alt.append(a)
            continue
        if a.offset == 0 and a.left == a.right:
            continue
        if (
            time_var is not None
            and a.offset == 0
            and a.left == time_var
            and a.right in consumed_tvars
        ):
            continue
        branched = []
        for alt in alternatives:
            branched.append(alt + [TimeConstraint(GREATER, a.left, a.right, a.offset)])
            branched.append(alt + [TimeConstraint(EQUAL, a.left, a.right, a.offset)])
        alternatives = branched
    return [tuple(alt) for alt in alternatives]


def expand_rule(
    name: str,
    time_var: str,
    preserved: Sequence[RulePattern],
    consumed: Sequence[RulePattern],
    created: Sequence[CreatedFact],
    guard: Sequence[TimeConstraint] = (),
) -> tuple[Rule, ...]:
    """Load one declared rule, expanding >= guard atoms into alternative
    rules sharing the declared name."""
    preserved, consumed, created = tuple(preserved), tuple(consumed), tuple(created)
    alts = expand_guard(guard, time_var, frozenset(p.tvar for p in consumed))
    sides = rule_sides(name, alts[0], time_var, preserved, consumed, created)
    return tuple(Rule(name, sides, alt) for alt in alts)


@dataclass(frozen=True)
class CriticalPair:
    name: str
    patterns: tuple[RulePattern, ...]
    guard: tuple[TimeConstraint, ...]

    def __post_init__(self) -> None:
        tvars = {p.tvar for p in self.patterns}
        for c in self.guard:
            if c.rel not in (GREATER, EQUAL):
                raise RuleError(
                    f"critical pair {self.name!r}: relation {c.rel!r} must be expanded"
                )
            for v in (c.left, c.right):
                if v not in tvars:
                    raise RuleError(
                        f"critical pair {self.name!r}: constraint variable {v!r} "
                        "not bound by the patterns"
                    )

    @_lazy
    def plan(self) -> _MatchPlan:
        """The patterns compiled for the matcher, built on first use."""
        return _compile(self.patterns, self.guard, (), ())

    @_lazy
    def text(self) -> str:
        """The pair's line in a spec file, built on first use."""
        pats = ", ".join(f"{fact_text(q.fact)}@{q.tvar}" for q in self.patterns)
        guard = " | " + ", ".join(c.text() for c in self.guard) if self.guard else ""
        return f'critical "{self.name}": {{ {pats}{guard} }}'


def expand_critical_pair(
    name: str,
    patterns: Sequence[RulePattern],
    guard: Sequence[TimeConstraint] = (),
) -> tuple[CriticalPair, ...]:
    alts = expand_guard(guard, None, frozenset())
    return tuple(CriticalPair(name, tuple(patterns), alt) for alt in alts)


@dataclass(frozen=True)
class CriticalSpec:
    pairs: tuple[CriticalPair, ...] = ()

    def max_offset(self) -> int:
        return max(
            (abs(c.offset) for p in self.pairs for c in p.guard), default=0
        )


EMPTY_SPEC = CriticalSpec()


@dataclass(frozen=True)
class System:
    """A rule set over a signature with a declared fact-size bound."""

    signature: Signature
    rules: tuple[Rule, ...]
    max_fact_size: int
    dmax_override: int | None = None

    def __post_init__(self) -> None:
        # Each distinct fact is checked once, at its first occurrence, which
        # is where a failing check would first have raised; a rule whose
        # sides an earlier rule shares holds no new fact.
        checked: set[Fact] = set()
        walked: set[int] = set()
        for r in self.rules:
            sides = r.sides
            if id(sides) in walked:
                continue
            walked.add(id(sides))
            facts = [(p.fact, "pattern") for p in sides.patterns]
            facts += [(cf.fact, "created pattern") for cf in sides.created]
            for f, what in facts:
                if f in checked:
                    continue
                checked.add(f)
                check_fact(self.signature, f)
                if fact_size(f) > self.max_fact_size:
                    raise RuleError(
                        f"rule {r.name!r}: {what} {fact_text(f)} exceeds "
                        f"the declared fact-size bound {self.max_fact_size}"
                    )

    @_lazy
    def index(self) -> _RuleIndex:
        """The rule index (see Matching below), built on first use:
        generators that only print a spec never match."""
        return _build_index(self.rules)


def default_fact_size_bound(
    rules: Iterable[Rule], init: Configuration | None = None
) -> int:
    """Largest fact size over all rule patterns and the initial facts."""
    best = 1
    for sides in {id(r.sides): r.sides for r in rules}.values():
        for p in sides.patterns:
            best = max(best, fact_size(p.fact))
        for cf in sides.created:
            best = max(best, fact_size(cf.fact))
    if init is not None:
        for tf in init:
            best = max(best, fact_size(tf.fact))
    return best


def make_system(
    signature: Signature,
    rules: Sequence[Rule],
    max_fact_size: int | None = None,
    init: Configuration | None = None,
    dmax_override: int | None = None,
) -> System:
    if max_fact_size is None:
        max_fact_size = default_fact_size_bound(rules, init)
    return System(signature, tuple(rules), max_fact_size, dmax_override)


# ---------------------------------------------------------------------------
# Matching
#
# Every rule and critical pair is compiled once, on its first match, into
# one step per pattern in declaration order. A ground pattern in normal form
# is matched by fact equality; any other pattern by structural matching
# whose new bindings are undone from a trail, on the elements that equal
# its ground arguments. Each guard atom is checked at the first step where
# both its variables are bound. A step visits only the elements of its
# predicate, in canonical order, so matches are enumerated in exactly the
# order of a plain backtracking scan over the configuration. A matched
# instance is rewritten by ``rewrite`` without a second match; the checked
# ``apply_rule`` is for instances from outside, such as a replayed trace.


_Check = tuple[bool, str, str, int]  # a guard atom: (greater, left, right, offset)

# A compiled pattern step is a plain tuple, cheap to build for every rule:
#   (pred, fact, ground, tvar, binds_tvar, past, checks, fixed)
# ground: the fact is matched by equality with the element's fact;
# binds_tvar: the first step to bind tvar (later ones compare with it);
# past: the element's stamp must not exceed the clock;
# checks: the guard atoms decided once this step is bound;
# fixed: (position, argument) of each ground argument in normal form of
# a non-ground fact, which an element must equal to match.
_Step = tuple[str, Fact, bool, str, bool, bool, tuple[_Check, ...], tuple[tuple[int, Term], ...]]
# A match plan: (guard atoms decided before the first step, steps).
_MatchPlan = tuple[tuple[_Check, ...], tuple[_Step, ...]]
# A rewrite plan (see Rule.rewrite_plan).
_RewritePlan = tuple[tuple[tuple[Fact, bool, str], ...], tuple[tuple[Fact, int | None, int], ...]]


def _normal_ground(t: Term) -> bool:
    """Ground and equal to its normal form (no s(n) left over a numeral,
    no z), so that equality decides matching against it."""
    if isinstance(t, int):
        return True
    if isinstance(t, Const):
        return t.name != ZERO
    if isinstance(t, App):
        if t.fn == SUCC and len(t.args) == 1 and isinstance(t.args[0], int):
            return False
        return _normal_ground_args(t.args)
    return False


def _normal_ground_args(args: tuple[Term, ...]) -> bool:
    for a in args:
        if not _normal_ground(a):
            return False
    return True


def _compile(
    patterns: Sequence[RulePattern],
    guard: Sequence[TimeConstraint],
    bound: tuple[str, ...],
    past_tvars: tuple[str, ...],
) -> _MatchPlan:
    """Steps for the patterns; ``bound`` holds the time variables bound
    before the first step (the clock variable of a rule)."""
    tvars = [p.tvar for p in patterns]
    # Guard atoms by the step that binds their later variable; -1 stands
    # for the variables bound before the first step.
    checks: dict[int, list[_Check]] = {}
    for c in guard:
        left = -1 if c.left in bound else tvars.index(c.left)
        right = -1 if c.right in bound else tvars.index(c.right)
        checks.setdefault(max(left, right), []).append(
            (c.rel == GREATER, c.left, c.right, c.offset)
        )
    steps = []
    for i, p in enumerate(patterns):
        ground = _normal_ground_args(p.fact.args)
        fixed = () if ground else tuple(
            (k, a) for k, a in enumerate(p.fact.args) if _normal_ground(a)
        )
        steps.append((
            p.fact.pred,
            p.fact,
            ground,
            p.tvar,
            p.tvar not in bound and tvars.index(p.tvar) == i,
            p.tvar in past_tvars,
            tuple(checks.get(i, ())),
            fixed,
        ))
    return tuple(checks.get(-1, ())), tuple(steps)


def _holds(checks: tuple[_Check, ...], tbind: dict[str, int]) -> bool:
    for greater, left, right, offset in checks:
        if greater:
            if not tbind[left] > tbind[right] + offset:
                return False
        elif tbind[left] != tbind[right] + offset:
            return False
    return True


def _bind_term(
    pat: Term, ground: Term, binding: dict[Var, Term], trail: list[Var]
) -> bool:
    """Structural match of pat against ground; new bindings go on trail."""
    if isinstance(pat, Var):
        seen = binding.get(pat)
        if seen is None:
            binding[pat] = ground
            trail.append(pat)
            return True
        return seen == ground
    if isinstance(pat, int):
        return pat == ground
    if isinstance(pat, App):
        if pat.fn == "s" and len(pat.args) == 1 and isinstance(ground, int):
            if ground >= 1:
                return _bind_term(pat.args[0], ground - 1, binding, trail)
            return False
        if isinstance(ground, App) and ground.fn == pat.fn and len(ground.args) == len(pat.args):
            for p, g in zip(pat.args, ground.args):
                if not _bind_term(p, g, binding, trail):
                    return False
            return True
        return False
    return pat == ground  # Const


def _by_pred(elements: Sequence[TimestampedFact]) -> dict[str, list[int]]:
    """Element positions per predicate, each list in canonical order."""
    groups: dict[str, list[int]] = {}
    for j, el in enumerate(elements):
        got = groups.get(el.fact.pred)
        if got is None:
            groups[el.fact.pred] = [j]
        else:
            got.append(j)
    return groups


def _run_plan(
    plan: _MatchPlan,
    elements: Sequence[TimestampedFact],
    groups: dict[str, list[int]],
    tbind: dict[str, int],
    clock: int | None,
    first_only: bool,
) -> list[Substitution]:
    """All distinct substitutions, in enumeration order."""
    pre_checks, steps = plan
    if not _holds(pre_checks, tbind):
        return []
    # Candidate elements per step: its predicate and arity (its fact, when
    # ground, else its ground arguments), within the past bound and at the
    # stamp already bound, if any.
    candidates = []
    for pred, fact, ground, tvar, _, past, _, fixed in steps:
        pos = groups.get(pred)
        if pos is None:
            return []
        args = fact.args
        if ground:
            pos = [j for j in pos if elements[j].fact.args == args]
        else:
            pos = [j for j in pos if len(elements[j].fact.args) == len(args)]
            for k, a in fixed:
                pos = [j for j in pos if elements[j].fact.args[k] == a]
        if past and clock is not None:
            pos = [j for j in pos if elements[j].ts <= clock]
        at = tbind.get(tvar)
        if at is not None:
            pos = [j for j in pos if elements[j].ts == at]
        if not pos:
            return []
        candidates.append(pos)

    out: list[Substitution] = []
    used = [False] * len(elements)
    _walk(0, steps, candidates, elements, used, tbind, {}, out, set(), first_only)
    return out


def _walk(
    i: int,
    steps: tuple[_Step, ...],
    candidates: list[list[int]],
    elements: Sequence[TimestampedFact],
    used: list[bool],
    tbind: dict[str, int],
    vbind: dict[Var, Term],
    out: list[Substitution],
    seen: set[Substitution],
    first_only: bool,
) -> bool:
    """Bind steps i.. in every way, appending each new substitution to
    out; True once first_only has its match."""
    if i == len(steps):
        s = Substitution.of(tbind, vbind)
        if s in seen:
            return False
        seen.add(s)
        out.append(s)
        return first_only
    _, fact, ground, tvar, binds_tvar, _, checks, _ = steps[i]
    for j in candidates[i]:
        if used[j]:
            continue
        el = elements[j]
        if not binds_tvar and tbind[tvar] != el.ts:
            continue
        trail: list[Var] = []
        if not ground:
            ok = True
            for p, g in zip(fact.args, el.fact.args):
                if not _bind_term(p, g, vbind, trail):
                    ok = False
                    break
            if not ok:
                for v in trail:
                    del vbind[v]
                continue
        if binds_tvar:
            tbind[tvar] = el.ts
        stop = False
        if _holds(checks, tbind):
            used[j] = True
            stop = _walk(
                i + 1, steps, candidates, elements, used, tbind, vbind, out, seen, first_only
            )
            used[j] = False
        if binds_tvar:
            del tbind[tvar]
        for v in trail:
            del vbind[v]
        if stop:
            return True
    return False


def match_rule(
    r: Rule,
    c: Configuration,
    first_only: bool = False,
    *,
    clock: int | None = None,
    groups: dict[str, list[int]] | None = None,
) -> list[Substitution]:
    """All grounding substitutions making the rule's precondition a
    sub-multiset of c with the guard and past-only bounds satisfied.
    ``clock`` and ``groups``, when given, are c's time and ``_by_pred``
    groups, computed once by a caller that matches many rules against c."""
    if clock is None:
        clock = c.time
    elements = c.facts
    if groups is None:
        groups = _by_pred(elements)
    return _run_plan(r.plan, elements, groups, {r.time_var: clock}, clock, first_only)


class _RuleIndex(NamedTuple):
    """Necessary conditions of the rules, checked before any match.

    A key is a ground pattern fact, or such a fact with its age (clock
    minus stamp) when the rule's guard pins that age. A rule is listed
    under its most selective key, the one the fewest rules share, together
    with its other keys. ``by_fact`` gives, per fact, the id of its plain
    key (-1 if none) and the ids of its keys per age. Rules without a
    ground pattern are listed with the predicates a configuration must
    hold for them."""

    by_fact: dict[Fact, tuple[int, dict[int, int]]]
    keyed: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    unkeyed: tuple[tuple[int, frozenset[str]], ...]


def _pinned_ages(time_var: str, guard: Sequence[TimeConstraint]) -> dict[str, int]:
    """The time variables whose age the guard pins: the clock variable
    (age 0) and each Tp in an atom T = Tp + k (age k) or Tp = T + k
    (age -k), where T is the clock variable."""
    ages = {time_var: 0}
    for c in guard:
        if c.rel == EQUAL:
            if c.left == time_var:
                ages.setdefault(c.right, c.offset)
            elif c.right == time_var:
                ages.setdefault(c.left, -c.offset)
    return ages


def _build_index(rules: Sequence[Rule]) -> _RuleIndex:
    # Per pattern fact: key ids by age (None for the plain key), or None
    # when the fact is not ground.
    keys_of: dict[Fact, dict[int | None, int] | None] = {}
    # Rules share sides and guards (the spec loader builds each distinct
    # one once), so the ground patterns of each distinct sides, as (key ids
    # by age, time variable), and the pinned ages of each distinct guard
    # over a clock variable are found once, by identity.
    ground_of: dict[int, list[tuple[dict[int | None, int], str]]] = {}
    ages_of: dict[tuple[int, str], dict[str, int]] = {}
    per_rule = []
    shared: list[int] = []  # key id -> number of rules with that key
    for r in rules:
        sides = r.sides
        ground = ground_of.get(id(sides))
        if ground is None:
            ground = ground_of[id(sides)] = []
            for p in sides.patterns:
                got = keys_of.get(p.fact, False)
                if got is False:
                    got = keys_of[p.fact] = {} if _normal_ground_args(p.fact.args) else None
                if got is not None:
                    ground.append((got, p.tvar))
        guard_key = (id(r.guard), sides.time_var)
        ages = ages_of.get(guard_key)
        if ages is None:
            ages = ages_of[guard_key] = _pinned_ages(sides.time_var, r.guard)
        keys = []
        for got, tvar in ground:
            age = ages.get(tvar)
            k = got.get(age)
            if k is None:
                k = got[age] = len(shared)
                shared.append(0)
            if k not in keys:
                keys.append(k)
                shared[k] += 1
        per_rule.append(keys)
    keyed: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in shared]
    unkeyed = []
    for i, keys in enumerate(per_rule):
        if keys:
            best = min(keys, key=shared.__getitem__)
            keyed[best].append((i, tuple([k for k in keys if k != best])))
        else:
            unkeyed.append((i, frozenset(p.fact.pred for p in rules[i].patterns)))
    by_fact = {f: (ids.pop(None, -1), ids) for f, ids in keys_of.items() if ids is not None}
    return _RuleIndex(by_fact, tuple(map(tuple, keyed)), tuple(unkeyed))


def _candidates(sys: System, c: Configuration, clock: int) -> list[int]:
    """Positions of the rules that may match c, in declaration order: those
    whose keys are all among c's facts and (fact, age) pairs."""
    by_fact, keyed, unkeyed = sys.index
    present = set()
    for tf in c.facts:
        got = by_fact.get(tf.fact)
        if got is not None:
            plain, aged = got
            if plain >= 0:
                present.add(plain)
            k = aged.get(clock - tf.ts)
            if k is not None:
                present.add(k)
    pos = []
    if unkeyed:
        preds = {tf.fact.pred for tf in c.facts}
        pos = [i for i, need in unkeyed if need <= preds]
    for k in present:
        for i, others in keyed[k]:
            if present.issuperset(others):
                pos.append(i)
    pos.sort()
    return pos


def enabled(sys: System, c: Configuration) -> list[tuple[Rule, Substitution]]:
    """Applicable (rule, substitution) pairs of instantaneous rules, in
    rule declaration order, then match enumeration order."""
    rules = sys.rules
    clock = c.time
    groups = _by_pred(c.facts)
    out: list[tuple[Rule, Substitution]] = []
    for i in _candidates(sys, c, clock):
        r = rules[i]
        for s in match_rule(r, c, clock=clock, groups=groups):
            out.append((r, s))
    return out


def must_tick(sys: System, c: Configuration) -> bool:
    """True iff no instantaneous rule applies, so the clock must advance."""
    rules = sys.rules
    clock = c.time
    groups = _by_pred(c.facts)
    for i in _candidates(sys, c, clock):
        if match_rule(rules[i], c, first_only=True, clock=clock, groups=groups):
            return False
    return True


def apply_rule(
    r: Rule,
    c: Configuration,
    s: Substitution,
    max_fact_size: int | None = None,
) -> Configuration:
    """Apply r under s, checking first that s matches r on c: raises
    RuleError if s does not satisfy the precondition, FactSizeError if a
    created fact exceeds the bound. The searches call ``rewrite`` on the
    instances ``enabled`` has matched; this checked path serves replay."""
    clock = c.time
    if s.time(r.time_var) != clock:
        raise RuleError(f"rule {r.name!r}: clock binding does not match")
    terms = dict(s.terms)
    times = dict(s.times)
    pre_checks, steps = r.plan
    # Instances of the precondition, counted per stamp and predicate, then
    # checked off against c in one pass.
    wanted: dict[tuple[int, str], list[Fact]] = {}
    for pred, fact, ground, tvar, _, _, _, _ in steps:
        inst = fact if ground else apply_subst(fact, terms)
        ts = times.get(tvar)
        if ts is None:
            raise UnboundVariableError(tvar)
        wanted.setdefault((ts, pred), []).append(inst)
    for tf in c.facts:
        want = wanted.get((tf.ts, tf.fact.pred))
        if want and tf.fact in want:
            want.remove(tf.fact)
    if any(wanted.values()):
        raise RuleError(f"rule {r.name!r}: precondition not a sub-multiset")
    for tv in r.past_bounds:
        if times[tv] > clock:
            raise RuleError(f"rule {r.name!r}: consumed fact stamped in the future")
    if not (_holds(pre_checks, times) and all(_holds(st[6], times) for st in steps)):
        guard = ", ".join(g.text() for g in r.guard)
        raise RuleError(f"rule {r.name!r}: guard {guard} fails")
    return rewrite(r, c, s, max_fact_size)


def rewrite(
    r: Rule,
    c: Configuration,
    s: Substitution,
    max_fact_size: int | None = None,
) -> Configuration:
    """The successor of c under a matched (r, s): the consumed instances
    removed, each created fact added at clock + offset. s is not checked
    against c (``apply_rule`` does that), but FactSizeError is raised if a
    created fact exceeds the bound."""
    times = dict(s.times)
    clock = times[r.time_var]
    consumed, created = r.rewrite_plan
    terms = dict(s.terms)
    remaining = list(c.facts)
    for fact, ground, tvar in consumed:
        inst = fact if ground else apply_subst(fact, terms)
        ts = times[tvar]
        for j, tf in enumerate(remaining):
            if tf.ts == ts and tf.fact == inst:
                del remaining[j]
                break
    new = []
    for fact, size, offset in created:
        if size is None:
            fact = apply_subst(fact, terms)
            size = fact_size(fact)
        if max_fact_size is not None and size > max_fact_size:
            raise FactSizeError(
                f"rule {r.name!r} created {fact_text(fact)} of size "
                f"{size}, exceeding the bound {max_fact_size}"
            )
        new.append(TimestampedFact(fact, clock + offset))
    # remaining keeps the canonical order of c, and every created fact is
    # ground: each of its variables is bound to a term of c.
    for tf in new:
        insert_canonical(remaining, tf)
    return Configuration._canonical(tuple(remaining))


# ---------------------------------------------------------------------------
# Criticality


def is_critical(
    cs: CriticalSpec, c: Configuration
) -> tuple[int, Substitution] | None:
    """First matching pair index and substitution, or None."""
    elements = c.facts
    groups = _by_pred(elements)
    for i, pair in enumerate(cs.pairs):
        matches = _run_plan(pair.plan, elements, groups, {}, None, first_only=True)
        if matches:
            return i, matches[0]
    return None


# ---------------------------------------------------------------------------
# Static classification


def check_balanced(sys: System) -> list[str]:
    """Names of the unbalanced rules, in rule order. The clock and preserved
    facts sit on both sides, so a rule is balanced iff it creates as many
    facts as it consumes."""
    return [r.name for r in sys.rules if not r.sides.balanced]


def check_progressive(sys: System) -> list[str]:
    """Names of the rules creating no fact strictly in the future, in rule
    order. The other half of the definition, every consumed fact bounded
    to the past, holds by construction: ``Rule.past_bounds`` is built from
    ``consumed``. Raises RuleError on an unbalanced system."""
    unbalanced = check_balanced(sys)
    if unbalanced:
        raise RuleError(
            "progressive check requires a balanced system; unbalanced rules: "
            + ", ".join(unbalanced)
        )
    return [r.name for r in sys.rules if r.sides.max_offset < 1]


def compute_dmax(
    sys: System, init: Configuration | None, cs: CriticalSpec
) -> int:
    """Truncation bound: the maximum over initial timestamps, creation
    offsets and absolute guard offsets, never below 1."""
    best = 1
    if init is not None:
        for tf in init:
            best = max(best, tf.ts)
    for r in sys.rules:
        best = max(best, r.sides.max_offset)
        for g in r.guard:
            best = max(best, abs(g.offset))
    best = max(best, cs.max_offset())
    if sys.dmax_override is not None:
        if sys.dmax_override < best:
            raise RuleError(
                f"declared truncation bound {sys.dmax_override} is below the "
                f"inferred bound {best}"
            )
        best = sys.dmax_override
    return best
