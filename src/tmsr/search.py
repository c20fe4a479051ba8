"""Decision procedures: realizability and survivability, bounded and not.

All four run on one explorer: a depth-first search for a compliant run
and a breadth-first search for a critical state. Both explore concrete
configurations from the initial one, so witnesses and counterexamples are
concrete traces. They key their visited sets on the normal member of each
configuration's class in the truncated-difference quotient
(``delta.abstract``), which is finite for balanced systems and bisimilar
to the concrete graph; when the spec has interchangeable constants
(``delta.symmetric_classes``), on the orbit of that normal member under
their renamings (``delta.make_orbit_key``). Under a tick budget the key
also holds the clock's stamp, which counts the ticks: two configurations
with one key at one tick count have the same futures up to renaming for
the rest of the budget, so a shortest counterexample stays shortest, and
the searches cut traces exactly at the n-th clock advance.

Realizability is the depth-first search. Lazy sampling gives every state
a successor, so an infinite compliant trace exists iff a compliant cycle
is reachable; the witness is a lasso, or, bounded, a compliant trace
with exactly n clock advances.

Survivability is realizability plus "every admissible trace is good".
As every state has a successor, it holds exactly when no critical state
is reachable. So the breadth-first search runs first, and the shortest
path to a critical state is the counterexample. When there is none and
the search is unbounded, the depth-first search supplies the lasso.
Under a tick budget the breadth-first search has generated every node up
to the n-th clock advance, so the witness is its own shortest path to the
first node with n ticks, and no second search runs.

Two structural invariants are asserted on every explored path and
counted in ``invariant_counters``: strictly fewer instantaneous steps
than facts between consecutive clock advances, and bounded-search depth
within (n+2)*m + n.
"""

from __future__ import annotations

import time as _time
from collections.abc import Callable, Hashable
from dataclasses import dataclass

from .delta import abstract, l_sigma_decimal, make_orbit_key, symmetric_classes
from .rules import (
    CriticalSpec,
    Rule,
    Substitution,
    System,
    TICK_LABEL,
    apply_rule,
    check_progressive,
    compute_dmax,
    enabled,
    is_critical,
    must_tick,
    rewrite,
    tick,
)
from .terms import Configuration, TmsrError

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

REALIZABILITY = "realizability"
SURVIVABILITY = "survivability"
BOUNDED_REALIZABILITY = "bounded-realizability"
BOUNDED_SURVIVABILITY = "bounded-survivability"


class VerifierInputError(TmsrError):
    """Bad input to a decision procedure (distinct from verdict 'fails')."""


class EngineInvariantError(TmsrError):
    """An internal structural invariant failed; indicates an engine bug."""


invariant_counters = {"instantaneous_run": 0, "bounded_depth": 0}


def _violate(kind: str, message: str) -> None:
    invariant_counters[kind] += 1
    raise EngineInvariantError(message)


@dataclass(frozen=True)
class TraceStep:
    label: str
    subst: Substitution | None
    config: Configuration


@dataclass(frozen=True)
class Trace:
    init: Configuration
    steps: tuple[TraceStep, ...] = ()

    @property
    def final(self) -> Configuration:
        return self.steps[-1].config if self.steps else self.init


@dataclass(frozen=True)
class Lasso:
    """Finite witness of an infinite compliant trace: a stem into a cycle
    of the quotient graph. The cycle's endpoints have equal quotient keys
    (see ``_quotient_key``), and need not be equal configurations: the
    end may be a renamed copy of the start, and repeating the cycle under
    that renaming goes on forever."""

    stem: Trace
    cycle: Trace


@dataclass(frozen=True)
class SearchBudget:
    max_states: int = 1_000_000
    max_seconds: float = 600.0


@dataclass
class SearchStats:
    states: int = 0
    peak_frontier: int = 0
    elapsed_ms: float = 0.0
    l_sigma_decimal: str | None = None
    max_depth: int = 0  # the most steps from init of any key generated
    depth_cap: int | None = None
    # The classes of interchangeable constants the keys reduce by (empty
    # when there are none).
    symmetry: tuple[tuple[str, ...], ...] = ()


@dataclass
class Verdict:
    mode: str
    outcome: str
    stats: SearchStats
    witness: Trace | Lasso | None = None
    counterexample: Trace | None = None
    critical_pair: int | None = None
    note: str = ""
    ticks: int | None = None  # the tick budget; None when unbounded


def lazy_successors(
    sys: System, c: Configuration
) -> list[tuple[str, Substitution | None, Configuration]]:
    """Successors under lazy sampling: every enabled instantaneous
    instance, or the single clock advance when none is enabled. Each
    instance is rewritten as matched; replay checks it with ``apply_rule``."""
    pairs = enabled(sys, c)
    if pairs:
        return [(r.name, s, rewrite(r, c, s, sys.max_fact_size)) for r, s in pairs]
    return [(TICK_LABEL, None, tick(c))]


def _check_run(run: int, label: str, m: int) -> int:
    if label == TICK_LABEL:
        return 0
    if run + 1 >= m:
        _violate(
            "instantaneous_run",
            f"{run + 1} instantaneous steps between clock advances "
            f"(limit {m - 1} for {m} facts)",
        )
    return run + 1


def _check_depth(depth: int, cap: int | None) -> None:
    if cap is not None and depth > cap:
        _violate("bounded_depth", f"search depth {depth} exceeds the cap {cap}")


class _Clock:
    """The budget of one verdict: states per search, seconds in all."""

    def __init__(self, budget: SearchBudget):
        self.budget = budget
        self.start = _time.monotonic()

    def exhausted(self, states: int) -> str | None:
        """The note for the budget that ran out, or None."""
        if states > self.budget.max_states:
            return "state budget exhausted"
        if _time.monotonic() - self.start > self.budget.max_seconds:
            return "time budget exhausted"
        return None

    def elapsed_ms(self) -> float:
        return (_time.monotonic() - self.start) * 1000.0


def _quotient_key(
    classes: tuple[tuple[str, ...], ...], dmax: int
) -> Callable[[Configuration], Hashable]:
    """The visited-set key of the unbounded searches, and the quotient part
    of the bounded ones: the normal member of the quotient class, or its
    orbit key when constants are interchangeable. Orbits keep distances
    and cycles (see ``symmetric_classes``), so the verdicts are those of
    the plain key."""
    if not classes:
        return lambda c: abstract(c, dmax)
    orbit_key = make_orbit_key(classes)
    return lambda c: orbit_key(abstract(c, dmax))


@dataclass
class _Search:
    """What the searches of one verdict share. ``key`` maps a configuration
    to its visited-set key: ``_quotient_key``'s function, paired under a
    tick budget ``n`` with the stamp of the ``Time`` fact, which only
    clock advances move."""

    sys: System
    init: Configuration
    cs: CriticalSpec
    n: int | None
    key: Callable[[Configuration], Hashable]
    cap: int | None
    clock: _Clock
    stats: SearchStats


def _decide(
    mode: str,
    sys: System,
    init: Configuration,
    cs: CriticalSpec,
    n: int | None,
    budget: SearchBudget | None,
) -> Verdict:
    """The preamble the four procedures share, then the searches of ``mode``."""
    s = _new_search(sys, init, cs, n, budget)
    stats = s.stats

    def done(outcome: str, **found) -> Verdict:
        stats.elapsed_ms = s.clock.elapsed_ms()
        return Verdict(mode, outcome, stats, ticks=n, **found)

    hit = is_critical(cs, init)
    if hit is not None:
        stats.states = 1
        return done(
            FAILS,
            counterexample=Trace(init),
            critical_pair=hit[0],
            note="initial configuration is critical",
        )

    survival = mode in (SURVIVABILITY, BOUNDED_SURVIVABILITY)
    if survival:
        outcome, found, pair = _critical_reach(s)
        if outcome == FAILS:
            return done(FAILS, counterexample=found, critical_pair=pair)
        if outcome == UNKNOWN:
            return done(UNKNOWN, note=found)
        if n is not None:
            return done(HOLDS, witness=found)
    outcome, found = _compliant_run(s)
    if outcome == HOLDS:
        return done(HOLDS, witness=found)
    if outcome == UNKNOWN:
        return done(UNKNOWN, note=found)
    if n is None:
        no_run = "no compliant cycle reachable"
    else:
        no_run = f"no compliant trace with exactly {n} clock advances"
    if survival:
        raise EngineInvariantError(f"no critical state reachable, yet {no_run}")
    return done(FAILS, note=no_run)


def _new_search(
    sys: System,
    init: Configuration,
    cs: CriticalSpec,
    n: int | None,
    budget: SearchBudget | None,
) -> _Search:
    """Check the input and set up the searches of one verdict; its clock
    starts here."""
    offenders = check_progressive(sys)
    if offenders:
        raise VerifierInputError(
            "system is not progressive; offending rules: " + ", ".join(offenders)
        )
    if n is not None and n < 1:
        raise VerifierInputError("tick budget must be at least 1")
    clock = _Clock(budget or SearchBudget())
    dmax = compute_dmax(sys, init, cs)
    cap = None if n is None else (n + 2) * len(init) + n
    stats = SearchStats(
        l_sigma_decimal=l_sigma_decimal(sys, init, dmax),
        depth_cap=cap,
        symmetry=symmetric_classes(sys, cs),
    )
    key = _quotient_key(stats.symmetry, dmax)
    if n is not None:
        quotient = key
        key = lambda config: (quotient(config), config.time)
    return _Search(sys, init, cs, n, key, cap, clock, stats)


def realizability(
    sys: System,
    init: Configuration,
    cs: CriticalSpec,
    budget: SearchBudget | None = None,
) -> Verdict:
    return _decide(REALIZABILITY, sys, init, cs, None, budget)


def survivability(
    sys: System,
    init: Configuration,
    cs: CriticalSpec,
    budget: SearchBudget | None = None,
) -> Verdict:
    return _decide(SURVIVABILITY, sys, init, cs, None, budget)


def bounded_realizability(
    sys: System,
    init: Configuration,
    cs: CriticalSpec,
    n: int,
    budget: SearchBudget | None = None,
) -> Verdict:
    return _decide(BOUNDED_REALIZABILITY, sys, init, cs, n, budget)


def bounded_survivability(
    sys: System,
    init: Configuration,
    cs: CriticalSpec,
    n: int,
    budget: SearchBudget | None = None,
) -> Verdict:
    return _decide(BOUNDED_SURVIVABILITY, sys, init, cs, n, budget)


# ---------------------------------------------------------------------------
# Depth-first search for a compliant run.


def _steps(entries) -> tuple[TraceStep, ...]:
    return tuple(TraceStep(e[0], e[1], e[2]) for e in entries)


def _compliant_run(s: _Search) -> tuple[str, Trace | Lasso | str | None]:
    """A compliant lasso (unbounded) or a compliant trace with exactly
    ``n`` clock advances (bounded): (HOLDS, witness), (FAILS, None) when
    there is none, (UNKNOWN, the note naming the spent budget). Every key
    generated counts as a state, critical ones included."""
    sys, cs, n, init, key_of = s.sys, s.cs, s.n, s.init, s.key
    m = len(init)
    # Stack entries: (label, subst, config, ticks, run, successors, index).
    # ``seen`` maps each key to the entry pushed for it (False if it was
    # never pushed); the entry is on the stack iff it is still at its index.
    stack = [(None, None, init, 0, 0, iter(lazy_successors(sys, init)), 0)]
    seen = {key_of(init): stack[0]}
    peak = deepest = 0
    outcome, witness = FAILS, None
    while stack:
        spent = s.clock.exhausted(len(seen))
        if spent is not None:
            outcome, witness = UNKNOWN, spent
            break
        if len(stack) > peak:
            peak = len(stack)
        top = stack[-1]
        step = next(top[5], None)
        if step is None:
            stack.pop()
            continue
        label, subst, child = step
        ticks = top[3] + (label == TICK_LABEL)
        key = key_of(child)
        entry = seen.get(key)
        if entry is not None:
            if entry is False or entry[6] >= len(stack) or stack[entry[6]] is not entry:
                continue  # critical, or explored to the end
            _check_run(top[4], label, m)
            # Cycle closed: stem up to the entry of the key, cycle from there.
            at = entry[6]
            cycle = _steps(stack[at + 1 :] + [step])
            # A bounded key holds the clock, so any repeat there lands here.
            if not any(st.label == TICK_LABEL for st in cycle):
                _violate("instantaneous_run", "witness cycle contains no clock advance")
            stem = Trace(init, _steps(stack[1 : at + 1]))
            outcome, witness = HOLDS, Lasso(stem, Trace(entry[2], cycle))
            break
        seen[key] = False
        if len(stack) > deepest:  # the child's depth
            deepest = len(stack)
            _check_depth(deepest, s.cap)
        if is_critical(cs, child) is not None:
            continue
        run = _check_run(top[4], label, m)
        if ticks == n:
            outcome, witness = HOLDS, Trace(init, _steps(stack[1:] + [step]))
            break
        entry = (label, subst, child, ticks, run, iter(lazy_successors(sys, child)), len(stack))
        seen[key] = entry
        stack.append(entry)

    stats = s.stats
    stats.states += len(seen)
    stats.peak_frontier = max(stats.peak_frontier, peak, len(stack))
    stats.max_depth = max(stats.max_depth, deepest)
    return outcome, witness


# ---------------------------------------------------------------------------
# Breadth-first search for a critical state (shortest counterexample).


def _critical_reach(s: _Search) -> tuple[str, Trace | str | None, int | None]:
    """Layered search over the same keys as ``_compliant_run``; a node
    with ``n`` clock advances is not expanded. Returns (FAILS, shortest
    path to a critical state, its pair index), (HOLDS, witness, None) when
    no critical state is reachable, or (UNKNOWN, the note naming the spent
    budget, None). Under a tick budget the witness is the path to the
    first node generated with ``n`` clock advances, a shortest compliant
    trace with n ticks; unbounded, it is None. Like the depth-first
    search, it checks the budget for every key generated."""
    sys, cs, n, init, key_of, stats = s.sys, s.cs, s.n, s.init, s.key, s.stats
    m = len(init)
    init_key = key_of(init)
    parents: dict = {init_key: None}
    goal = None  # the key of the first node with n clock advances
    # Node: (key, config, ticks, run)
    layer = [(init_key, init, 0, 0)]
    depth = deepest = 0  # of the children of the layer; of the deepest key
    try:
        while layer:
            stats.peak_frontier = max(stats.peak_frontier, len(layer))
            depth += 1
            next_layer = []
            for key, config, ticks, run in layer:
                if ticks == n:
                    if goal is None:
                        goal = key
                    continue
                for label, subst, child in lazy_successors(sys, config):
                    child_key = key_of(child)
                    if child_key in parents:
                        continue
                    parents[child_key] = (key, label, subst, child)
                    if depth > deepest:
                        deepest = depth
                        _check_depth(deepest, s.cap)
                    hit = is_critical(cs, child)
                    if hit is not None:
                        return FAILS, _chain(parents, init, child_key), hit[0]
                    spent = s.clock.exhausted(len(parents))
                    if spent is not None:
                        return UNKNOWN, spent, None
                    child_run = _check_run(run, label, m)
                    child_ticks = ticks + (label == TICK_LABEL)
                    next_layer.append((child_key, child, child_ticks, child_run))
            layer = next_layer
        return HOLDS, None if goal is None else _chain(parents, init, goal), None
    finally:
        stats.states += len(parents)
        stats.max_depth = max(stats.max_depth, deepest)


def _chain(parents, init, key) -> Trace:
    steps = []
    while parents[key] is not None:
        pkey, label, subst, config = parents[key]
        steps.append(TraceStep(label, subst, config))
        key = pkey
    steps.reverse()
    return Trace(init, tuple(steps))


# ---------------------------------------------------------------------------
# Trace validation.


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    failed_index: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_trace(
    sys: System,
    cs: CriticalSpec,
    t: Trace,
    expected_ticks: int | None = None,
    expect_critical_end: bool = False,
) -> ValidationResult:
    """Replay every step, enforce lazy sampling at every clock advance and
    compliance of every configuration (with ``expect_critical_end`` the
    final configuration must instead be critical, as in a counterexample).
    With a tick budget ``expected_ticks`` of n, a witness has exactly n
    clock advances, and a counterexample takes no step after the n-th,
    where the bounded search expands nothing. The failing step index
    counts from 0; -1 denotes the initial configuration."""
    by_name: dict[str, list[Rule]] = {}
    for r in sys.rules:
        by_name.setdefault(r.name, []).append(r)

    def compliance(config, index, is_last) -> ValidationResult | None:
        crit = is_critical(cs, config) is not None
        if expect_critical_end and is_last:
            if not crit:
                return ValidationResult(False, index, "final configuration not critical")
            return None
        if crit:
            return ValidationResult(False, index, "critical configuration in trace")
        return None

    bad = compliance(t.init, -1, is_last=not t.steps)
    if bad is not None:
        return bad

    current = t.init
    ticks = 0
    for i, step in enumerate(t.steps):
        if expect_critical_end and ticks == expected_ticks:
            return ValidationResult(
                False, i, f"step after the last of {ticks} clock advances"
            )
        if step.label == TICK_LABEL:
            if not must_tick(sys, current):
                return ValidationResult(
                    False, i, "clock advanced while an instantaneous rule was enabled"
                )
            replayed = tick(current)
            ticks += 1
        else:
            candidates = by_name.get(step.label, [])
            if not candidates:
                return ValidationResult(False, i, f"unknown rule {step.label!r}")
            if step.subst is None:
                return ValidationResult(False, i, "missing substitution")
            for r in candidates:
                try:
                    replayed = apply_rule(r, current, step.subst, sys.max_fact_size)
                except TmsrError:
                    continue
                if replayed == step.config:
                    break
            else:
                return ValidationResult(
                    False, i, f"step does not replay under rule {step.label!r}"
                )
        if replayed != step.config:
            return ValidationResult(False, i, "recorded configuration differs")
        current = replayed
        bad = compliance(current, i, is_last=(i == len(t.steps) - 1))
        if bad is not None:
            return bad

    if expected_ticks is not None and not expect_critical_end and ticks != expected_ticks:
        return ValidationResult(
            False,
            len(t.steps) - 1 if t.steps else -1,
            f"expected {expected_ticks} clock advances, found {ticks}",
        )
    return ValidationResult(True)


def validate_lasso(
    sys: System,
    cs: CriticalSpec,
    lasso: Lasso,
    dmax: int,
) -> ValidationResult:
    """Certify a realizability witness: stem and cycle replay compliantly,
    the cycle endpoints have equal quotient keys and the cycle advances
    the clock. The symmetry classes of the key are found again from the
    spec, so a report cannot choose them."""
    got = validate_trace(sys, cs, lasso.stem)
    if not got:
        return got
    if lasso.stem.final != lasso.cycle.init:
        return ValidationResult(False, None, "cycle does not start at the stem end")
    got = validate_trace(sys, cs, lasso.cycle)
    if not got:
        return got
    if not lasso.cycle.steps:
        return ValidationResult(False, None, "empty cycle")
    key = _quotient_key(symmetric_classes(sys, cs), dmax)
    if key(lasso.cycle.init) != key(lasso.cycle.final):
        return ValidationResult(False, None, "cycle endpoints are not equivalent")
    if not any(s.label == TICK_LABEL for s in lasso.cycle.steps):
        return ValidationResult(False, None, "cycle contains no clock advance")
    return ValidationResult(True)
