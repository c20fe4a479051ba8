"""Decision procedures: realizability and survivability, bounded and not.

All four run on one explorer: a depth-first search for a compliant run
and a breadth-first search for a critical state. Both explore concrete
configurations from the initial one, so witnesses and counterexamples are
concrete traces. Unbounded modes key their visited sets on the normal
member of each configuration's class in the truncated-difference
quotient (``delta.abstract``), which is finite for balanced systems and
bisimilar to the concrete graph; when the spec has interchangeable
constants (``delta.symmetric_classes``), on the orbit of that normal
member under their renamings (``delta.make_orbit_key``). Bounded modes key
them on (configuration, ticks) and cut traces exactly at the n-th clock
advance.

Realizability is the depth-first search. Lazy sampling gives every state
a successor, so an infinite compliant trace exists iff a compliant cycle
is reachable; the witness is a lasso, or, bounded, a compliant trace
with exactly n clock advances.

Survivability is realizability plus "every admissible trace is good".
As every state has a successor, it holds exactly when no critical state
is reachable. So the breadth-first search runs first, and the shortest
path to a critical state is the counterexample. When there is none, the
depth-first search supplies the witness; nothing it meets is critical,
so it only follows first successors. Under a tick budget those are
concrete and the breadth-first search has expanded them all, so it
records each node's first successor and the witness is read off those
records (``_first_successor_run``) without a second search.

Two structural invariants are asserted on every explored path and
counted in ``invariant_counters``: strictly fewer instantaneous steps
than facts between consecutive clock advances, and bounded-search depth
within (n+2)*m + n.
"""

from __future__ import annotations

import time as _time
from collections.abc import Callable, Hashable
from dataclasses import dataclass

from .delta import abstract, count_bound, make_orbit_key, symmetric_classes
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
    of the quotient graph. The cycle's endpoints have equal unbounded keys
    (see ``_unbounded_key``), and need not be equal configurations: the
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
    max_depth: int = 0
    depth_cap: int | None = None
    # The classes of interchangeable constants the unbounded keys reduce
    # by (empty when there are none); None in bounded modes.
    symmetry: tuple[tuple[str, ...], ...] | None = None


@dataclass
class Verdict:
    mode: str
    outcome: str
    stats: SearchStats
    witness: Trace | Lasso | None = None
    counterexample: Trace | None = None
    critical_pair: int | None = None
    note: str = ""


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


def _unbounded_key(
    classes: tuple[tuple[str, ...], ...], dmax: int
) -> Callable[[Configuration], Hashable]:
    """The visited-set key of the unbounded searches: the normal member
    of the quotient class, or its orbit key when constants are
    interchangeable. Orbits keep distances and cycles (see
    ``symmetric_classes``), so the verdicts are those of the plain key."""
    if not classes:
        return lambda c: abstract(c, dmax)
    orbit_key = make_orbit_key(classes)
    return lambda c: orbit_key(abstract(c, dmax))


@dataclass
class _Search:
    """What the searches of one verdict share. ``key`` maps a configuration
    and its tick count to the visited-set key: ``_unbounded_key`` when
    unbounded (``n`` is None), the pair itself under a tick budget."""

    sys: System
    init: Configuration
    cs: CriticalSpec
    n: int | None
    key: Callable[[Configuration, int], Hashable]
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
        return Verdict(mode, outcome, stats, **found)

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
        first = None if n is None else {}
        outcome, found, pair = _critical_reach(s, first)
        if outcome == FAILS:
            return done(FAILS, counterexample=found, critical_pair=pair)
        if outcome == UNKNOWN:
            return done(UNKNOWN, note=found)
        if first is not None:
            return done(HOLDS, witness=_first_successor_run(s, first))
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
    l_sigma = count_bound(
        len(init),
        sys.max_fact_size,
        dmax,
        sys.signature.predicate_count,
        sys.signature.symbol_count,
    )
    stats = SearchStats(l_sigma_decimal=str(l_sigma), depth_cap=cap)
    if n is None:
        stats.symmetry = symmetric_classes(sys, cs)
        unbounded = _unbounded_key(stats.symmetry, dmax)
        key = lambda config, ticks: unbounded(config)
    else:
        key = lambda config, ticks: (config, ticks)
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
    seen = {key_of(init, 0): stack[0]}
    peak = 0
    outcome, witness = FAILS, None
    while stack:
        spent = s.clock.exhausted(len(seen))
        if spent is not None:
            outcome, witness = UNKNOWN, spent
            break
        if len(stack) > peak:
            peak = len(stack)
            _check_depth(peak - 1, s.cap)
        top = stack[-1]
        step = next(top[5], None)
        if step is None:
            stack.pop()
            continue
        label, subst, child = step
        ticks = top[3] + (label == TICK_LABEL)
        key = key_of(child, ticks)
        entry = seen.get(key)
        if entry is not None:
            if entry is False or entry[6] >= len(stack) or stack[entry[6]] is not entry:
                continue  # critical, or explored to the end
            _check_run(top[4], label, m)
            # Cycle closed: stem up to the entry of the key, cycle from there.
            at = entry[6]
            cycle = _steps(stack[at + 1 :] + [step])
            # Bounded keys carry the tick count, so any repeat there lands here.
            if not any(st.label == TICK_LABEL for st in cycle):
                _violate("instantaneous_run", "witness cycle contains no clock advance")
            stem = Trace(init, _steps(stack[1 : at + 1]))
            outcome, witness = HOLDS, Lasso(stem, Trace(entry[2], cycle))
            break
        seen[key] = False
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
    stats.max_depth = max(stats.max_depth, peak - 1)
    return outcome, witness


# ---------------------------------------------------------------------------
# Breadth-first search for a critical state (shortest counterexample).


def _critical_reach(
    s: _Search, first: dict | None = None
) -> tuple[str, Trace | str | None, int | None]:
    """Layered search over the same keys as ``_compliant_run``; a node
    with ``n`` clock advances is not expanded. Returns (FAILS, shortest
    path to a critical state, its pair index), (HOLDS, None, None) when no
    critical state is reachable, or (UNKNOWN, the note naming the spent
    budget, None). Like the depth-first search, it checks the budget for
    every key generated. ``first``, when given, maps the key of each node
    expanded to its first successor as (label, subst, child, child key,
    child ticks)."""
    sys, cs, n, init, key_of, stats = s.sys, s.cs, s.n, s.init, s.key, s.stats
    m = len(init)
    init_key = key_of(init, 0)
    parents: dict = {init_key: None}
    # Node: (key, config, ticks, run)
    layer = [(init_key, init, 0, 0)]
    depth = 0
    try:
        while layer:
            stats.peak_frontier = max(stats.peak_frontier, len(layer))
            depth += 1
            _check_depth(depth, s.cap)
            next_layer = []
            for key, config, ticks, run in layer:
                if ticks == n:
                    continue
                lead = first is not None
                for label, subst, child in lazy_successors(sys, config):
                    child_ticks = ticks + (label == TICK_LABEL)
                    child_key = key_of(child, child_ticks)
                    if lead:
                        first[key] = (label, subst, child, child_key, child_ticks)
                        lead = False
                    if child_key in parents:
                        continue
                    parents[child_key] = (key, label, subst, child)
                    hit = is_critical(cs, child)
                    if hit is not None:
                        return FAILS, _chain(parents, init, child_key), hit[0]
                    spent = s.clock.exhausted(len(parents))
                    if spent is not None:
                        return UNKNOWN, spent, None
                    child_run = _check_run(run, label, m)
                    next_layer.append((child_key, child, child_ticks, child_run))
            layer = next_layer
        return HOLDS, None, None
    finally:
        stats.states += len(parents)
        stats.max_depth = max(stats.max_depth, depth)


def _first_successor_run(s: _Search, first: dict) -> Trace:
    """The bounded witness, read off the first successors that
    ``_critical_reach`` recorded once it found no critical state: from the
    initial configuration to the n-th clock advance. It is the trace
    ``_compliant_run`` would find and is counted as that search counts it:
    nothing on the path is critical, and its keys are concrete, so that
    search follows first successors and, as a repeated key would be a cycle
    without a clock advance, never turns back."""
    m = len(s.init)
    key, ticks, run = s.key(s.init, 0), 0, 0
    steps = []
    while ticks != s.n:
        _check_depth(len(steps), s.cap)
        label, subst, child, key, ticks = first[key]
        run = _check_run(run, label, m)
        steps.append(TraceStep(label, subst, child))
    stats = s.stats
    stats.states += len(steps) + 1
    stats.peak_frontier = max(stats.peak_frontier, len(steps))
    stats.max_depth = max(stats.max_depth, len(steps) - 1)
    return Trace(s.init, tuple(steps))


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
    the cycle endpoints have equal unbounded keys and the cycle advances
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
    key = _unbounded_key(symmetric_classes(sys, cs), dmax)
    if key(lasso.cycle.init) != key(lasso.cycle.final):
        return ValidationResult(False, None, "cycle endpoints are not equivalent")
    if not any(s.label == TICK_LABEL for s in lasso.cycle.steps):
        return ValidationResult(False, None, "cycle contains no clock advance")
    return ValidationResult(True)
