import contextlib
import dataclasses
import random

import pytest

from support import (
    SMALL_TM,
    all_small_cnfs,
    oracle_verdicts,
    random_progressive_system,
    symmetry_off,
    turn_taking_spec,
)

from tmsr import (
    Configuration,
    Const,
    CreatedFact,
    FactSizeError,
    CriticalPair,
    CriticalSpec,
    FAILS,
    Fact,
    HOLDS,
    Lasso,
    RulePattern,
    SearchBudget,
    Substitution,
    Trace,
    TraceStep,
    TimestampedFact,
    UNKNOWN,
    VerifierInputError,
    abstract,
    bounded_realizability,
    bounded_survivability,
    compute_dmax,
    expand_rule,
    invariant_counters,
    make_signature,
    make_system,
    parse_spec,
    realizability,
    survivability,
    validate_lasso,
    validate_trace,
)
from tmsr.rules import TICK_LABEL, is_critical
from tmsr.scenarios import Cnf3, DroneParams, gen_3sat, gen_drone, gen_tm
from tmsr.search import _compliant_run, _critical_reach, _new_search


def ts(fact, t):
    return TimestampedFact(fact, t)


def tick_only_system():
    sig = make_signature((), {"F": ()}, {}, {})
    sysm = make_system(sig, [], max_fact_size=1)
    init = Configuration((ts(Fact("Time"), 0),))
    return sysm, init, CriticalSpec()


def branching_system():
    """One fact, two rules: keep cycling, or decay into a flagged fact."""
    sig = make_signature((), {"A": (), "Bad": ()}, {}, {})
    good = expand_rule("keep", "T", [], [RulePattern(Fact("A"), "T1")], [CreatedFact(Fact("A"), 1)], [])
    bad = expand_rule("drop", "T", [], [RulePattern(Fact("A"), "T1")], [CreatedFact(Fact("Bad"), 1)], [])
    sysm = make_system(sig, list(good) + list(bad))
    init = Configuration((ts(Fact("Time"), 0), ts(Fact("A"), 0)))
    cs = CriticalSpec((CriticalPair("flagged", (RulePattern(Fact("Bad"), "Tb"),), ()),))
    return sysm, init, cs


def burst_system(width):
    """Time plus `width` independent facts, each re-created every tick."""
    sig = make_signature((), {f"A{i}": () for i in range(width)}, {}, {})
    rules = []
    for i in range(width):
        rules.extend(
            expand_rule(
                f"r{i}", "T", [],
                [RulePattern(Fact(f"A{i}"), "Ti")],
                [CreatedFact(Fact(f"A{i}"), 1)],
                [],
            )
        )
    init = Configuration(
        (ts(Fact("Time"), 0),) + tuple(ts(Fact(f"A{i}"), 0) for i in range(width))
    )
    return make_system(sig, rules), init, CriticalSpec()


class TestBoundedRealizability:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_tick_only_holds_for_any_budget(self, n):
        sysm, init, cs = tick_only_system()
        v = bounded_realizability(sysm, init, cs, n)
        assert v.outcome == HOLDS
        assert [s.label for s in v.witness.steps] == [TICK_LABEL] * n

    def test_critical_init_fails_with_empty_trace(self):
        sysm, init, _ = tick_only_system()
        cs = CriticalSpec((CriticalPair("now", (RulePattern(Fact("Time"), "T"),), ()),))
        for n in (1, 3):
            v = bounded_realizability(sysm, init, cs, n)
            assert v.outcome == FAILS
            assert v.counterexample is not None and v.counterexample.steps == ()
            assert v.critical_pair == 0

    def test_tick_budget_must_be_positive(self):
        sysm, init, cs = tick_only_system()
        with pytest.raises(VerifierInputError):
            bounded_realizability(sysm, init, cs, 0)

    def test_non_progressive_system_rejected(self):
        sig = make_signature((), {"F": ()}, {}, {})
        (r,) = expand_rule("now", "T", [], [RulePattern(Fact("F"), "T1")], [CreatedFact(Fact("F"), 0)], [])
        sysm = make_system(sig, [r])
        init = Configuration((ts(Fact("Time"), 0), ts(Fact("F"), 0)))
        with pytest.raises(VerifierInputError):
            bounded_realizability(sysm, init, CriticalSpec(), 1)

    def test_budget_exhaustion_is_unknown(self):
        spec = gen_drone(DroneParams(recency=6))
        v = bounded_realizability(
            spec.system, spec.init, spec.critical, 24, SearchBudget(max_states=5)
        )
        assert (v.outcome, v.note) == (UNKNOWN, "state budget exhausted")


class TestBoundedSurvivability:
    def test_tick_only_holds(self):
        sysm, init, cs = tick_only_system()
        assert bounded_survivability(sysm, init, cs, 3).outcome == HOLDS

    def test_single_bad_branch_fails_with_shortest_counterexample(self):
        sysm, init, cs = branching_system()
        real = bounded_realizability(sysm, init, cs, 2)
        assert real.outcome == HOLDS  # the keep branch is compliant
        v = bounded_survivability(sysm, init, cs, 2)
        assert v.outcome == FAILS
        cex = v.counterexample
        assert cex is not None
        assert cex.steps[-1].label == "drop"
        assert len(cex.steps) == 1  # drop immediately, before any tick
        assert validate_trace(sysm, cs, cex, expect_critical_end=True)

    def test_unreachable_critical_pattern_holds(self):
        sysm, init, _ = tick_only_system()
        cs = CriticalSpec((CriticalPair("never", (RulePattern(Fact("F"), "Tf"),), ()),))
        assert bounded_survivability(sysm, init, cs, 4).outcome == HOLDS

    def test_monotone_in_the_tick_budget(self):
        spec = gen_drone(DroneParams(recency=6))
        outcomes = {}
        for n in (6, 12, 24):
            outcomes[n] = bounded_survivability(
                spec.system, spec.init, spec.critical, n
            ).outcome
        assert outcomes[24] == HOLDS
        assert outcomes[12] == HOLDS and outcomes[6] == HOLDS


def compliant_run_oracle(sysm, init, cs, n, budget=None):
    """What the depth-first search finds after the critical-state search
    of a bounded-survivability verdict has found no critical state, run on
    the very ``_Search`` of that verdict: (witness, statistics), or None
    when the critical-state search does not hold."""
    s = _new_search(sysm, init, cs, n, budget)
    if is_critical(cs, init) is not None or _critical_reach(s)[0] != HOLDS:
        return None
    outcome, witness = _compliant_run(s)
    assert outcome == HOLDS
    return witness, s.stats


def untimed(stats):
    return dataclasses.replace(stats, elapsed_ms=0.0)


def assert_witness_is_the_compliant_run(sysm, init, cs, n, budget=None) -> bool:
    """The bounded-survivability witness and statistics are those of the
    depth-first search it no longer runs; True if the verdict holds."""
    v = bounded_survivability(sysm, init, cs, n, budget)
    want = compliant_run_oracle(sysm, init, cs, n, budget)
    assert (v.outcome == HOLDS) == (want is not None)
    if want is None:
        return False
    witness, stats = want
    assert v.witness == witness
    assert untimed(v.stats) == untimed(stats)
    assert validate_trace(sysm, cs, v.witness, expected_ticks=n)
    return True


class TestBoundedSurvivabilityWitness:
    """The witness is read off the critical-state search's first
    successors; ``_compliant_run`` on the same search is the oracle."""

    def test_random_progressive_systems(self):
        rng = random.Random(18018)
        held = 0
        for _ in range(300):
            sysm, init, cs = random_progressive_system(rng)
            held += assert_witness_is_the_compliant_run(sysm, init, cs, rng.randint(1, 4))
        assert held >= 100

    @pytest.mark.parametrize(
        "params, ticks",
        [
            (DroneParams(recency=6), (6, 12, 24)),
            (DroneParams(drones=2, recency=8), (8, 16, 32)),
            (DroneParams(drones=2, recency=9), (9, 18, 36)),
            (DroneParams(drones=2, recency=8, strategy="free"), (1, 2, 3)),
        ],
        ids=["greedy d1 r6", "greedy d2 r8", "greedy d2 r9", "free d2 r8"],
    )
    def test_drone_rungs(self, params, ticks):
        spec = gen_drone(params)
        for n in ticks:
            assert assert_witness_is_the_compliant_run(spec.system, spec.init, spec.critical, n)

    def test_sat_systems(self):
        held = 0
        for clauses in all_small_cnfs(2, 2):
            variables = max(abs(lit) for c in clauses for lit in c)
            spec = gen_3sat(Cnf3(variables, clauses))
            for n in (len(clauses), len(clauses) + 1):
                held += assert_witness_is_the_compliant_run(
                    spec.system, spec.init, spec.critical, n
                )
        assert held >= 50

    def test_tm_system(self):
        spec = gen_tm(SMALL_TM)
        for n in range(1, 12):
            assert assert_witness_is_the_compliant_run(spec.system, spec.init, spec.critical, n)

    def test_state_budgets_across_the_witness_length(self):
        # Greedy d1 r6 at 24 ticks holds in 98 states, 48 of them on the
        # witness: budgets from below the witness to above the whole count.
        spec = gen_drone(DroneParams(recency=6))
        args = (spec.system, spec.init, spec.critical, 24)
        full = bounded_survivability(*args)
        assert (full.outcome, full.stats.states, len(full.witness.steps)) == (HOLDS, 98, 48)
        outcomes = set()
        for states in range(40, 158):
            budget = SearchBudget(max_states=states)
            v = bounded_survivability(*args, budget)
            outcomes.add(v.outcome)
            want = compliant_run_oracle(*args, budget)
            if want is None:
                s = _new_search(*args, budget)
                outcome, note, _ = _critical_reach(s)
                assert (v.outcome, v.note, untimed(v.stats)) == (outcome, note, untimed(s.stats))
            else:
                assert (v.witness, untimed(v.stats)) == (want[0], untimed(want[1]))
        assert outcomes == {HOLDS, UNKNOWN}


class TestRealizability:
    def test_tick_only_lasso_is_a_self_loop(self):
        sysm, init, cs = tick_only_system()
        v = realizability(sysm, init, cs)
        assert v.outcome == HOLDS
        lasso = v.witness
        assert isinstance(lasso, Lasso)
        assert lasso.stem.steps == ()
        assert len(lasso.cycle.steps) == 1
        assert lasso.cycle.steps[0].label == TICK_LABEL
        assert validate_lasso(sysm, cs, lasso, compute_dmax(sysm, init, cs))

    def test_every_branch_going_critical_fails(self):
        spec = gen_drone(DroneParams(points=((0, 0),), recency=2, energy_cap=6))
        v = realizability(spec.system, spec.init, spec.critical)
        assert v.outcome == FAILS

    def test_witness_cycles_always_advance_the_clock(self):
        rng = random.Random(2024)
        seen_holds = 0
        for _ in range(40):
            sysm, init, cs = random_progressive_system(rng)
            v = realizability(sysm, init, cs)
            if v.outcome == HOLDS:
                seen_holds += 1
                assert any(s.label == TICK_LABEL for s in v.witness.cycle.steps)
                dmax = compute_dmax(sysm, init, cs)
                assert validate_lasso(sysm, cs, v.witness, dmax)
        assert seen_holds > 5

    def test_critical_init_fails_immediately(self):
        sysm, init, _ = tick_only_system()
        cs = CriticalSpec((CriticalPair("now", (RulePattern(Fact("Time"), "T"),), ()),))
        v = realizability(sysm, init, cs)
        assert v.outcome == FAILS and v.critical_pair == 0


class TestSurvivability:
    def test_tick_only_holds(self):
        sysm, init, cs = tick_only_system()
        assert survivability(sysm, init, cs).outcome == HOLDS

    @pytest.mark.parametrize("drones, recency", [(1, 6), (2, 8)])
    def test_witness_is_the_realizability_witness(self, drones, recency):
        spec = gen_drone(DroneParams(drones=drones, recency=recency))
        args = (spec.system, spec.init, spec.critical)
        surv, real = survivability(*args), realizability(*args)
        assert surv.outcome == real.outcome == HOLDS
        assert surv.witness == real.witness
        n = 4 * recency
        surv, real = bounded_survivability(*args, n), bounded_realizability(*args, n)
        assert surv.outcome == real.outcome == HOLDS
        assert surv.witness == real.witness

    def test_deterministic_system_matches_realizability(self):
        for M in (1, 2):
            spec = gen_drone(DroneParams(points=((1, 1),), recency=M, energy_cap=2))
            r = realizability(spec.system, spec.init, spec.critical).outcome
            s = survivability(spec.system, spec.init, spec.critical).outcome
            assert r == s

    def test_bad_branch_fails_with_counterexample(self):
        sysm, init, cs = branching_system()
        assert realizability(sysm, init, cs).outcome == HOLDS
        v = survivability(sysm, init, cs)
        assert v.outcome == FAILS
        assert v.counterexample is not None
        assert validate_trace(sysm, cs, v.counterexample, expect_critical_end=True)

    def test_holding_survivability_implies_realizability(self):
        rng = random.Random(4096)
        for _ in range(40):
            sysm, init, cs = random_progressive_system(rng)
            s = survivability(sysm, init, cs).outcome
            if s == HOLDS:
                assert realizability(sysm, init, cs).outcome == HOLDS

    def test_agrees_with_exhaustive_oracle(self):
        rng = random.Random(11111)
        for _ in range(50):
            sysm, init, cs = random_progressive_system(rng)
            dmax = compute_dmax(sysm, init, cs)
            want_real, want_surv = oracle_verdicts(sysm, init, cs, dmax)
            assert realizability(sysm, init, cs).outcome == (HOLDS if want_real else FAILS)
            assert survivability(sysm, init, cs).outcome == (HOLDS if want_surv else FAILS)


class TestValidateTrace:
    def test_searcher_witnesses_validate(self):
        sysm, init, cs = branching_system()
        v = bounded_realizability(sysm, init, cs, 3)
        assert validate_trace(sysm, cs, v.witness, expected_ticks=3)

    def test_early_tick_rejected(self):
        sysm, init, cs = branching_system()
        bad = Trace(
            init,
            (TraceStep(TICK_LABEL, None, Configuration(
                (ts(Fact("Time"), 1), ts(Fact("A"), 0))
            )),),
        )
        result = validate_trace(sysm, cs, bad)
        assert not result.ok and result.failed_index == 0
        assert "instantaneous" in result.message

    def test_tampered_configuration_rejected(self):
        sysm, init, cs = tick_only_system()
        bad = Trace(
            init,
            (TraceStep(TICK_LABEL, None, Configuration((ts(Fact("Time"), 5),))),),
        )
        result = validate_trace(sysm, cs, bad)
        assert not result.ok and result.failed_index == 0

    def test_tick_count_enforced(self):
        sysm, init, cs = tick_only_system()
        v = bounded_realizability(sysm, init, cs, 2)
        assert validate_trace(sysm, cs, v.witness, expected_ticks=2)
        result = validate_trace(sysm, cs, v.witness, expected_ticks=3)
        assert not result.ok and "clock advances" in result.message

    def test_longest_legal_trace_under_the_depth_cap(self):
        # With 5 facts and 4 ticks the step cap is (4+2)*5+4 = 34; the
        # longest lazy trace cut at the 4th tick has 4*(5-1)+4 = 20 steps.
        sysm, init, cs = burst_system(4)
        assert len(init) == 5
        v = bounded_realizability(sysm, init, cs, 4)
        assert v.outcome == HOLDS
        assert len(v.witness.steps) == 20 <= 34
        assert v.stats.depth_cap == 34
        assert v.stats.max_depth <= 34
        assert validate_trace(sysm, cs, v.witness, expected_ticks=4)
        # the same trace is rejected as soon as a critical spec matches it
        poisoned = CriticalSpec(
            (CriticalPair("no-a0", (RulePattern(Fact("A0"), "Ta"),), ()),)
        )
        assert not validate_trace(sysm, poisoned, v.witness, expected_ticks=4)

    def test_extension_past_the_final_tick_still_replays(self):
        from tmsr import apply_rule, enabled

        sysm, init, cs = burst_system(4)
        v = bounded_realizability(sysm, init, cs, 4)
        config = v.witness.final
        steps = list(v.witness.steps)
        for _ in range(4):
            pairs = enabled(sysm, config)
            r, s = pairs[0]
            config = apply_rule(r, config, s, sysm.max_fact_size)
            steps.append(TraceStep(r.name, s, config))
        longer = Trace(init, tuple(steps))
        assert len(longer.steps) == 24
        assert validate_trace(sysm, cs, longer, expected_ticks=4)


# N(0) and N(1) fit the bound k=3; the second step creates N(2), of size 4.
GROWING = (
    "tmsr-spec 1\npred N : Nat\n"
    'rule "grow": Time@T, N(K)@T1 -> Time@T, N(s(K))@(T+1)\n'
    "init: N(0)@0, Time@0\nparams: k=3\n"
)


class TestFactSizeBound:
    """The searches build successors with ``rewrite``, not ``apply_rule``,
    and still abort on a created fact above the bound."""

    @pytest.mark.parametrize(
        "decide, ticks",
        [
            (realizability, None),
            (survivability, None),
            (bounded_realizability, 3),
            (bounded_survivability, 3),
        ],
        ids=["realizability", "survivability", "bounded-real", "bounded-surv"],
    )
    def test_every_procedure_raises(self, decide, ticks):
        spec = parse_spec(GROWING)
        args = (spec.system, spec.init, spec.critical) + (() if ticks is None else (ticks,))
        with pytest.raises(FactSizeError, match=r"^rule 'grow' created N\(2\) of size 4"):
            decide(*args)


class TestInvariants:
    def test_no_structural_violations_recorded(self):
        assert invariant_counters["instantaneous_run"] == 0
        assert invariant_counters["bounded_depth"] == 0

    def test_statistics_are_populated(self):
        sysm, init, cs = branching_system()
        v = survivability(sysm, init, cs)
        assert v.stats.states > 0
        assert v.stats.l_sigma_decimal is not None
        assert int(v.stats.l_sigma_decimal) > 0


class TestFreeTwoDroneRecencyEight:
    """State counts and verdicts pinned to the figures of the plain
    backtracking matcher, so a faster matcher must explore the same graph,
    and to the figures of the drone-swap reduction."""

    @pytest.fixture(scope="class")
    def spec(self):
        return gen_drone(DroneParams(drones=2, recency=8, strategy="free"))

    def test_state_counts_and_verdict(self, spec):
        dmax = compute_dmax(spec.system, spec.init, spec.critical)
        for reduced, real_states, surv_states in [(False, 2473, 428), (True, 1752, 234)]:
            with symmetry_off() if not reduced else contextlib.nullcontext():
                real = realizability(spec.system, spec.init, spec.critical)
                surv = survivability(spec.system, spec.init, spec.critical)
                assert validate_lasso(spec.system, spec.critical, real.witness, dmax)
            assert (real.outcome, real.stats.states) == (HOLDS, real_states)
            assert surv.outcome == FAILS
            assert surv.stats.states == surv_states  # the critical-state search alone
            assert len(surv.counterexample.steps) == 10
            assert real.stats.symmetry == surv.stats.symmetry == ((("d1", "d2"),) if reduced else ())

    def test_survivability_needs_only_the_critical_state_search(self, spec):
        full = survivability(spec.system, spec.init, spec.critical)
        small = survivability(
            spec.system, spec.init, spec.critical, SearchBudget(max_states=1000)
        )
        assert small.outcome == full.outcome == FAILS
        assert small.counterexample == full.counterexample
        assert small.critical_pair == full.critical_pair

    def test_critical_state_search_stops_at_the_state_budget(self, spec):
        # Checked for every key, as in the depth-first search, not once
        # per breadth-first layer.
        v = survivability(
            spec.system, spec.init, spec.critical, SearchBudget(max_states=50)
        )
        assert (v.outcome, v.stats.states) == (UNKNOWN, 51)
        assert v.note == "state budget exhausted"

    def test_spent_time_budget_is_named(self, spec):
        budget = SearchBudget(max_seconds=0.0)
        for procedure in (realizability, survivability):
            v = procedure(spec.system, spec.init, spec.critical, budget)
            assert (v.outcome, v.note) == (UNKNOWN, "time budget exhausted")

    def test_match_attempts_per_enabled_call(self, spec, monkeypatch):
        # Deterministic guard on the rule index: the plain scan made one
        # match_rule call per rule (208) in every enabled call.
        import tmsr.rules
        import tmsr.search

        calls = {"enabled": 0, "match_rule": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(tmsr.search, "enabled", counting("enabled", tmsr.search.enabled))
        monkeypatch.setattr(
            tmsr.rules, "match_rule", counting("match_rule", tmsr.rules.match_rule)
        )
        small = gen_drone(DroneParams(drones=2, recency=4, strategy="free"))
        assert len(small.system.rules) == 208
        realizability(small.system, small.init, small.critical)
        assert calls["enabled"] > 100
        assert calls["match_rule"] <= 10 * calls["enabled"]


# The Baseline rungs of the roadmap that the unbounded modes can run.
BASELINE_RUNGS = {
    "greedy r8": DroneParams(recency=8),
    "greedy d2 r8": DroneParams(drones=2, recency=8),
    "free d2 r8": DroneParams(drones=2, recency=8, strategy="free"),
    "free 3x3 two points": DroneParams(
        strategy="free", points=((0, 2), (2, 0)), recency=10, energy_cap=8
    ),
    "free d3 r8": DroneParams(drones=3, recency=8, strategy="free"),
}


def assert_reduction_agrees(sysm, init, cs):
    """Reduced and unreduced runs of both unbounded modes give the same
    outcome and counterexample length, the reduced one in no more states,
    and every artifact of both replays. Returns whether the spec has
    interchangeable constants."""
    dmax = compute_dmax(sysm, init, cs)
    for decide in (realizability, survivability):
        reduced = decide(sysm, init, cs)
        with symmetry_off():
            full = decide(sysm, init, cs)
        assert reduced.outcome == full.outcome
        assert reduced.stats.states <= full.stats.states
        assert (reduced.counterexample is None) == (full.counterexample is None)
        for v in (reduced, full):
            if v.counterexample is not None:
                assert len(v.counterexample.steps) == len(full.counterexample.steps)
                assert validate_trace(sysm, cs, v.counterexample, expect_critical_end=True)
            if v.witness is not None:
                assert validate_lasso(sysm, cs, v.witness, dmax)
    return bool(reduced.stats.symmetry)


class TestSymmetryReduction:
    """Keying the unbounded searches on orbits of interchangeable
    constants changes state counts only."""

    @pytest.mark.parametrize("params", BASELINE_RUNGS.values(), ids=BASELINE_RUNGS.keys())
    def test_baseline_rungs(self, params):
        spec = gen_drone(params)
        reduced = assert_reduction_agrees(spec.system, spec.init, spec.critical)
        assert reduced == (params.drones > 1)

    @pytest.mark.parametrize("seed, count", [(300, 300), (0xB151, 200)], ids=["random", "criterion-4"])
    def test_random_progressive_systems(self, seed, count):
        rng = random.Random(seed)
        reduced = sum(
            assert_reduction_agrees(*random_progressive_system(rng)) for _ in range(count)
        )
        assert reduced >= 5


class TestRenamedCycles:
    """A reduced lasso may close on a renamed copy of a configuration on
    the stack; replay accepts it only when the spec makes the renaming a
    symmetry."""

    def test_half_loop_lasso_replays(self):
        spec = parse_spec(turn_taking_spec())
        v = realizability(spec.system, spec.init, spec.critical)
        assert v.outcome == HOLDS and v.stats.symmetry == (("a", "b"),)
        cycle = v.witness.cycle
        assert [st.label for st in cycle.steps] == ["pass-a", TICK_LABEL]
        assert cycle.init != cycle.final  # Turn(a) at the start, Turn(b) at the end
        dmax = compute_dmax(spec.system, spec.init, spec.critical)
        assert validate_lasso(spec.system, spec.critical, v.witness, dmax)
        with symmetry_off():
            assert not validate_lasso(spec.system, spec.critical, v.witness, dmax)
            full = realizability(spec.system, spec.init, spec.critical)
        assert [st.label for st in full.witness.cycle.steps] == ["pass-a", TICK_LABEL, "pass-b", TICK_LABEL]

    @staticmethod
    def half_loop(init):
        """Pass the turn from a to b, then advance the clock: the ends
        differ by swapping a and b."""
        turn_b, time = Fact("Turn", (Const("b"),)), Fact("Time")
        passed = Configuration((ts(time, 0), ts(turn_b, 1)))
        ticked = Configuration((ts(time, 1), ts(turn_b, 1)))
        steps = (
            TraceStep("pass-a", Substitution.of({"T": 0, "T1": 0}, {}), passed),
            TraceStep(TICK_LABEL, None, ticked),
        )
        return Lasso(Trace(init), Trace(init, steps))

    @pytest.mark.parametrize("back_offset, symmetric", [(1, True), (2, False)])
    def test_swapped_ends_replay_only_under_a_symmetry(self, back_offset, symmetric):
        # With the pass back taking two clock advances the tokens are not
        # interchangeable, and the same steps do not close a cycle.
        spec = parse_spec(turn_taking_spec(back_offset))
        lasso = self.half_loop(spec.init)
        assert validate_trace(spec.system, spec.critical, lasso.cycle)
        dmax = compute_dmax(spec.system, spec.init, spec.critical)
        result = validate_lasso(spec.system, spec.critical, lasso, dmax)
        assert result.ok == symmetric
        if not symmetric:
            assert result.message == "cycle endpoints are not equivalent"
        v = realizability(spec.system, spec.init, spec.critical)
        assert v.stats.symmetry == ((("a", "b"),) if symmetric else ())
        assert validate_lasso(spec.system, spec.critical, v.witness, dmax)
