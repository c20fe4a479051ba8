"""Acceptance suite: one test per shipped guarantee, one printed verdict
line each (run with -s to watch them)."""

import itertools
import random
import time

from support import (
    all_small_cnfs,
    brute_force_sat,
    machine_runs_forever,
    oracle_graph,
    oracle_verdicts,
    random_progressive_system,
)

from tmsr import (
    CriticalPair,
    CriticalSpec,
    FAILS,
    Fact,
    HOLDS,
    Rule,
    RuleSides,
    RulePattern,
    TimeConstraint,
    abstract,
    bounded_realizability,
    bounded_survivability,
    check_balanced,
    check_progressive,
    compute_dmax,
    count_bound,
    invariant_counters,
    is_critical,
    lazy_successors,
    make_system,
    realizability,
    survivability,
    validate_lasso,
    validate_trace,
)
from tmsr.rules import GREATER
from tmsr.scenarios import Cnf3, DroneParams, TmSpec, gen_3sat, gen_drone, gen_tm
from tmsr.terms import Const, TIME


def report(criterion, text):
    print(f"criterion {criterion}: PASS ({text})")


def figure_rules_spec():
    return gen_drone(
        DroneParams(strategy="free", wind=((1, 1, "north"),))
    )


def example_two_spec(points, bound):
    pairs = []
    for i, cell in enumerate(points):
        pairs.append(
            CriticalPair(
                f"stale-p{i+1}",
                (
                    RulePattern(Fact("P", (Const(f"p{i+1}"), cell[0], cell[1])), "Tp"),
                    RulePattern(Fact(TIME), "T"),
                ),
                (TimeConstraint(GREATER, "T", "Tp", bound),),
            )
        )
    return CriticalSpec(tuple(pairs))


def test_criterion_1_classifier_fidelity():
    started = time.monotonic()
    spec = figure_rules_spec()
    assert check_balanced(spec.system) == []
    assert check_progressive(spec.system) == []

    mutations = 0
    for rule in spec.system.rules:
        for drop in range(len(rule.created)):
            mutated = Rule(
                rule.name,
                RuleSides(
                    rule.time_var,
                    rule.preserved,
                    rule.consumed,
                    rule.created[:drop] + rule.created[drop + 1 :],
                ),
                rule.guard,
            )
            offenders = check_balanced(
                make_system(spec.system.signature, [mutated])
            )
            assert offenders == [rule.name]
            mutations += 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"classifier sweep took {elapsed:.2f}s"
    report(
        1,
        f"{len(spec.system.rules)} rules classified, {mutations} mutations "
        f"all flagged, {elapsed:.2f}s",
    )


def test_criterion_2_dmax_fidelity():
    spec = figure_rules_spec()
    bare = compute_dmax(spec.system, spec.init, CriticalSpec())
    assert bare == 1
    with_stale = compute_dmax(
        spec.system, spec.init, example_two_spec(((0, 1),), 50)
    )
    assert with_stale == 50
    report(2, "rules alone give 1, adding the recency-50 spec gives 50")


def test_criterion_3_counting_bound():
    assert count_bound(2, 2, 1, 2, 1) == 78732
    checked = 0
    for m, k, dmax, j, e in itertools.product((1, 2, 3), repeat=5):
        base = count_bound(m, k, dmax, j, e)
        assert count_bound(m + 1, k, dmax, j, e) >= base
        assert count_bound(m, k + 1, dmax, j, e) >= base
        assert count_bound(m, k, dmax + 1, j, e) >= base
        assert count_bound(m, k, dmax, j + 1, e) >= base
        assert count_bound(m, k, dmax, j, e + 1) >= base
        checked += 1
    report(3, f"exact value 78732, monotone on a grid of {checked} points")


def test_criterion_4_bisimulation_oracle():
    started = time.monotonic()
    rng = random.Random(0xB151)
    systems = 0
    while systems < 200:
        sysm, init, cs = random_progressive_system(rng)
        dmax = compute_dmax(sysm, init, cs)
        assert dmax <= 2

        want_real, want_surv = oracle_verdicts(sysm, init, cs, dmax)
        got_real = realizability(sysm, init, cs).outcome
        got_surv = survivability(sysm, init, cs).outcome
        assert got_real == (HOLDS if want_real else FAILS)
        assert got_surv == (HOLDS if want_surv else FAILS)

        # The normal members reached through the search's key must be the
        # oracle's hand-normalized states, criticality verdicts included.
        start, graph, critical = oracle_graph(sysm, init, cs, dmax)
        frontier = [abstract(init, dmax)]
        reach = {frontier[0]: is_critical(cs, frontier[0]) is not None}
        while frontier:
            c = frontier.pop()
            if reach[c]:
                continue
            for _, _, child in lazy_successors(sysm, c):
                child = abstract(child, dmax)
                if child not in reach:
                    reach[child] = is_critical(cs, child) is not None
                    frontier.append(child)
        assert reach == critical

        systems += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"bisimulation sweep took {elapsed:.0f}s"
    report(4, f"{systems} random systems, verdicts and state sets agree, {elapsed:.1f}s")


def test_criterion_5_instantaneous_run_bound():
    # Violations raise inside the searchers; a nonzero counter would mean
    # some run tripped the strict m-fact bound between clock advances.
    spec = gen_drone(DroneParams(recency=4))
    bounded_survivability(spec.system, spec.init, spec.critical, 16)
    sat = gen_3sat(Cnf3(3, ((1, -2, 3), (-1, 2, -3), (3, 3, 3))))
    bounded_realizability(sat.system, sat.init, sat.critical, 3)
    assert invariant_counters["instantaneous_run"] == 0
    report(5, "no run between clock advances ever reached the fact count")


def test_criterion_6_bounded_depth_cap():
    verdicts = []
    for M in (2, 6):
        spec = gen_drone(DroneParams(recency=M))
        verdicts.append(
            bounded_survivability(spec.system, spec.init, spec.critical, 4 * M)
        )
    sat = gen_3sat(Cnf3(2, ((1, 2, 2), (-1, -2, -2))))
    verdicts.append(bounded_realizability(sat.system, sat.init, sat.critical, 2))
    for v in verdicts:
        assert v.stats.depth_cap is not None
        assert v.stats.max_depth <= v.stats.depth_cap
    assert invariant_counters["bounded_depth"] == 0
    report(
        6,
        "depth stayed under (n+2)m+n in every bounded search "
        f"(max {max(v.stats.max_depth for v in verdicts)})",
    )


def test_criterion_7_sat_oracle_equivalence():
    started = time.monotonic()
    total = 0
    for clauses in all_small_cnfs(max_vars=3, max_clauses=3):
        p = max(abs(lit) for clause in clauses for lit in clause)
        spec = gen_3sat(Cnf3(p, tuple(clauses)))
        verdict = bounded_realizability(
            spec.system, spec.init, spec.critical, len(clauses)
        )
        expected = brute_force_sat(p, clauses)
        assert (verdict.outcome == HOLDS) == expected, clauses
        total += 1
    elapsed = time.monotonic() - started
    # The whole universe, so that time is never won by trimming the sweep.
    assert total == 32_508
    assert elapsed < 600, f"sat sweep took {elapsed:.0f}s"
    report(7, f"{total} formulas agree with brute-force satisfiability, {elapsed:.0f}s")


def tm_family():
    actions1 = [
        (q2, s2, mv)
        for q2 in ("q0", "qa")
        for s2 in ("0", "1")
        for mv in ("L", "R", "N")
    ]
    for a0 in actions1:
        for a1 in actions1:
            yield TmSpec(
                states=("q0", "qa"),
                final_states=frozenset(("qa",)),
                alphabet=("0", "1"),
                instructions={("q0", "0"): a0, ("q0", "1"): a1},
                space=2,
                input_word=("0", "0"),
            )
    rng = random.Random(7)
    actions2 = [
        (q2, s2, mv)
        for q2 in ("q0", "q1", "qa")
        for s2 in ("0", "1")
        for mv in ("L", "R", "N")
    ]
    for _ in range(60):
        instructions = {
            (q, s): rng.choice(actions2) for q in ("q0", "q1") for s in ("0", "1")
        }
        yield TmSpec(
            states=("q0", "q1", "qa"),
            final_states=frozenset(("qa",)),
            alphabet=("0", "1"),
            instructions=instructions,
            space=2,
            input_word=("0", "1"),
        )


def test_criterion_8_tm_oracle_equivalence():
    total = 0
    for machine in tm_family():
        spec = gen_tm(machine)
        verdict = realizability(spec.system, spec.init, spec.critical)
        assert (verdict.outcome == HOLDS) == machine_runs_forever(machine), (
            machine.instructions
        )
        total += 1
    report(8, f"{total} machines agree with direct simulation")


def test_criterion_9_surveillance_trend():
    outcomes = {}
    for M in (2, 6, 7, 8):
        started = time.monotonic()
        spec = gen_drone(DroneParams(recency=M))
        verdict = bounded_survivability(
            spec.system, spec.init, spec.critical, 4 * M
        )
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"M={M} took {elapsed:.0f}s"
        outcomes[M] = verdict.outcome
    assert outcomes[2] == FAILS
    assert outcomes[6] == outcomes[7] == outcomes[8] == HOLDS
    report(9, "recency 2 fails, 6 and above hold (tick budget 4M)")


def test_criterion_10_witness_certification():
    validated = 0

    def certify(sysm, init, cs, verdict, expected_ticks=None):
        nonlocal validated
        if verdict.counterexample is not None:
            assert validate_trace(
                sysm, cs, verdict.counterexample, expect_critical_end=True
            ), verdict
            validated += 1
        witness = verdict.witness
        if witness is None:
            return
        if hasattr(witness, "cycle"):
            dmax = compute_dmax(sysm, init, cs)
            assert validate_lasso(sysm, cs, witness, dmax), verdict
        else:
            assert validate_trace(sysm, cs, witness, expected_ticks=expected_ticks)
        validated += 1

    for M in (2, 6):
        spec = gen_drone(DroneParams(recency=M))
        v = bounded_survivability(spec.system, spec.init, spec.critical, 4 * M)
        certify(
            spec.system, spec.init, spec.critical, v,
            expected_ticks=4 * M if v.outcome == HOLDS else None,
        )

    base_point = gen_drone(DroneParams(points=((1, 1),), recency=2, energy_cap=2))
    certify(
        base_point.system,
        base_point.init,
        base_point.critical,
        survivability(base_point.system, base_point.init, base_point.critical),
    )

    for clauses in (((1, 1, 1),), ((1, 1, 1), (-1, -1, -1)), ((1, -2, 3), (2, 2, 2))):
        p = max(abs(lit) for c in clauses for lit in c)
        sat = gen_3sat(Cnf3(p, clauses))
        v = bounded_realizability(sat.system, sat.init, sat.critical, len(clauses))
        certify(
            sat.system, sat.init, sat.critical, v,
            expected_ticks=len(clauses) if v.outcome == HOLDS else None,
        )
        v = bounded_survivability(sat.system, sat.init, sat.critical, len(clauses))
        certify(sat.system, sat.init, sat.critical, v)

    loop = TmSpec(
        states=("q0", "qa"), final_states=frozenset(("qa",)), alphabet=("0", "1"),
        instructions={("q0", "0"): ("q0", "0", "N"), ("q0", "1"): ("q0", "1", "N")},
        space=2, input_word=("0", "0"),
    )
    tm = gen_tm(loop)
    certify(
        tm.system, tm.init, tm.critical,
        realizability(tm.system, tm.init, tm.critical),
    )

    rng = random.Random(90210)
    for _ in range(40):
        sysm, init, cs = random_progressive_system(rng)
        certify(sysm, init, cs, realizability(sysm, init, cs))
        certify(sysm, init, cs, survivability(sysm, init, cs))

    assert validated >= 50
    report(10, f"{validated} witnesses and counterexamples certified by replay")
