import random

import pytest

from support import (
    brute_force_matches,
    random_progressive_system,
    reference_enabled,
    reference_is_critical,
    reference_match_rule,
    reference_must_tick,
    reference_rewrite,
)

from tmsr import (
    App,
    Configuration,
    Const,
    CreatedFact,
    CriticalPair,
    CriticalSpec,
    Fact,
    FactSizeError,
    Rule,
    RuleError,
    RulePattern,
    Substitution,
    TimeConstraint,
    TimestampedFact,
    UnboundVariableError,
    Var,
    apply_rule,
    check_balanced,
    check_progressive,
    compute_dmax,
    enabled,
    expand_critical_pair,
    expand_rule,
    is_critical,
    make_signature,
    make_system,
    match_rule,
    must_tick,
    rewrite,
    tick,
)
from tmsr.rules import GE, GREATER, EQUAL, _candidates
from tmsr.scenarios import Cnf3, DroneParams, TmSpec, gen_3sat, gen_drone, gen_tm
from tmsr.search import bounded_survivability, lazy_successors


def ts(fact, t):
    return TimestampedFact(fact, t)


def drone_sig():
    return make_signature(
        ("Id",), {"Dr": ("Id", "Nat", "Nat", "Nat"), "P": ("Id", "Nat", "Nat")},
        {}, {"d1": "Id", "d2": "Id", "p1": "Id"},
    )


def guard_rule(rel, offset):
    (r,) = expand_rule(
        "g", "T", [], [RulePattern(Fact("F"), "T1")], [CreatedFact(Fact("F"), 1)],
        [TimeConstraint(rel, "T", "T1", offset)],
    )
    return r


def guard_accepts(r, clock, t1):
    """Whether r applies with T = clock and T1 = t1; matching and
    apply_rule must agree on it."""
    c = Configuration((ts(Fact("Time"), clock), ts(Fact("F"), t1)))
    s = Substitution.of({"T": clock, "T1": t1}, {})
    matched = match_rule(r, c) == [s]
    try:
        apply_rule(r, c, s)
        applied = True
    except RuleError:
        applied = False
    assert matched == applied
    return applied


class TestEvalConstraint:
    def test_offset_fifty(self):
        r = guard_rule(GREATER, 50)
        assert guard_accepts(r, 60, 3) is True
        assert guard_accepts(r, 53, 3) is False

    def test_equality_zero_offset(self):
        r = guard_rule(EQUAL, 0)
        assert guard_accepts(r, 4, 4) is True
        assert guard_accepts(r, 5, 4) is False

    def test_negative_offset(self):
        assert guard_accepts(guard_rule(GREATER, -1), 0, 0) is True

    def test_unmapped_variable(self):
        r = guard_rule(GREATER, 0)
        c = Configuration((ts(Fact("Time"), 1), ts(Fact("F"), 0)))
        with pytest.raises(UnboundVariableError):
            apply_rule(r, c, Substitution.of({"T": 1}, {}))


class TestMatchRule:
    def test_clock_only_pattern_binds_global_time(self):
        (probe,) = expand_rule("probe", "T", [], [], [CreatedFact(Fact("Dr", (Const("d1"), 0, 0, 0)), 1)], [])
        sig = drone_sig()
        config = Configuration(
            (ts(Fact("Time"), 4), ts(Fact("Dr", (Const("d1"), 1, 2, 10)), 4))
        )
        matches = match_rule(probe, config)
        assert len(matches) == 1
        assert matches[0].time("T") == 4

    def test_no_drone_at_base_no_match(self):
        sig = drone_sig()
        (charge,) = expand_rule(
            "charge", "T", [],
            [RulePattern(Fact("Dr", (Var("Id", "Id"), 1, 1, Var("E", "Nat"))), "T")],
            [CreatedFact(Fact("Dr", (Var("Id", "Id"), 1, 1, App("s", (Var("E", "Nat"),)))), 1)],
            [],
        )
        config = Configuration(
            (ts(Fact("Time"), 2), ts(Fact("Dr", (Const("d1"), 0, 2, 3)), 2))
        )
        assert match_rule(charge, config) == []

    def test_click_style_rule_single_match_vs_brute_force(self):
        (click,) = expand_rule(
            "click", "T",
            [],
            [
                RulePattern(Fact("P", (Const("p1"), Var("X", "Nat"), Var("Y", "Nat"))), "T1"),
                RulePattern(Fact("Dr", (Var("Id", "Id"), Var("X", "Nat"), Var("Y", "Nat"), Var("E", "Nat"))), "T"),
            ],
            [
                CreatedFact(Fact("P", (Const("p1"), Var("X", "Nat"), Var("Y", "Nat"))), 0),
                CreatedFact(Fact("Dr", (Var("Id", "Id"), Var("X", "Nat"), Var("Y", "Nat"), Var("E", "Nat"))), 1),
            ],
            [],
        )
        config = Configuration(
            (
                ts(Fact("Time"), 3),
                ts(Fact("P", (Const("p1"), 2, 2)), 1),
                ts(Fact("Dr", (Const("d1"), 2, 2, 5)), 3),
            )
        )
        got = match_rule(click, config)
        assert len(got) == 1
        assert set(got) == brute_force_matches(click, config)

    def test_same_pattern_twice_needs_two_occurrences(self):
        (pair_rule,) = expand_rule(
            "pair", "T", [],
            [RulePattern(Fact("F"), "T1"), RulePattern(Fact("F"), "T2")],
            [CreatedFact(Fact("F"), 1), CreatedFact(Fact("F"), 1)],
            [],
        )
        sig = make_signature((), {"F": ()}, {}, {})
        one = Configuration((ts(Fact("Time"), 1), ts(Fact("F"), 0)))
        two = Configuration((ts(Fact("Time"), 1), ts(Fact("F"), 0), ts(Fact("F"), 1)))
        assert match_rule(pair_rule, one) == []
        assert len(match_rule(pair_rule, two)) == 2  # both orientations

    def test_sound_and_complete_on_random_systems(self):
        rng = random.Random(404)
        checked = 0
        for _ in range(120):
            sysm, init, _ = random_progressive_system(rng)
            config = init
            for _ in range(rng.randint(0, 3)):
                pairs = enabled(sysm, config)
                if not pairs:
                    config = tick(config)
                else:
                    r, s = pairs[rng.randrange(len(pairs))]
                    config = apply_rule(r, config, s, sysm.max_fact_size)
            if len(config) > 5:
                continue
            for rule in sysm.rules:
                got = match_rule(rule, config)
                assert len(set(got)) == len(got)
                assert set(got) == brute_force_matches(rule, config)
                for s in got:
                    for tv in rule.past_bounds:
                        assert s.time(tv) <= config.time
                checked += 1
        assert checked > 100


class TestApplyRule:
    def test_clock_advance_leaves_other_facts(self):
        c = Configuration((ts(Fact("Time"), 4), ts(Fact("F"), 2)))
        assert tick(c) == Configuration((ts(Fact("Time"), 5), ts(Fact("F"), 2)))

    def test_move_north_with_successor_pattern(self):
        (move,) = expand_rule(
            "move-n", "T", [],
            [RulePattern(Fact("Dr", (Var("Id", "Id"), Var("X", "Nat"), Var("Y", "Nat"), App("s", (Var("E", "Nat"),)))), "T")],
            [CreatedFact(Fact("Dr", (Var("Id", "Id"), Var("X", "Nat"), App("s", (Var("Y", "Nat"),)), Var("E", "Nat"))), 1)],
            [],
        )
        config = Configuration(
            (ts(Fact("Time"), 3), ts(Fact("Dr", (Const("d1"), 0, 0, 1)), 3))
        )
        (s,) = match_rule(move, config)
        out = apply_rule(move, config, s)
        assert ts(Fact("Dr", (Const("d1"), 0, 1, 0)), 4) in out.facts
        assert ts(Fact("Dr", (Const("d1"), 0, 0, 1)), 3) not in out.facts
        assert out.time == 3

    def test_balanced_rules_preserve_fact_count(self):
        rng = random.Random(77)
        for _ in range(60):
            sysm, init, _ = random_progressive_system(rng)
            config = init
            for _ in range(6):
                pairs = enabled(sysm, config)
                if not pairs:
                    config = tick(config)
                else:
                    r, s = pairs[0]
                    nxt = apply_rule(r, config, s, sysm.max_fact_size)
                    assert len(nxt) == len(config)
                    config = nxt

    def test_precondition_violation_raises(self):
        (move,) = expand_rule(
            "eat", "T", [],
            [RulePattern(Fact("F"), "T1")],
            [CreatedFact(Fact("F"), 1)],
            [],
        )
        with_f = Configuration((ts(Fact("Time"), 1), ts(Fact("F"), 0)))
        (s,) = match_rule(move, with_f)
        without_f = Configuration((ts(Fact("Time"), 1), ts(Fact("G"), 0)))
        with pytest.raises(RuleError):
            apply_rule(move, without_f, s)

    def test_oversized_created_fact_aborts(self):
        (grow,) = expand_rule(
            "grow", "T", [],
            [RulePattern(Fact("N", (Var("K", "Nat"),)), "T1")],
            [CreatedFact(Fact("N", (App("s", (Var("K", "Nat"),)),)), 1)],
            [],
        )
        config = Configuration((ts(Fact("Time"), 0), ts(Fact("N", (3,)), 0)))
        (s,) = match_rule(grow, config)
        with pytest.raises(FactSizeError):
            apply_rule(grow, config, s, max_fact_size=5)
        assert apply_rule(grow, config, s, max_fact_size=6).time == 0


class TestEnabledAndMustTick:
    def test_clock_only_when_nothing_applies(self):
        sig = make_signature((), {"F": ()}, {}, {})
        (r,) = expand_rule("eat", "T", [], [RulePattern(Fact("F"), "T1")], [CreatedFact(Fact("F"), 1)], [])
        sysm = make_system(sig, [r])
        no_f = Configuration((ts(Fact("Time"), 0), ts(Fact("G"), 0)))
        assert enabled(sysm, no_f) == []
        assert must_tick(sysm, no_f) is True

    def test_charge_instance_listed_for_drained_drone_at_base(self):
        spec = gen_drone(DroneParams(strategy="free"))
        config = Configuration(
            (
                ts(Fact("Time"), 0),
                ts(Fact("P", (Const("p1"), 0, 1)), 0),
                ts(Fact("Dr", (Const("d1"), 1, 1, 2)), 0),
            )
        )
        names = {r.name for r, _ in enabled(spec.system, config)}
        assert "charge-d1-e2" in names

    def test_two_cornered_drones_one_move_each(self):
        # 1-wide corridor: the drone at the bottom can only move north,
        # the one at the top only south.
        spec = gen_drone(
            DroneParams(
                strategy="free", drones=2, points=((0, 1),), base=(0, 1),
                x_max=0, y_max=2, energy_cap=1,
            )
        )
        config = Configuration(
            (
                ts(Fact("Time"), 0),
                ts(Fact("P", (Const("p1"), 0, 1)), 0),
                ts(Fact("Dr", (Const("d1"), 0, 0, 1)), 0),
                ts(Fact("Dr", (Const("d2"), 0, 2, 1)), 0),
            )
        )
        pairs = enabled(spec.system, config)
        assert len(pairs) == 2
        names = {r.name for r, _ in pairs}
        assert names == {"move-north-d1-0-0-e1", "move-south-d2-0-2-e1"}

    def test_coherence_on_random_configurations(self):
        rng = random.Random(31337)
        for _ in range(80):
            sysm, init, _ = random_progressive_system(rng)
            config = init
            for _ in range(4):
                assert must_tick(sysm, config) == (enabled(sysm, config) == [])
                pairs = enabled(sysm, config)
                if pairs:
                    r, s = pairs[-1]
                    config = apply_rule(r, config, s, sysm.max_fact_size)
                else:
                    config = tick(config)

    def test_sat_initial_configuration_assigns_before_ticking(self):
        spec = gen_3sat(Cnf3(2, ((1, -2, 1),)))
        assert must_tick(spec.system, spec.init) is False

    def test_deterministic_enumeration(self):
        spec = gen_drone(DroneParams(strategy="free"))
        a = [(r.name, s) for r, s in enabled(spec.system, spec.init)]
        b = [(r.name, s) for r, s in enabled(spec.system, spec.init)]
        assert a == b


class TestCompiledMatchingAgreesWithReferenceScan:
    """enabled, must_tick and is_critical return exactly the lists of the
    reference scan (every rule in declaration order through the plain
    backtracking matcher), order included."""

    @staticmethod
    def assert_agree(sysm, cs, config):
        # Successors are built without the constructor's sort and checks;
        # the public constructor must find them canonical already.
        assert Configuration(config.facts).facts == config.facts
        assert enabled(sysm, config) == reference_enabled(sysm, config)
        assert must_tick(sysm, config) == reference_must_tick(sysm, config)
        assert is_critical(cs, config) == reference_is_critical(cs, config)

    def test_random_progressive_configurations(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(50):
            sysm, init, cs = random_progressive_system(rng)
            config = init
            for _ in range(rng.randint(2, 5)):
                self.assert_agree(sysm, cs, config)
                checked += 1
                pairs = enabled(sysm, config)
                if pairs:
                    r, s = pairs[rng.randrange(len(pairs))]
                    config = apply_rule(r, config, s, sysm.max_fact_size)
                else:
                    config = tick(config)
        assert checked >= 100

    @pytest.mark.parametrize("strategy", ["free", "greedy"])
    def test_drone_walks(self, strategy):
        spec = gen_drone(DroneParams(drones=2, recency=4, strategy=strategy))
        rng = random.Random(7)
        config = spec.init
        for _ in range(40):
            self.assert_agree(spec.system, spec.critical, config)
            pairs = enabled(spec.system, config)
            if pairs:
                r, s = pairs[rng.randrange(len(pairs))]
                config = apply_rule(r, config, s, spec.system.max_fact_size)
            else:
                config = tick(config)

    def test_successor_pattern_against_int(self):
        sig = make_signature((), {"N": ("Nat",), "M": ("Nat",)}, {}, {})
        e = Var("E", "Nat")
        (dec,) = expand_rule(
            "dec", "T", [], [RulePattern(Fact("N", (App("s", (e,)),)), "T1")],
            [CreatedFact(Fact("N", (e,)), 1)], [],
        )
        # s(2) is ground but not in normal form; it still matches 3.
        (three,) = expand_rule(
            "three", "T", [], [RulePattern(Fact("N", (App("s", (2,)),)), "T1")],
            [CreatedFact(Fact("M", (0,)), 1)], [],
        )
        (zero,) = expand_rule(
            "zero", "T", [], [RulePattern(Fact("N", (0,)), "T1")],
            [CreatedFact(Fact("M", (0,)), 1)], [],
        )
        sysm = make_system(sig, [dec, three, zero])
        for n in (0, 1, 3):
            config = Configuration((ts(Fact("Time"), 2), ts(Fact("N", (n,)), 1)))
            got = enabled(sysm, config)
            assert got == reference_enabled(sysm, config)
            assert [r.name for r, _ in got] == {
                0: ["zero"], 1: ["dec"], 3: ["dec", "three"]
            }[n]
        config = Configuration((ts(Fact("Time"), 2), ts(Fact("N", (3,)), 1)))
        (s,) = match_rule(dec, config)
        assert dict(s.terms)[e] == 2

    def test_duplicate_facts_form_a_multiset(self):
        sig = make_signature((), {"F": (), "G": ()}, {}, {})
        (pair_rule,) = expand_rule(
            "pair", "T", [],
            [RulePattern(Fact("F"), "T1"), RulePattern(Fact("F"), "T2")],
            [CreatedFact(Fact("G"), 1), CreatedFact(Fact("G"), 1)],
            [],
        )
        (single,) = expand_rule(
            "single", "T", [], [RulePattern(Fact("F"), "T1")],
            [CreatedFact(Fact("G"), 1)], [],
        )
        sysm = make_system(sig, [pair_rule, single])
        cs = CriticalSpec(
            (CriticalPair("two", (RulePattern(Fact("F"), "A"), RulePattern(Fact("F"), "B")), ()),)
        )
        one = Configuration((ts(Fact("Time"), 1), ts(Fact("F"), 0)))
        same = Configuration((ts(Fact("Time"), 1), ts(Fact("F"), 0), ts(Fact("F"), 0)))
        apart = Configuration((ts(Fact("Time"), 1), ts(Fact("F"), 0), ts(Fact("F"), 1)))
        for config in (one, same, apart):
            self.assert_agree(sysm, cs, config)
        assert [r.name for r, _ in enabled(sysm, one)] == ["single"]
        # Two equal occurrences give one substitution per rule.
        assert [r.name for r, _ in enabled(sysm, same)] == ["pair", "single"]
        assert [r.name for r, _ in enabled(sysm, apart)] == ["pair", "pair", "single", "single"]
        assert is_critical(cs, one) is None and is_critical(cs, same) is not None
        _, (rule, s) = enabled(sysm, same)
        after = apply_rule(rule, same, s)
        assert after.facts.count(ts(Fact("F"), 0)) == 1

    def test_ground_arguments_among_variables(self):
        # Dr(Id,X,Y,0) keeps only the drained drones before any binding;
        # the order of the matches must still be the plain scan's.
        ident, x, y, e = Var("Id", "Id"), Var("X", "Nat"), Var("Y", "Nat"), Var("E", "Nat")
        d1, d2, d3 = Const("d1"), Const("d2"), Const("d3")
        drained = Fact("Dr", (ident, x, y, 0))
        sig = make_signature(
            ("Id",), {"Dr": ("Id", "Nat", "Nat", "Nat"), "At": ("Id", "Nat")},
            {}, {"d1": "Id", "d2": "Id", "d3": "Id"},
        )
        (pair_rule,) = expand_rule(
            "pair", "T", [RulePattern(drained, "T1")],
            [RulePattern(Fact("Dr", (d2, x, 1, e)), "T2")],
            [CreatedFact(Fact("Dr", (d2, x, 1, e)), 1)], [],
        )
        (at_rule,) = expand_rule(
            "at", "T", [RulePattern(Fact("At", (ident, 0)), "T1")],
            [RulePattern(Fact("Dr", (ident, 0, y, e)), "T2")],
            [CreatedFact(Fact("Dr", (ident, 0, y, e)), 1)], [],
        )
        sysm = make_system(sig, [pair_rule, at_rule])
        cs = CriticalSpec(
            expand_critical_pair("drained", [RulePattern(drained, "T")])
            + expand_critical_pair(
                "two", [RulePattern(drained, "A"), RulePattern(Fact("Dr", (d3, x, y, 0)), "B")]
            )
        )
        configs = [
            Configuration((ts(Fact("Time"), 2), ts(Fact("Dr", (d1, 0, 1, 3)), 0))),
            Configuration((
                ts(Fact("Time"), 2),
                ts(Fact("Dr", (d1, 0, 1, 0)), 1),
                ts(Fact("Dr", (d2, 0, 1, 2)), 0),
                ts(Fact("Dr", (d3, 1, 1, 0)), 0),
                ts(Fact("Dr", (d3, 0, 1, 0)), 2),
                ts(Fact("At", (d1, 0)), 0),
                ts(Fact("At", (d3, 0)), 1),
                ts(Fact("At", (d2, 1)), 1),
            )),
        ]
        for config in configs:
            self.assert_agree(sysm, cs, config)
            for rule in sysm.rules:
                for first_only in (False, True):
                    assert match_rule(rule, config, first_only) == reference_match_rule(
                        rule, config, first_only
                    )
        assert [r.name for r, _ in enabled(sysm, configs[1])] == ["pair", "pair", "at", "at"]
        assert is_critical(cs, configs[0]) is None
        assert is_critical(cs, configs[1])[0] == 0

    def test_match_rule_agrees_with_reference(self):
        rng = random.Random(99)
        for _ in range(40):
            sysm, init, _ = random_progressive_system(rng)
            for rule in sysm.rules:
                for first_only in (False, True):
                    assert match_rule(rule, init, first_only) == reference_match_rule(
                        rule, init, first_only
                    )


class TestIsCritical:
    ENERGY_PAIR = CriticalPair(
        "drained",
        (RulePattern(Fact("Dr", (Var("Id", "Id"), Var("X", "Nat"), Var("Y", "Nat"), 0)), "T"),),
        (),
    )

    def test_zero_energy_matches(self):
        cs = CriticalSpec((self.ENERGY_PAIR,))
        config = Configuration(
            (ts(Fact("Time"), 7), ts(Fact("Dr", (Const("d1"), 3, 3, 0)), 7))
        )
        hit = is_critical(cs, config)
        assert hit is not None and hit[0] == 0

    @staticmethod
    def stale_spec(bound):
        return CriticalSpec(
            (
                CriticalPair(
                    "stale",
                    (
                        RulePattern(Fact("P", (Const("p1"), 1, 1)), "T1"),
                        RulePattern(Fact("Time"), "T"),
                    ),
                    (TimeConstraint(GREATER, "T", "T1", bound),),
                ),
            )
        )

    def test_recent_picture_not_critical(self):
        config = Configuration(
            (ts(Fact("Time"), 4), ts(Fact("P", (Const("p1"), 1, 1)), 3))
        )
        assert is_critical(self.stale_spec(50), config) is None

    def test_stale_picture_critical(self):
        config = Configuration(
            (ts(Fact("Time"), 60), ts(Fact("P", (Const("p1"), 1, 1)), 3))
        )
        hit = is_critical(self.stale_spec(50), config)
        assert hit is not None
        assert hit[1].time("T") == 60


class TestClassifier:
    def test_generated_click_rules_balanced(self):
        spec = gen_drone(DroneParams(strategy="free"))
        assert check_balanced(spec.system) == []

    def test_missing_created_fact_flips_verdict(self):
        spec = gen_drone(DroneParams(strategy="free"))
        rule = next(r for r in spec.system.rules if r.name.startswith("click"))
        from tmsr import Rule, RuleSides

        mutated = Rule(
            rule.name,
            RuleSides(rule.time_var, rule.preserved, rule.consumed, rule.created[:-1]),
            rule.guard,
        )
        broken = make_system(spec.system.signature, [mutated])
        assert check_balanced(broken) == [rule.name]

    def test_landing_rule_counts_three_each_side(self):
        sig = make_signature(
            ("Id",), {"Dr": ("Id", "Nat", "Nat"), "St": ("Id",)},
            {}, {"d1": "Id", "empty": "Id", "st": "Nat"},
        )
        (landing,) = expand_rule(
            "land", "T", [],
            [
                RulePattern(Fact("Dr", (Var("Id", "Id"), 1, 1)), "T"),
                RulePattern(Fact("St", (Const("empty"),)), "T1"),
            ],
            [
                CreatedFact(Fact("Dr", (Var("Id", "Id"), Const("st"), Const("st"))), 1),
                CreatedFact(Fact("St", (Var("Id", "Id"),)), 0),
            ],
            [],
        )
        assert check_balanced(make_system(sig, [landing])) == []
        # the station fact is consumed with no written constraint; the
        # past-only bound is still materialized
        assert "T1" in landing.past_bounds

    def test_every_generated_rule_progressive(self):
        spec = gen_drone(DroneParams(strategy="free", wind=((1, 1, "north"),)))
        assert check_progressive(spec.system) == []

    def test_present_only_creation_is_not_progressive(self):
        sig = make_signature((), {"F": ()}, {}, {})
        (r,) = expand_rule("now", "T", [], [RulePattern(Fact("F"), "T1")], [CreatedFact(Fact("F"), 0)], [])
        assert check_progressive(make_system(sig, [r])) == ["now"]

    def test_assignment_rule_progressive(self):
        spec = gen_3sat(Cnf3(1, ((1, 1, 1),)))
        assert "set1-true" in {r.name for r in spec.system.rules}
        assert check_progressive(spec.system) == []

    def test_unbalanced_system_rejected_by_progress_check(self):
        sig = make_signature((), {"F": ()}, {}, {})
        (r,) = expand_rule("dup", "T", [], [RulePattern(Fact("F"), "T1")],
                           [CreatedFact(Fact("F"), 1), CreatedFact(Fact("F"), 1)], [])
        with pytest.raises(RuleError):
            check_progressive(make_system(sig, [r]))

    @pytest.mark.parametrize(
        "preserved, consumed, created",
        [
            # Consumes the clock and creates one three units later: it
            # would move the clock in an instantaneous step.
            (
                [],
                [RulePattern(Fact("F"), "T1"), RulePattern(Fact("Time"), "T2")],
                [CreatedFact(Fact("F"), 1), CreatedFact(Fact("Time"), 3)],
            ),
            ([], [RulePattern(Fact("Time"), "T1")], [CreatedFact(Fact("F"), 1)]),
            ([], [RulePattern(Fact("F"), "T1")], [CreatedFact(Fact("Time"), 1)]),
            ([RulePattern(Fact("Time"), "T1")], [RulePattern(Fact("F"), "T2")], [CreatedFact(Fact("F"), 1)]),
        ],
        ids=["moves-the-clock", "consumes-the-clock", "creates-a-clock", "preserves-the-clock"],
    )
    def test_time_fact_in_the_sides_is_rejected(self, preserved, consumed, created):
        # The clock is read through the time variable only, as in a spec.
        with pytest.raises(RuleError, match="^rule 'clock': a Time fact is the clock"):
            expand_rule("clock", "T", preserved, consumed, created)


class TestComputeDmax:
    def test_ground_scenario_rules_alone(self):
        spec = gen_drone(DroneParams(strategy="free"))
        assert compute_dmax(spec.system, spec.init, CriticalSpec()) == 1

    def test_stale_spec_with_large_bound_dominates(self):
        spec = gen_drone(DroneParams(strategy="free"))
        cs = TestIsCritical.stale_spec(50)
        assert compute_dmax(spec.system, spec.init, cs) == 50

    def test_initial_timestamps_count(self):
        sig = make_signature((), {"F": ()}, {}, {})
        sysm = make_system(sig, [])
        init = Configuration((ts(Fact("Time"), 4), ts(Fact("F"), 0)))
        assert compute_dmax(sysm, init, CriticalSpec()) == 4

    def test_override_must_dominate_inferred(self):
        sig = make_signature((), {"F": ()}, {}, {})
        sysm = make_system(sig, [], dmax_override=2)
        init = Configuration((ts(Fact("Time"), 4),))
        with pytest.raises(RuleError):
            compute_dmax(sysm, init, CriticalSpec())
        roomy = make_system(sig, [], dmax_override=9)
        assert compute_dmax(roomy, init, CriticalSpec()) == 9


class TestGuardExpansion:
    def test_ge_on_preserved_fact_loads_two_rules(self):
        rules = expand_rule(
            "r", "T",
            [RulePattern(Fact("A"), "Ta")],
            [RulePattern(Fact("B"), "Tb")],
            [CreatedFact(Fact("B"), 1)],
            [TimeConstraint(GE, "T", "Ta", 0)],
        )
        assert len(rules) == 2
        assert {r.name for r in rules} == {"r"}
        assert {r.guard[0].rel for r in rules} == {GREATER, EQUAL}

    def test_ge_restating_past_bound_absorbed(self):
        rules = expand_rule(
            "r", "T", [],
            [RulePattern(Fact("B"), "Tb")],
            [CreatedFact(Fact("B"), 1)],
            [TimeConstraint(GE, "T", "Tb", 0)],
        )
        assert len(rules) == 1 and rules[0].guard == ()

    def test_reflexive_ge_dropped(self):
        rules = expand_rule(
            "r", "T", [], [RulePattern(Fact("B"), "Tb")],
            [CreatedFact(Fact("B"), 1)],
            [TimeConstraint(GE, "T", "T", 0)],
        )
        assert len(rules) == 1 and rules[0].guard == ()

    def test_critical_pair_expansion(self):
        pairs = expand_critical_pair(
            "c",
            [RulePattern(Fact("A"), "Ta"), RulePattern(Fact("Time"), "T")],
            [TimeConstraint(GE, "T", "Ta", 2)],
        )
        assert len(pairs) == 2

    def test_guard_variable_must_be_bound(self):
        with pytest.raises(RuleError):
            expand_rule(
                "r", "T", [], [RulePattern(Fact("B"), "Tb")],
                [CreatedFact(Fact("B"), 1)],
                [TimeConstraint(GREATER, "T", "Nope", 0)],
            )

    def test_pattern_size_bound_enforced(self):
        sig = make_signature((), {"N": ("Nat",)}, {}, {})
        (r,) = expand_rule("r", "T", [], [RulePattern(Fact("N", (9,)), "T1")], [CreatedFact(Fact("N", (9,)), 1)], [])
        with pytest.raises(RuleError):
            make_system(sig, [r], max_fact_size=5)


def _reached(sysm, init, ticks, limit):
    """Configurations reached from init within ``ticks`` clock advances,
    breadth-first, at most ``limit`` of them."""
    seen = {init}
    order = [init]
    for c in order:
        if len(order) >= limit:
            break
        if c.time - init.time >= ticks:
            continue
        for _, _, nxt in lazy_successors(sysm, c):
            if nxt not in seen and len(order) < limit:
                seen.add(nxt)
                order.append(nxt)
    return order


class TestRuleIndex:
    """The index keys are necessary conditions only: every rule that
    matches a reached configuration is a candidate, and enabled still
    equals the reference scan, order included. Every enabled pair
    rewrites to what the checked ``apply_rule`` and the reference rewrite
    give, in canonical order."""

    @staticmethod
    def assert_covered(sysm, config):
        candidates = set(_candidates(sysm, config, config.time))
        for i, rule in enumerate(sysm.rules):
            if match_rule(rule, config):
                assert i in candidates, (rule.name, config.text())
        pairs = enabled(sysm, config)
        assert pairs == reference_enabled(sysm, config)
        assert must_tick(sysm, config) == reference_must_tick(sysm, config)
        k = sysm.max_fact_size
        for rule, s in pairs:
            got = rewrite(rule, config, s, k)
            assert got == apply_rule(rule, config, s, k) == reference_rewrite(rule, config, s)
            assert Configuration(got.facts).facts == got.facts

    @pytest.mark.parametrize(
        "params",
        [
            DroneParams(drones=2, recency=4, strategy="free"),
            DroneParams(drones=2, recency=4, strategy="greedy"),
            DroneParams(strategy="free", wind=((1, 1, "north"), (0, 0, "east"))),
            DroneParams(single_slot_station=True, drones=2, recency=3),
        ],
        ids=["free", "greedy", "wind", "station"],
    )
    def test_drone_reach(self, params):
        spec = gen_drone(params)
        reached = _reached(spec.system, spec.init, 4 * params.recency, 150)
        assert len(reached) > 20
        for config in reached:
            self.assert_covered(spec.system, config)

    def test_sat_reach(self):
        for clauses in (((1, -2, 3), (-1, 2, 2)), ((1, 1, 1), (-1, -1, -1)), ((1, 2, -3),)):
            spec = gen_3sat(Cnf3(3, clauses))
            for config in _reached(spec.system, spec.init, 2, 200):
                self.assert_covered(spec.system, config)

    def test_tm_reach(self):
        machine = TmSpec(
            states=("q0", "q1", "qa"),
            final_states=frozenset(("qa",)),
            alphabet=("0", "1"),
            instructions={
                ("q0", "0"): ("q1", "1", "R"),
                ("q0", "1"): ("q0", "0", "L"),
                ("q1", "0"): ("q0", "1", "L"),
                ("q1", "1"): ("qa", "1", "N"),
            },
            space=2,
            input_word=("0", "1"),
        )
        spec = gen_tm(machine)
        reached = _reached(spec.system, spec.init, 12, 200)
        assert len(reached) > 10
        for config in reached:
            self.assert_covered(spec.system, config)

    def test_random_progressive_reach(self):
        rng = random.Random(4242)
        for _ in range(300):
            sysm, init, _ = random_progressive_system(rng)
            for config in _reached(sysm, init, 3, 30):
                self.assert_covered(sysm, config)

    def test_one_guard_object_over_two_clock_variables(self):
        # The index finds pinned ages once per guard object and clock
        # variable: T = U + 1 pins U at age 1 under the clock T, and T at
        # age -1 under the clock U. Rule "b" matches only at the latter.
        sig = make_signature((), {"P": (), "Q": (), "R": ()}, {}, {})
        guard = (TimeConstraint(EQUAL, "T", "U", 1),)
        (a,) = expand_rule("a", "T", [RulePattern(Fact("P"), "U")], [], [CreatedFact(Fact("R"), 1)])
        (b,) = expand_rule(
            "b", "U", [RulePattern(Fact("Q"), "T")], [RulePattern(Fact("R"), "U")],
            [CreatedFact(Fact("R"), 1)],
        )
        sysm = make_system(sig, [Rule(a.name, a.sides, guard), Rule(b.name, b.sides, guard)])
        config = Configuration(
            (TimestampedFact(Fact("Time"), 0), TimestampedFact(Fact("R"), 0),
             TimestampedFact(Fact("Q"), 1))
        )
        assert [r.name for r, _ in enabled(sysm, config)] == ["b"]
        self.assert_covered(sysm, config)

    def test_exact_age_keys_leave_no_failed_attempt_on_greedy(self, monkeypatch):
        # Every greedy rule is pinned by its drone fact at age 0 and its
        # picture fact at the age its guard names, so each candidate the
        # index leaves matches.
        import tmsr.rules

        calls = {"attempts": 0, "hits": 0}
        real = tmsr.rules.match_rule

        def counting(*args, **kwargs):
            got = real(*args, **kwargs)
            calls["attempts"] += 1
            calls["hits"] += bool(got)
            return got

        monkeypatch.setattr(tmsr.rules, "match_rule", counting)
        spec = gen_drone(DroneParams(drones=2, recency=9, strategy="greedy"))
        assert len(spec.system.rules) == 720
        v = bounded_survivability(spec.system, spec.init, spec.critical, spec.ticks)
        assert v.outcome == "holds"
        assert calls["attempts"] == calls["hits"] > 0

    def test_index_is_built_on_first_match(self):
        spec = gen_drone(DroneParams(recency=3))
        assert "index" not in vars(spec.system)
        enabled(spec.system, spec.init)
        assert "index" in vars(spec.system)
