import itertools
import random

import pytest

from support import normalize as reference_normalize
from support import random_progressive_system, rename_fact, swaps_preserving

from tmsr import (
    Configuration,
    Const,
    CriticalPair,
    CriticalSpec,
    Fact,
    RulePattern,
    TimeConstraint,
    TimestampedFact,
    abstract,
    count_bound,
    enabled,
    is_critical,
    lazy_successors,
    parse_spec,
)
from tmsr.delta import make_orbit_key, symmetric_classes
from tmsr.rules import GREATER
from tmsr.scenarios import Cnf3, DroneParams, gen_3sat, gen_drone
from tmsr.terms import TIME, fact_text


def ts(fact, t):
    return TimestampedFact(fact, t)


def gaps(c):
    seq = c.facts
    return tuple(b.ts - a.ts for a, b in zip(seq, seq[1:]))


TWO_DRONE_CONFIG = Configuration(
    (
        ts(Fact("Time"), 4),
        ts(Fact("Dr", (Const("d1"), 1, 2, 10)), 4),
        ts(Fact("Dr", (Const("d2"), 5, 5, 8)), 4),
        ts(Fact("P", (Const("p1"), 1, 1)), 3),
        ts(Fact("P", (Const("p2"), 5, 6)), 0),
    )
)


class TestAbstract:
    def test_wide_bound_keeps_gaps(self):
        c = abstract(TWO_DRONE_CONFIG, 4)
        assert [fact_text(tf.fact) for tf in c.facts] == [
            "P(p2,5,6)", "P(p1,1,1)", "Dr(d1,1,2,10)", "Dr(d2,5,5,8)", "Time",
        ]
        assert c.facts[0].ts == 0 and gaps(c) == (3, 1, 0, 0)

    def test_tight_bound_truncates(self):
        c = abstract(TWO_DRONE_CONFIG, 1)
        assert c.facts[0].ts == 0
        assert gaps(c) == (2, 1, 0, 0)

    def test_singleton_has_no_gaps(self):
        c = abstract(Configuration((ts(Fact("Time"), 0),)), 3)
        assert [tf.fact for tf in c.facts] == [Fact("Time")] and gaps(c) == ()

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            abstract(TWO_DRONE_CONFIG, 0)

    def test_equal_abstraction_iff_equivalent(self):
        shifted = Configuration(
            tuple(ts(tf.fact, tf.ts + 7) for tf in TWO_DRONE_CONFIG.facts)
        )
        assert abstract(shifted, 4) == abstract(TWO_DRONE_CONFIG, 4)
        squeezed = Configuration(
            (
                ts(Fact("Time"), 4),
                ts(Fact("Dr", (Const("d1"), 1, 2, 10)), 4),
                ts(Fact("Dr", (Const("d2"), 5, 5, 8)), 4),
                ts(Fact("P", (Const("p1"), 1, 1)), 3),
                ts(Fact("P", (Const("p2"), 5, 6)), 1),
            )
        )
        assert abstract(squeezed, 4) != abstract(TWO_DRONE_CONFIG, 4)


def tokens_spec(decls: str, *rules: str, critical: str = "") -> str:
    return (
        "tmsr-spec 1\nsort Tok\n" + decls + "\n"
        + "".join(f'rule "r{i}": {r}\n' for i, r in enumerate(rules))
        + "init: Time@0\n" + critical
    )


TWO_TOKENS = "const a : Tok\nconst b : Tok\npred Turn : Tok"


def classes_of(text: str):
    spec = parse_spec(text)
    return symmetric_classes(spec.system, spec.critical)


class TestSymmetricClasses:
    def test_turn_taking_tokens_are_interchangeable(self):
        text = tokens_spec(
            TWO_TOKENS,
            "Time@T, Turn(a)@T1 -> Time@T, Turn(b)@(T+1)",
            "Time@T, Turn(b)@T1 -> Time@T, Turn(a)@(T+1)",
        )
        assert classes_of(text) == (("a", "b"),)

    def test_one_asymmetric_rule_gives_no_class(self):
        text = tokens_spec(
            TWO_TOKENS,
            "Time@T, Turn(a)@T1 -> Time@T, Turn(b)@(T+1)",
            "Time@T, Turn(b)@T1 -> Time@T, Turn(a)@(T+2)",
        )
        assert classes_of(text) == ()

    def test_critical_pairs_must_map_onto_themselves(self):
        rules = (
            "Time@T, Turn(a)@T1 -> Time@T, Turn(b)@(T+1)",
            "Time@T, Turn(b)@T1 -> Time@T, Turn(a)@(T+1)",
        )
        lopsided = 'critical "a-late": { Turn(a)@Ta, Time@T | T > Ta + 1 }\n'
        assert classes_of(tokens_spec(TWO_TOKENS, *rules, critical=lopsided)) == ()
        either = 'critical "late": { Turn(X)@Tx, Time@T | T > Tx + 1 }\n'
        assert classes_of(tokens_spec(TWO_TOKENS, *rules, critical=either)) == (("a", "b"),)

    def test_constant_nested_in_a_function_term(self):
        decls = TWO_TOKENS + "\nsort W\nfn box : Tok -> W\npred Held : W"
        swapped = (
            "Time@T, Held(box(a))@T1 -> Time@T, Held(box(b))@(T+1)",
            "Time@T, Held(box(b))@T1 -> Time@T, Held(box(a))@(T+1)",
        )
        assert classes_of(tokens_spec(decls, *swapped)) == (("a", "b"),)
        one_way = ("Time@T, Held(box(a))@T1 -> Time@T, Held(box(b))@(T+1)",)
        assert classes_of(tokens_spec(decls, *one_way)) == ()

    def test_two_independent_classes(self):
        # a and b pass a token at offset 1, c and d at offset 2: each pair
        # is interchangeable, no constant across the pairs.
        decls = "const a : Tok\nconst c : Tok\nconst b : Tok\nconst d : Tok\npred Turn : Tok"
        text = tokens_spec(
            decls,
            "Time@T, Turn(a)@T1 -> Time@T, Turn(b)@(T+1)",
            "Time@T, Turn(b)@T1 -> Time@T, Turn(a)@(T+1)",
            "Time@T, Turn(c)@T1 -> Time@T, Turn(d)@(T+2)",
            "Time@T, Turn(d)@T1 -> Time@T, Turn(c)@(T+2)",
        )
        assert classes_of(text) == (("a", "b"), ("c", "d"))
        spec = parse_spec(text)
        assert swaps_preserving(spec.system, spec.critical) == {
            frozenset("ab"), frozenset("cd")
        }

    def test_unused_constants_are_interchangeable_and_nat_is_not_a_sort(self):
        assert classes_of(tokens_spec("const a : Tok\nconst b : Tok\nconst c : Tok")) == (
            ("a", "b", "c"),
        )
        assert classes_of(tokens_spec("const a : Tok")) == ()

    def test_drone_specs(self):
        for drones, strategy in [(2, "free"), (3, "free"), (2, "greedy")]:
            spec = gen_drone(DroneParams(drones=drones, recency=4, strategy=strategy))
            want = (tuple(f"d{i + 1}" for i in range(drones)),)
            assert symmetric_classes(spec.system, spec.critical) == want
        one = gen_drone(DroneParams(recency=4))
        assert symmetric_classes(one.system, one.critical) == ()
        sat = gen_3sat(Cnf3(3, ((1, -2, 3), (2, 2, -1))))
        assert symmetric_classes(sat.system, sat.critical) == ()


def drone(name, x, y, e):
    return Fact("Dr", (Const(name), x, y, e))


class TestOrbitKey:
    CLASSES = (("d1", "d2"),)

    def config(self, *facts):
        return Configuration((ts(Fact("Time"), 3),) + facts)

    def test_renamed_copies_share_the_key(self):
        key = make_orbit_key(self.CLASSES)
        c = self.config(ts(drone("d1", 0, 1, 2), 3), ts(drone("d2", 1, 1, 4), 1), ts(Fact("P", (Const("p1"), 0, 1)), 0))
        swap = {"d1": "d2", "d2": "d1"}
        renamed = Configuration(tuple(ts(rename_fact(tf.fact, swap), tf.ts) for tf in c.facts))
        assert renamed != c
        assert key(renamed) == key(c)

    def test_different_orbits_differ(self):
        key = make_orbit_key(self.CLASSES)
        c = self.config(ts(drone("d1", 0, 1, 2), 3), ts(drone("d2", 1, 1, 4), 1))
        # the same facts with the stamps exchanged between the drones
        other = self.config(ts(drone("d1", 0, 1, 2), 1), ts(drone("d2", 1, 1, 4), 3))
        assert key(other) != key(c)
        # a constant outside the classes is never renamed
        moved = self.config(ts(drone("d1", 0, 1, 2), 3), ts(drone("d3", 1, 1, 4), 1))
        assert key(moved) != key(c)

    def test_fact_naming_two_class_constants_falls_back_to_the_configuration(self):
        key = make_orbit_key(self.CLASSES)
        pair = Fact("Pair", (Const("d1"), Const("d2")))
        c = self.config(ts(pair, 3), ts(drone("d1", 0, 1, 2), 3))
        assert key(c) is c
        swapped = self.config(ts(Fact("Pair", (Const("d2"), Const("d1"))), 3), ts(drone("d2", 0, 1, 2), 3))
        assert key(swapped) is swapped and key(swapped) != key(c)
        # the same constant twice is one constant
        twice = self.config(ts(Fact("Pair", (Const("d1"), Const("d1"))), 3))
        assert key(twice) == key(self.config(ts(Fact("Pair", (Const("d2"), Const("d2"))), 3)))

    def test_two_classes_rename_independently(self):
        key = make_orbit_key((("a", "b"), ("c", "d")))

        def turns(*names):
            return self.config(*(ts(Fact("Turn", (Const(n),)), t) for t, n in enumerate(names)))

        assert key(turns("a", "c")) == key(turns("b", "d")) == key(turns("a", "d"))
        assert key(turns("a", "c")) != key(turns("c", "a"))

    def test_equal_keys_iff_some_renaming_maps_one_onto_the_other(self):
        rng = random.Random(13)
        names = ("d1", "d2", "d3")
        key = make_orbit_key((names,))

        def renamed(c, perm):
            return Configuration(tuple(ts(rename_fact(tf.fact, perm), tf.ts) for tf in c.facts))

        def random_config():
            return self.config(*(
                ts(drone(rng.choice(names), 0, 0, rng.randint(0, 1)), rng.randint(2, 3))
                for _ in range(rng.randint(1, 2))
            ))

        perms = [dict(zip(names, p)) for p in itertools.permutations(names)]
        equal = 0
        for _ in range(300):
            c, other = random_config(), random_config()
            assert key(renamed(c, rng.choice(perms))) == key(c)
            same_orbit = any(renamed(c, p) == other for p in perms)
            assert (key(c) == key(other)) == same_orbit
            equal += same_orbit
        assert equal >= 10


def random_configs():
    """300 random configurations, each with a bound between 1 and 4."""
    rng = random.Random(99)
    facts = [Fact("A"), Fact("B"), Fact("C"), Fact("Time")]
    for _ in range(300):
        dmax = rng.randint(1, 4)
        n = rng.randint(1, 4)
        chosen = rng.sample(facts, n)
        if Fact("Time") not in chosen:
            chosen[-1] = Fact("Time")
        chosen.sort(key=fact_text)
        # stamps must be non-decreasing with the canonical tie-break
        stamps = []
        t = 0
        for f in chosen:
            if stamps and rng.random() < 0.6:
                t += rng.randint(0, dmax + 3)
            stamps.append(t)
        yield Configuration(tuple(ts(f, s) for f, s in zip(chosen, stamps))), dmax


class TestRepresentative:
    """The normal member stands for its class: earliest stamp 0, every
    gap above the bound exactly one more than the bound."""

    def test_singleton(self):
        c = abstract(Configuration((ts(Fact("Time"), 5),)), 2)
        assert c == Configuration((ts(Fact("Time"), 0),))

    def test_infinite_gap_reconstructs_just_past_bound(self):
        c = Configuration((ts(Fact("P"), 3), ts(Fact("Time"), 12)))
        assert abstract(c, 1) == Configuration(
            (ts(Fact("P"), 0), ts(Fact("Time"), 2))
        )

    def test_drone_configuration_agrees_with_reference(self):
        for dmax in range(1, 6):
            want = reference_normalize(TWO_DRONE_CONFIG, dmax)
            assert abstract(TWO_DRONE_CONFIG, dmax) == want

    def test_agrees_with_reference(self):
        for config, dmax in random_configs():
            assert abstract(config, dmax) == reference_normalize(config, dmax)

    def test_abstraction_inverts_reconstruction(self):
        # Random gap sequences realized as stamps, every gap above the
        # bound by a random amount; the normal member recovers the gaps
        # with each of those at exactly dmax + 1.
        rng = random.Random(123)
        others = [Fact("A"), Fact("B"), Fact("C", (1,))]
        for _ in range(300):
            dmax = rng.randint(1, 4)
            facts = [Fact("Time")] + rng.sample(others, rng.randint(0, 3))
            want = [rng.randint(0, dmax + 1) for _ in range(len(facts) - 1)]
            stamps = [rng.randint(0, 9)]
            for g in want:
                step = g + rng.randint(0, 5) if g > dmax else g
                stamps.append(stamps[-1] + step)
            config = Configuration(tuple(ts(f, s) for f, s in zip(facts, stamps)))
            c = abstract(config, dmax)
            assert c == reference_normalize(config, dmax)
            assert c.facts[0].ts == 0 and gaps(c) == tuple(want)


class TestNormalize:
    def test_idempotent_and_identity_on_normal_configurations(self):
        for config, dmax in random_configs():
            normal = abstract(config, dmax)
            assert abstract(normal, dmax) is normal


def normal_successors(sysm, c, dmax=2):
    return {abstract(child, dmax) for _, _, child in lazy_successors(sysm, c)}


class TestDeltaStep:
    """The quotient's step: lazy successors, keyed by their normal form."""

    def test_tick_when_nothing_enabled(self):
        rng = random.Random(3)
        sysm, init, cs = random_progressive_system(rng)
        c = abstract(init, 2)
        succs = lazy_successors(sysm, c)
        if not enabled(sysm, c):
            assert len(succs) == 1
            assert succs[0][:2] == ("tick", None)

    def test_tick_advances_clock_gap(self):
        from tmsr import make_signature, make_system

        sysm = make_system(make_signature((), {"P": ()}, {}, {}), [])
        c = Configuration((ts(Fact("P"), 0), ts(Fact("Time"), 0)))
        ((label, _, nxt),) = lazy_successors(sysm, c)
        assert label == "tick"
        assert abstract(nxt, 2) == Configuration((ts(Fact("P"), 0), ts(Fact("Time"), 1)))
        # Past the bound the clock gap stays in its class.
        c = Configuration((ts(Fact("P"), 0), ts(Fact("Time"), 3)))
        assert normal_successors(sysm, c) == {c}

    def test_successor_count_matches_enabled(self):
        rng = random.Random(13)
        for _ in range(60):
            sysm, init, cs = random_progressive_system(rng)
            c = abstract(init, 2)
            pairs = enabled(sysm, c)
            succs = lazy_successors(sysm, c)
            if pairs:
                assert len(succs) == len(pairs)
            else:
                assert len(succs) == 1

    def test_step_independent_of_representative(self):
        rng = random.Random(21)
        for _ in range(60):
            sysm, init, cs = random_progressive_system(rng)
            shifted = Configuration(
                tuple(ts(tf.fact, tf.ts + 5) for tf in init.facts)
            )
            assert abstract(init, 2) == abstract(shifted, 2)
            assert normal_successors(sysm, init) == normal_successors(sysm, shifted)


class TestDeltaCritical:
    """Criticality is the same on a configuration and on its normal form
    as long as every constraint offset is within the bound."""

    def test_time_free_pattern(self):
        cs = CriticalSpec(
            (
                CriticalPair(
                    "flat",
                    (RulePattern(Fact("Dr", (Const("d1"), 0, 0, 0)), "T"),),
                    (),
                ),
            )
        )
        config = Configuration(
            (ts(Fact("Time"), 2), ts(Fact("Dr", (Const("d1"), 0, 0, 0)), 1))
        )
        assert is_critical(cs, abstract(config, 2)) is not None

    @staticmethod
    def stale_spec(bound):
        return CriticalSpec(
            (
                CriticalPair(
                    "stale",
                    (
                        RulePattern(Fact("P", (Const("p1"), 1, 1)), "T1"),
                        RulePattern(Fact(TIME), "T"),
                    ),
                    (TimeConstraint(GREATER, "T", "T1", bound),),
                ),
            )
        )

    @staticmethod
    def aged(gap):
        return Configuration(
            (ts(Fact("P", (Const("p1"), 1, 1)), 4), ts(Fact("Time"), 4 + gap))
        )

    def test_infinite_gap_is_stale(self):
        c = abstract(self.aged(10), 2)
        assert c == Configuration(
            (ts(Fact("P", (Const("p1"), 1, 1)), 0), ts(Fact("Time"), 3))
        )
        assert is_critical(self.stale_spec(2), c) is not None

    def test_gap_at_bound_is_fresh_enough(self):
        c = abstract(self.aged(2), 2)
        assert is_critical(self.stale_spec(2), c) is None

    def test_matches_concrete_verdict_on_random_systems(self):
        rng = random.Random(55)
        for _ in range(80):
            sysm, init, cs = random_progressive_system(rng)
            # Stretched stamps put gaps past the bound.
            stretched = Configuration(
                tuple(ts(tf.fact, 3 * tf.ts + 5) for tf in init.facts)
            )
            for c in (init, stretched):
                want = is_critical(cs, c) is not None
                assert (is_critical(cs, abstract(c, 2)) is not None) == want


class TestCountBound:
    def test_exact_small_value(self):
        assert count_bound(2, 2, 1, 2, 1) == 78732

    def test_single_fact_degenerates(self):
        for k, j, e, dmax in [(1, 1, 1, 1), (2, 3, 2, 2), (3, 2, 4, 5)]:
            assert count_bound(1, k, dmax, j, e) == j * (e + 2 * k) ** k

    def test_monotone_in_every_argument(self):
        grid = [1, 2, 3]
        for m in grid:
            for k in grid:
                for dmax in grid:
                    for j in grid:
                        for e in grid:
                            base = count_bound(m, k, dmax, j, e)
                            assert count_bound(m + 1, k, dmax, j, e) >= base
                            assert count_bound(m, k + 1, dmax, j, e) >= base
                            assert count_bound(m, k, dmax + 1, j, e) >= base
                            assert count_bound(m, k, dmax, j + 1, e) >= base
                            assert count_bound(m, k, dmax, j, e + 1) >= base

    def test_arguments_below_one_rejected(self):
        with pytest.raises(ValueError):
            count_bound(0, 1, 1, 1, 1)


class TestSerialization:
    def test_text_form_is_stable_and_hash_friendly(self):
        c = abstract(TWO_DRONE_CONFIG, 1)
        assert c.text() == (
            "P(p2,5,6)@0, P(p1,1,1)@2, Dr(d1,1,2,10)@3, Dr(d2,5,5,8)@3, Time@3"
        )
        assert hash(c) == hash(abstract(TWO_DRONE_CONFIG, 1))
        assert c in {abstract(TWO_DRONE_CONFIG, 1)}
