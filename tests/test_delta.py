import math
import random

import pytest

from support import random_progressive_system

from tmsr import (
    Configuration,
    Const,
    CriticalPair,
    CriticalSpec,
    Fact,
    INFINITY,
    RulePattern,
    TimeConstraint,
    TimestampedFact,
    abstract,
    count_bound,
    enabled,
    is_critical,
    lazy_successors,
    normalize,
    representative,
)
from tmsr.delta import DeltaConfig
from tmsr.rules import GREATER
from tmsr.terms import TIME, fact_text


def ts(fact, t):
    return TimestampedFact(fact, t)


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
        d = abstract(TWO_DRONE_CONFIG, 4)
        assert [fact_text(f) for f in d.facts] == [
            "P(p2,5,6)", "P(p1,1,1)", "Dr(d1,1,2,10)", "Dr(d2,5,5,8)", "Time",
        ]
        assert d.gaps == (3, 1, 0, 0)

    def test_tight_bound_truncates(self):
        d = abstract(TWO_DRONE_CONFIG, 1)
        assert d.gaps[0] == INFINITY
        assert d.gaps[1:] == (1, 0, 0)

    def test_singleton_has_no_gaps(self):
        d = abstract(Configuration((ts(Fact("Time"), 0),)), 3)
        assert d.facts == (Fact("Time"),) and d.gaps == ()

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            abstract(TWO_DRONE_CONFIG, 0)
        with pytest.raises(ValueError):
            normalize(TWO_DRONE_CONFIG, 0)

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
    def test_singleton(self):
        d = abstract(Configuration((ts(Fact("Time"), 0),)), 2)
        assert representative(d) == Configuration((ts(Fact("Time"), 0),))

    def test_infinite_gap_reconstructs_just_past_bound(self):
        d = DeltaConfig((Fact("P"), Fact("Time")), (INFINITY,), 1)
        assert representative(d) == Configuration(
            (ts(Fact("P"), 0), ts(Fact("Time"), 2))
        )

    def test_round_trip_gaps(self):
        d = abstract(TWO_DRONE_CONFIG, 4)
        again = abstract(representative(d), 4)
        assert again.gaps == (3, 1, 0, 0) and again == d

    def test_random_round_trips(self):
        for config, dmax in random_configs():
            d = abstract(config, dmax)
            assert abstract(representative(d), dmax) == d

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            DeltaConfig((Fact("Time"), Fact("A")), (5,), 2)
        with pytest.raises(ValueError):
            DeltaConfig((Fact("Time"),), (0,), 2)

    def test_tie_order_validated(self):
        with pytest.raises(ValueError):
            DeltaConfig((Fact("Time"), Fact("A")), (0,), 2)
        DeltaConfig((Fact("A"), Fact("Time")), (0,), 2)
        DeltaConfig((Fact("Time"), Fact("A")), (1,), 2)

    def test_abstraction_inverts_reconstruction(self):
        # Random gap sequences realized as stamps, so every generated
        # abstraction is valid by construction.
        rng = random.Random(123)
        others = [Fact("A"), Fact("B"), Fact("C", (1,))]
        for _ in range(300):
            dmax = rng.randint(1, 4)
            facts = [Fact("Time")] + rng.sample(others, rng.randint(0, 3))
            gaps = [
                rng.choice([INFINITY] + list(range(dmax + 1)))
                for _ in range(len(facts) - 1)
            ]
            stamps = [0]
            for g in gaps:
                step = dmax + 1 if math.isinf(g) else int(g)
                stamps.append(stamps[-1] + step)
            config = Configuration(tuple(ts(f, s) for f, s in zip(facts, stamps)))
            d = abstract(config, dmax)
            assert abstract(representative(d), dmax) == d


class TestNormalize:
    def test_equals_representative_of_abstraction(self):
        for config, dmax in random_configs():
            assert normalize(config, dmax) == representative(abstract(config, dmax))

    def test_idempotent_and_identity_on_normal_configurations(self):
        for config, dmax in random_configs():
            normal = normalize(config, dmax)
            assert normalize(normal, dmax) is normal


def normal_successors(sysm, c, dmax=2):
    return {normalize(child, dmax) for _, _, child in lazy_successors(sysm, c)}


class TestDeltaStep:
    """The quotient's step: lazy successors, keyed by their normal form."""

    def test_tick_when_nothing_enabled(self):
        rng = random.Random(3)
        sysm, init, cs = random_progressive_system(rng)
        c = normalize(init, 2)
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
        assert normalize(nxt, 2) == Configuration((ts(Fact("P"), 0), ts(Fact("Time"), 1)))
        # Past the bound the clock gap stays in its class.
        c = Configuration((ts(Fact("P"), 0), ts(Fact("Time"), 3)))
        assert normal_successors(sysm, c) == {c}

    def test_successor_count_matches_enabled(self):
        rng = random.Random(13)
        for _ in range(60):
            sysm, init, cs = random_progressive_system(rng)
            c = normalize(init, 2)
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
            assert normalize(init, 2) == normalize(shifted, 2)
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
        assert is_critical(cs, normalize(config, 2)) is not None

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
        c = normalize(self.aged(10), 2)
        assert c == Configuration(
            (ts(Fact("P", (Const("p1"), 1, 1)), 0), ts(Fact("Time"), 3))
        )
        assert is_critical(self.stale_spec(2), c) is not None

    def test_gap_at_bound_is_fresh_enough(self):
        c = normalize(self.aged(2), 2)
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
                assert (is_critical(cs, normalize(c, 2)) is not None) == want


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
        d = abstract(TWO_DRONE_CONFIG, 1)
        assert hash(d) == hash(abstract(TWO_DRONE_CONFIG, 1))
        assert d in {abstract(TWO_DRONE_CONFIG, 1)}
        c = normalize(TWO_DRONE_CONFIG, 1)
        assert c.text() == (
            "P(p2,5,6)@0, P(p1,1,1)@2, Dr(d1,1,2,10)@3, Dr(d2,5,5,8)@3, Time@3"
        )
        assert hash(c) == hash(normalize(TWO_DRONE_CONFIG, 1))
        assert c in {normalize(TWO_DRONE_CONFIG, 1)}
