import random

import pytest

from tmsr import (
    App,
    Configuration,
    ConfigurationError,
    Const,
    Fact,
    TimestampedFact,
    UnboundVariableError,
    Var,
    apply_subst,
    fact_size,
    fact_text,
)
from tmsr.terms import insert_canonical, normalize_term, term_size, term_text


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


class TestNumerals:
    @pytest.mark.parametrize("n", [0, 1, 2, 10, 999, 10**6])
    def test_print_parse_round_trip(self, n):
        assert int(term_text(n)) == n

    def test_successor_chains_normalize_to_numerals(self):
        assert normalize_term(App("s", (App("s", (0,)),))) == 2
        assert normalize_term(Const("z")) == 0

    def test_symbolic_successor_stays_symbolic(self):
        t = normalize_term(App("s", (Var("E", "Nat"),)))
        assert t == App("s", (Var("E", "Nat"),))

    def test_numeral_size_counts_successors_and_zero(self):
        assert term_size(0) == 1
        assert term_size(10) == 11


class TestFactSize:
    def test_nested_term_with_variable(self):
        f = Fact("P", (1, App("f", (Const("a"), Var("X", "Nat"))), Const("a")))
        assert fact_size(f) == 7

    def test_bare_clock_fact(self):
        assert fact_size(ts(Fact("Time"), 4)) == 1

    def test_drone_fact_with_numerals(self):
        f = Fact("Dr", (Const("d1"), 1, 2, 10))
        assert fact_size(ts(f, 4)) == 18

    def test_timestamp_contributes_nothing(self):
        f = Fact("Q", (3,))
        assert fact_size(ts(f, 0)) == fact_size(ts(f, 917))


class TestApplySubst:
    def test_direct_replacement(self):
        pattern = Fact(
            "Dr",
            (Var("Id", "I"), Var("X", "Nat"), Var("Y", "Nat"), Var("E", "Nat")),
        )
        sub = {
            Var("Id", "I"): Const("d1"),
            Var("X", "Nat"): 1,
            Var("Y", "Nat"): 2,
            Var("E", "Nat"): 10,
        }
        assert apply_subst(pattern, sub) == Fact("Dr", (Const("d1"), 1, 2, 10))

    def test_ground_fact_unchanged(self):
        f = Fact("P", (Const("a"), 3))
        assert apply_subst(f, {}) == f

    def test_uncovered_variable_is_named(self):
        with pytest.raises(UnboundVariableError) as err:
            apply_subst(Fact("P", (Var("X", "Nat"),)), {})
        assert "X" in str(err.value)

    def test_successor_pattern_instantiation_normalizes(self):
        t = apply_subst(App("s", (Var("E", "Nat"),)), {Var("E", "Nat"): 3})
        assert t == 4

    def test_size_grows_by_substituted_terms(self):
        rng = random.Random(11)
        for _ in range(200):
            n_vars = rng.randint(1, 3)
            vs = [Var(f"X{i}", "Nat") for i in range(n_vars)]
            pattern = Fact("P", tuple(vs) + (Const("a"),) * rng.randint(0, 2))
            sub = {v: rng.randint(0, 6) for v in vs}
            before = fact_size(pattern)
            after = fact_size(apply_subst(pattern, sub))
            assert after >= before - n_vars + n_vars  # one symbol per variable
            assert after == before + sum(term_size(sub[v]) - 1 for v in vs)


class TestCanonicalSequence:
    def test_two_drone_example_order(self):
        got = [f"{fact_text(tf.fact)}@{tf.ts}" for tf in TWO_DRONE_CONFIG.facts]
        assert got == [
            "P(p2,5,6)@0",
            "P(p1,1,1)@3",
            "Dr(d1,1,2,10)@4",
            "Dr(d2,5,5,8)@4",
            "Time@4",
        ]

    def test_singleton(self):
        c = Configuration((ts(Fact("Time"), 0),))
        assert c.facts == (ts(Fact("Time"), 0),)

    def test_duplicates_both_appear(self):
        c = Configuration(
            (ts(Fact("Time"), 0), ts(Fact("F"), 1), ts(Fact("F"), 1))
        )
        assert len(c) == 3
        assert sum(1 for tf in c if tf.fact == Fact("F")) == 2

    def test_idempotent_and_permutation_invariant(self):
        rng = random.Random(5)
        base = list(TWO_DRONE_CONFIG.facts)
        for _ in range(50):
            shuffled = base[:]
            rng.shuffle(shuffled)
            again = Configuration(tuple(shuffled))
            assert again == TWO_DRONE_CONFIG
            assert again.facts == TWO_DRONE_CONFIG.facts

    def test_distinct_facts_that_print_alike_have_one_order(self):
        # Only the Python API builds a constant named like a numeral.
        a, b = ts(Fact("P", (Const("1"),)), 0), ts(Fact("P", (1,)), 0)
        clock, later = ts(Fact("Time"), 0), ts(Fact("P", (2,)), 0)
        assert fact_text(a.fact) == fact_text(b.fact) and a != b
        first = Configuration((a, b, clock, later))
        for facts in [(b, a, clock, later), (later, clock, b, a), (a, later, b, clock)]:
            again = Configuration(facts)
            assert again == first and again.facts == first.facts
            assert hash(again) == hash(first)
        for order in [(a, b), (b, a), (a, b, a), (b, a, b)]:
            facts = list(Configuration((clock, later)).facts)
            for tf in order:
                insert_canonical(facts, tf)
            assert facts == list(Configuration(tuple(facts)).facts)
            assert Configuration(tuple(facts)) == Configuration((*order, clock, later))


class TestCachedHashes:
    """Facts and configurations keep their hash in a slot that equality
    and repr ignore; every way of building a configuration hashes it like
    the public constructor does."""

    def test_configuration_hash_whatever_built_it(self):
        from tmsr import abstract, apply_rule, enabled, rewrite
        from tmsr.scenarios import DroneParams, gen_drone

        spec = gen_drone(DroneParams(drones=2, recency=4, strategy="free"))
        c = spec.init
        (r, sub), *_ = enabled(spec.system, c)
        built = [
            TWO_DRONE_CONFIG,
            c,
            TWO_DRONE_CONFIG.replace_time(9),
            abstract(TWO_DRONE_CONFIG, 1),
            rewrite(r, c, sub),
            apply_rule(r, c, sub),
            Configuration._canonical(TWO_DRONE_CONFIG.facts),
        ]
        for config in built:
            fresh = Configuration(config.facts)
            assert hash(config) == hash(fresh) == hash((config.facts,))
            assert config == fresh and {config: 1}[fresh] == 1

    def test_fact_hash_is_that_of_its_fields(self):
        f = Fact("Dr", (Const("d1"), 1, App("f", (2,)), 0))
        assert hash(f) == hash(("Dr", f.args)) == hash(f)
        assert f == Fact("Dr", f.args) and hash(f) == hash(Fact("Dr", f.args))

    def test_repr_and_equality_ignore_the_cached_hash(self):
        f = Fact("P", (Const("p1"), 1))
        c = Configuration((ts(Fact("Time"), 0), ts(f, 0)))
        before = (repr(f), repr(c))
        hash(f), hash(c)
        assert (repr(f), repr(c)) == before
        assert repr(f) == "Fact(pred='P', args=(Const(name='p1'), 1))"
        assert repr(c) == (
            "Configuration(facts=(TimestampedFact(fact=Fact(pred='P', args=(Const("
            "name='p1'), 1)), ts=0), TimestampedFact(fact=Fact(pred='Time', args=()), ts=0)))"
        )
        assert c == Configuration(c.facts) and f == Fact("P", f.args)


class TestConfigurationInvariants:
    def test_exactly_one_clock_fact(self):
        with pytest.raises(ConfigurationError):
            Configuration((ts(Fact("F"), 0),))
        with pytest.raises(ConfigurationError):
            Configuration((ts(Fact("Time"), 0), ts(Fact("Time"), 1)))

    def test_ground_facts_only(self):
        with pytest.raises(ConfigurationError):
            Configuration(
                (ts(Fact("Time"), 0), ts(Fact("P", (Var("X", "Nat"),)), 0))
            )
