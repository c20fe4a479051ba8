import random

import pytest

from support import all_small_cnfs, brute_force_sat, machine_runs_forever

from tmsr import (
    Configuration,
    CriticalSpec,
    FAILS,
    HOLDS,
    Fact,
    TimestampedFact,
    bounded_realizability,
    bounded_survivability,
    check_balanced,
    check_progressive,
    compute_dmax,
    must_tick,
    realizability,
    survivability,
    validate_trace,
)
from tmsr.rules import CriticalPair, Rule
from tmsr.scenarios import Cnf3, DroneParams, TmSpec, gen_3sat, gen_drone, gen_tm
from tmsr.scenarios.drone import GeneratorError, greedy_action
from tmsr.scenarios.sat import CnfError
from tmsr.scenarios.turing import TmError
from tmsr.specfile import parse_spec, print_spec
from tmsr.terms import fact_text


class TestDroneGenerator:
    def test_all_rules_balanced_and_progressive(self):
        for params in (
            DroneParams(),
            DroneParams(strategy="free", wind=((1, 1, "north"), (0, 0, "east"))),
            DroneParams(single_slot_station=True, drones=2, recency=3),
        ):
            spec = gen_drone(params)
            assert check_balanced(spec.system) == []
            assert check_progressive(spec.system) == []

    def test_point_at_base_survives_any_reasonable_bound(self):
        # Recharge ticks expose a picture age of two, so bounds below two
        # are unsatisfiable for every policy; from two on the loop holds.
        spec = gen_drone(DroneParams(points=((1, 1),), recency=2, energy_cap=2))
        assert survivability(spec.system, spec.init, spec.critical).outcome == HOLDS

    def test_far_point_with_tight_bound_fails_bounded(self):
        spec = gen_drone(DroneParams(points=((0, 0),), recency=2, energy_cap=6))
        v = bounded_survivability(spec.system, spec.init, spec.critical, 8)
        assert v.outcome == FAILS
        assert validate_trace(
            spec.system, spec.critical, v.counterexample, expect_critical_end=True
        )

    def test_recency_relaxation_is_monotone(self):
        holding = []
        for M in (2, 4, 6, 8):
            spec = gen_drone(DroneParams(recency=M))
            v = bounded_survivability(spec.system, spec.init, spec.critical, 4 * M)
            holding.append(v.outcome == HOLDS)
        assert holding == sorted(holding)  # once it holds, it keeps holding

    def test_policy_is_deterministic_per_drone(self):
        from tmsr import apply_rule, enabled, tick

        spec = gen_drone(DroneParams(recency=4))
        config = spec.init
        for _ in range(30):
            pairs = enabled(spec.system, config)
            assert len(pairs) <= 1
            if pairs:
                rule, subst = pairs[0]
                config = apply_rule(rule, config, subst, spec.system.max_fact_size)
            else:
                config = tick(config)

    def test_wind_moves_are_free(self):
        spec = gen_drone(DroneParams(strategy="free", wind=((1, 1, "north"),)))
        wind_rules = [r for r in spec.system.rules if r.name.startswith("wind")]
        assert wind_rules
        for r in wind_rules:
            consumed_energy = r.consumed[0].fact.args[3]
            created_energy = r.created[0].fact.args[3]
            assert consumed_energy == created_energy

    def test_boundary_respected(self):
        spec = gen_drone(DroneParams(strategy="free"))
        for r in spec.system.rules:
            for cf in r.created:
                if cf.fact.pred == "Dr":
                    _, x, y, _ = cf.fact.args
                    assert 0 <= x <= 2 and 0 <= y <= 2

    def test_station_bundle(self):
        from tmsr import Const

        spec = gen_drone(DroneParams(single_slot_station=True, drones=2, recency=3))
        assert any(
            tf.fact == Fact("St", (Const("empty"),)) for tf in spec.init.facts
        )
        names = {r.name.split("-")[0] for r in spec.system.rules}
        assert "takeoff" in names and "dock" in names
        assert any(p.name.startswith("slot-hog") for p in spec.critical.pairs)
        v = bounded_survivability(spec.system, spec.init, spec.critical, 6)
        assert v.outcome in (HOLDS, FAILS)

    def test_rule_ceiling_error_mentions_remedy(self):
        with pytest.raises(GeneratorError) as err:
            gen_drone(DroneParams(points=((0, 0), (2, 0), (0, 2)), recency=30))
        assert "smaller grid or recency" in str(err.value)

    def test_parameter_validation(self):
        with pytest.raises(GeneratorError):
            DroneParams(points=((5, 5),))
        with pytest.raises(GeneratorError):
            DroneParams(recency=0)
        with pytest.raises(GeneratorError):
            DroneParams(wind=((1, 1, "up"),))

    def test_two_flanking_points_raise_the_crossover(self):
        # Serving two points at distance one from the base alternates full
        # recharge cycles, roughly doubling the worst picture age.
        fail = gen_drone(DroneParams(points=((0, 1), (2, 1)), recency=4))
        v = bounded_survivability(fail.system, fail.init, fail.critical, 16)
        assert v.outcome == FAILS
        hold = gen_drone(DroneParams(points=((0, 1), (2, 1)), recency=12))
        v = bounded_survivability(hold.system, hold.init, hold.critical, 48)
        assert v.outcome == HOLDS

    def test_wind_on_the_point_splits_the_two_properties(self):
        # Some branch dodges the wind (realizable), but the environment can
        # shove the drone off the point forever (not survivable).
        spec = gen_drone(DroneParams(recency=6, wind=((0, 1, "east"),)))
        assert realizability(spec.system, spec.init, spec.critical).outcome == HOLDS
        v = survivability(spec.system, spec.init, spec.critical)
        assert v.outcome == FAILS
        assert validate_trace(
            spec.system, spec.critical, v.counterexample, expect_critical_end=True
        )
        assert bounded_realizability(
            spec.system, spec.init, spec.critical, 24
        ).outcome == HOLDS
        assert bounded_survivability(
            spec.system, spec.init, spec.critical, 24
        ).outcome == FAILS

    def test_greedy_policy_shape(self):
        p = DroneParams()
        assert greedy_action(p, (1, 1), 4, (0,)) == ("move", "west")
        assert greedy_action(p, (0, 1), 3, (1,)) == ("click", 0)
        assert greedy_action(p, (0, 1), 2, (1,)) == ("move", "east")
        assert greedy_action(p, (1, 1), 1, (3,)) == ("charge",)
        assert greedy_action(p, (1, 1), 0, (3,)) is None


class TestSatGenerator:
    @pytest.mark.parametrize(
        "p,clauses",
        [
            (1, ((1, 1, 1),)),
            (2, ((1, -2, 2), (-1, -1, 2))),
            (3, ((1, 2, 3), (-1, -2, -3), (2, -3, 1))),
        ],
    )
    def test_rule_count_is_2p_plus_6n(self, p, clauses):
        spec = gen_3sat(Cnf3(p, clauses))
        assert len(spec.system.rules) == 2 * p + 6 * len(clauses)

    def test_initial_configuration_shape(self):
        spec = gen_3sat(Cnf3(2, ((1, -2, 1),)))
        texts = {f"{fact_text(tf.fact)}@{tf.ts}" for tf in spec.init.facts}
        assert texts == {"Time@0", "V1@0", "V2@0", "I1@0", "Start@0"}

    def test_progressive(self):
        spec = gen_3sat(Cnf3(3, ((1, 2, 3), (-1, -2, -3))))
        assert check_progressive(spec.system) == []

    def test_assignments_precede_the_first_tick(self):
        spec = gen_3sat(Cnf3(2, ((1, 2, 2),)))
        assert must_tick(spec.system, spec.init) is False

    def test_single_clause_always_satisfiable(self):
        spec = gen_3sat(Cnf3(1, ((1, 1, 1),)))
        v = bounded_realizability(spec.system, spec.init, spec.critical, 1)
        assert v.outcome == HOLDS
        assert validate_trace(spec.system, spec.critical, v.witness, expected_ticks=1)

    def test_contradiction_fails(self):
        spec = gen_3sat(Cnf3(1, ((1, 1, 1), (-1, -1, -1))))
        v = bounded_realizability(spec.system, spec.init, spec.critical, 2)
        assert v.outcome == FAILS

    def test_tautological_clause_never_falsified(self):
        spec = gen_3sat(Cnf3(1, ((1, -1, 1),)))
        v = bounded_realizability(spec.system, spec.init, spec.critical, 1)
        assert v.outcome == HOLDS

    def test_agrees_with_brute_force_on_random_formulas(self):
        rng = random.Random(8080)
        for _ in range(60):
            p = rng.randint(1, 3)
            n = rng.randint(1, 3)
            clauses = tuple(
                tuple(rng.choice([1, -1]) * rng.randint(1, p) for _ in range(3))
                for _ in range(n)
            )
            spec = gen_3sat(Cnf3(p, clauses))
            v = bounded_realizability(spec.system, spec.init, spec.critical, n)
            assert (v.outcome == HOLDS) == brute_force_sat(p, clauses)

    def test_equal_rules_are_one_object(self):
        # Clause 1, position 1, literal 1, not the last clause, in both.
        a = gen_3sat(Cnf3(2, ((1, -2, 2), (-1, -1, 2))))
        b = gen_3sat(Cnf3(3, ((1, 3, 3), (2, -3, -1))))
        c = gen_3sat(Cnf3(1, ((1, 1, 1),)))  # clause 1 is the last one here
        for name in ("clause1-lit1", "set1-true", "set1-false"):
            ra = [r for r in a.system.rules if r.name == name]
            rb = [r for r in b.system.rules if r.name == name]
            assert ra and len(ra) == len(rb) and all(x is y for x, y in zip(ra, rb))
            assert ra[0].plan is rb[0].plan and ra[0].sides is ra[-1].sides
        last = [r for r in c.system.rules if r.name == "clause1-lit1"]
        assert last[0] != [r for r in a.system.rules if r.name == "clause1-lit1"][0]
        assert fact_text(last[0].created[0].fact) == "Itop"
        assert a.critical.pairs[1] is gen_3sat(Cnf3(3, ((2, 3, 3), (-1, 2, -1)))).critical.pairs[1]
        # Positions 2 and 3 of b's first clause hold one literal (3), those
        # of a's do not (-2 and 2): equal sides are one object.
        by_name = {r.name: r for r in b.system.rules}
        assert by_name["clause1-lit2"].sides is by_name["clause1-lit3"].sides
        by_name = {r.name: r for r in a.system.rules}
        assert by_name["clause1-lit2"].sides is not by_name["clause1-lit3"].sides

    def test_shared_rules_keep_each_formula_its_own(self):
        a = Cnf3(2, ((1, -2, 2), (-1, -1, 2)))
        b = Cnf3(3, ((1, 2, 3), (-1, -2, -3), (2, -3, 1)))
        runs = []
        for f in (a, b, a):
            spec = gen_3sat(f)
            v = bounded_realizability(spec.system, spec.init, spec.critical, len(f.clauses))
            runs.append((print_spec(spec), v.outcome, v.witness, v.counterexample))
        assert runs[0] == runs[2] and runs[0][0] != runs[1][0]
        text = runs[0][0]
        assert print_spec(parse_spec(text)) == text

    def test_cached_text_is_the_text_of_the_rule(self):
        for clauses in list(all_small_cnfs(max_vars=3, max_clauses=3))[::211]:
            p = max(abs(lit) for clause in clauses for lit in clause)
            spec = gen_3sat(Cnf3(p, clauses))
            print_spec(spec)
            for r in spec.system.rules:
                assert r.text == Rule.text.func(r)
            for pair in spec.critical.pairs:
                assert pair.text == CriticalPair.text.func(pair)

    def test_validation(self):
        with pytest.raises(CnfError):
            Cnf3(1, ())
        with pytest.raises(CnfError):
            Cnf3(1, ((1, 2, 1),))
        with pytest.raises(CnfError):
            Cnf3(1, ((1, 0, 1),))


def simple_machine(instructions, states=("q0", "qa"), word=("0", "0")):
    return TmSpec(
        states=states,
        final_states=frozenset(("qa",)),
        alphabet=("0", "1"),
        instructions=instructions,
        space=2,
        input_word=word,
    )


class TestTmGenerator:
    def test_rule_count_per_instruction(self):
        m = simple_machine({("q0", "0"): ("qa", "0", "N"), ("q0", "1"): ("q0", "1", "R")})
        spec = gen_tm(m)
        assert len(spec.system.rules) == 5 * (2 + 2) * 2

    def test_progressive(self):
        m = simple_machine({("q0", "0"): ("q0", "1", "R"), ("q0", "1"): ("qa", "1", "N")})
        assert check_progressive(gen_tm(m).system) == []

    def test_immediate_halt_is_not_realizable(self):
        m = simple_machine({("q0", "0"): ("qa", "0", "N"), ("q0", "1"): ("qa", "1", "N")})
        spec = gen_tm(m)
        assert not machine_runs_forever(m)
        assert realizability(spec.system, spec.init, spec.critical).outcome == FAILS

    def test_tight_loop_is_realizable(self):
        m = simple_machine({("q0", "0"): ("q0", "0", "N"), ("q0", "1"): ("q0", "1", "N")})
        spec = gen_tm(m)
        assert machine_runs_forever(m)
        assert realizability(spec.system, spec.init, spec.critical).outcome == HOLDS

    def test_walking_off_the_window_idles_forever(self):
        m = simple_machine({("q0", "0"): ("q0", "0", "R"), ("q0", "1"): ("q0", "1", "R")})
        spec = gen_tm(m)
        assert machine_runs_forever(m)
        assert realizability(spec.system, spec.init, spec.critical).outcome == HOLDS

    def test_validation(self):
        with pytest.raises(TmError):
            simple_machine({("qa", "0"): ("q0", "0", "N")})
        with pytest.raises(TmError):
            simple_machine({("q0", "0"): ("q0", "0", "U")})
        with pytest.raises(TmError):
            TmSpec(
                states=("q0",), final_states=frozenset(), alphabet=("0",),
                instructions={}, space=1, input_word=("0", "0", "0"),
            )
