import hashlib
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
from tmsr.scenarios import drone
from tmsr.scenarios.drone import GeneratorError, greedy_action
from tmsr.scenarios.sat import CnfError
from tmsr.scenarios.turing import TmError
from tmsr.specfile import parse_spec, print_spec
from tmsr.terms import fact_text

# The sha256 of print_spec(gen_drone(DroneParams(**params))) for each
# params, so that a change to how the generator builds its rules cannot
# change the system it builds: greedy and free, one to three drones,
# recency 2 to 10, wind (also off the grid), the single-slot station with
# and without its own bound, and two points.
PINNED_DRONE_SPECS = [
    (dict(),
     "60f274a4d4e89ab4f99e48ce9b29f7368e72b777c78f6ab796a1f5331e9d7d1a"),
    (dict(recency=2),
     "3ce5dc637baf1bfb727c9ed6a04026a16ea0d008fee8fa36a89b1d176cd84f95"),
    (dict(recency=3, drones=2),
     "023f678d62e2442635f5f3bb8d7b1944d8c8b353146b6e90e48c68a03b6ea1fb"),
    (dict(recency=8, drones=2),
     "586d87b6538b4b26764e4008122776ba2fe336d60fb78f32b4a017d75ffa9075"),
    (dict(recency=9, drones=2),
     "3e6ed1f22710aca6fbd4e570a0dca2029ad7e1e4635ecc4223e4d10e288a45d4"),
    (dict(recency=3, drones=3),
     "6e6c988cf97791d058bacde966bba4a65c8ef92fe138455dfaab9fd44bac1794"),
    (dict(points=((0, 1), (2, 1)), recency=6),
     "53d7fce6481cb6e06f203e7ee6d8811b68d5373d28b32a1c689274a696a91a14"),
    (dict(points=((0, 0), (2, 2)), recency=3, drones=2),
     "7aed3437c22ef7c1eaaa4a766690c9f03defd59910ffae6332acdf919e2640c5"),
    (dict(recency=6, wind=((0, 1, 'east'), (2, 2, 'north'))),
     "375cc6c51f7087ab978db40fb4fa0faa0cab08d99663250a796360ff033bf086"),
    (dict(single_slot_station=True, drones=2, recency=3),
     "47bd326d75c67aca33802ba1d2186e0b698e3eab4c7cf73b9b0a4e55f0d6979c"),
    (dict(single_slot_station=True, station_bound=5, recency=2),
     "8e0f93baafc5e43e4ec2a39896c8a68c8ebf480ddc425260f2bc0ccc17e0ebc7"),
    (dict(points=((1, 1),), recency=2, energy_cap=2),
     "3d9c30f0ab240598e9601ed703be7d27f19677f0de4cd53b967913a8051dc391"),
    (dict(strategy='free'),
     "374ff260541bee01c15bfd118a6acdb80a3f8b571a9e3dfa592bc33676c77b8e"),
    (dict(strategy='free', drones=2, recency=8),
     "65db00389742900f6da127b21d45bb62ce9eb4b9144ef5988148bb94f3964630"),
    (dict(strategy='free', drones=3, recency=9),
     "0c19c3b79879564ad230b9d0504277d3c3bff1001bb958b3107cd7f9a8f25379"),
    (dict(strategy='free', points=((0, 2), (2, 0)), x_max=2, y_max=2, recency=3),
     "c02c6c4b5165b2d48f647883cc43566e01bc5d60a585d047ef9e7b82e3d39095"),
    (dict(strategy='free', wind=((1, 1, 'north'), (0, 0, 'east'), (0, 0, 'west'))),
     "4cecdd5021df01fac6c8b9fd5f362cb317ec6a999869db4a0d28f9b726623e76"),
    (dict(strategy='free', single_slot_station=True, drones=2, station_bound=4, recency=6),
     "d0412f935696c6b321882ce266c0c634ddfc3ac8a40390b9ae4ca1cc921d4a5f"),
    (dict(points=((0, 1), (2, 2)), single_slot_station=True, wind=((1, 1, 'south'),), recency=3),
     "0565a43b4edf99f578b964955efed70220dd7a9872b6c817d888c3b7741f2e52"),
    (dict(strategy='free', energy_cap=1, base=(0, 0), points=((0, 0), (2, 2))),
     "8236f80cc1068df0acddc1272be5ae58b338b3bbaf30a15d89a0d298f14f314c"),
    (dict(strategy='free', points=((0, 2), (2, 0)), x_max=3, y_max=2, recency=10, energy_cap=8),
     "ee1e4cde7ec879371294bd33166667120ab9a3ffa93d04b618dac8262dff3e37"),
]


class TestDroneGenerator:
    @pytest.mark.parametrize("params, digest", PINNED_DRONE_SPECS)
    def test_printed_spec_is_pinned(self, params, digest):
        text = print_spec(gen_drone(DroneParams(**params)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_both_rule_ceilings(self, monkeypatch):
        # The greedy strategy is checked on its 1 * 3 * 3 * 5 * 7 = 315
        # states before it builds a rule, any system on its rule count.
        monkeypatch.setattr(drone, "MAX_RULES", 300)
        with pytest.raises(GeneratorError, match="needs 315 rule slots, over the ceiling 300"):
            gen_drone(DroneParams())
        monkeypatch.setattr(drone, "MAX_RULES", 100)
        with pytest.raises(GeneratorError, match="104 rules exceed the ceiling 100"):
            gen_drone(DroneParams(strategy="free"))

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
