"""The paper's relations between the four modes, as an oracle.

On a progressive system, for tick budgets n:

- unbounded realizability holds => bounded realizability holds at every n
  (unroll the lasso; its cycle advances the clock);
- unbounded realizability fails => bounded realizability fails for every
  n > K, where K is the number of keys the failing search visited: a
  compliant trace with more than K clock advances repeats a key after a
  tick, which closes a compliant cycle;
- unbounded survivability holds => bounded survivability holds at every n;
- a survivability counterexample with t clock advances => bounded
  survivability fails for every n > t, and at n = t when its last step is
  a clock advance (the bounded search expands nothing after the n-th);
- bounded survivability holds at n => bounded realizability holds at n;
- bounded realizability holds at n+1 => it holds at n.

Each system is checked at n in {1, 2, 3, K, K+1}, K being the state count
of the unbounded realizability search whatever its outcome.
"""

import random

import pytest
from support import SMALL_TM, all_small_cnfs, random_progressive_system

from tmsr import (
    FAILS,
    HOLDS,
    bounded_realizability,
    bounded_survivability,
    realizability,
    survivability,
)
from tmsr.rules import TICK_LABEL
from tmsr.scenarios import Cnf3, DroneParams, gen_3sat, gen_drone, gen_tm


def assert_mode_relations(sysm, init, cs, extra=()):
    """Check every relation above at n in {1, 2, 3, K, K+1} and ``extra``.
    Returns the unbounded outcomes and the bounded verdicts per n."""
    real = realizability(sysm, init, cs)
    surv = survivability(sysm, init, cs)
    k = real.stats.states
    budgets = sorted({1, 2, 3, k, k + 1, *extra})
    bounded = {
        n: (bounded_realizability(sysm, init, cs, n), bounded_survivability(sysm, init, cs, n))
        for n in budgets
    }
    outcomes = {n: (breal.outcome, bsurv.outcome) for n, (breal, bsurv) in bounded.items()}
    assert {real.outcome, surv.outcome} <= {HOLDS, FAILS}
    ticks, last_ticks = None, False
    if surv.counterexample is not None:
        steps = surv.counterexample.steps
        ticks = sum(st.label == TICK_LABEL for st in steps)
        last_ticks = bool(steps) and steps[-1].label == TICK_LABEL
    for n, (breal, bsurv) in outcomes.items():
        assert {breal, bsurv} <= {HOLDS, FAILS}, n
        if real.outcome == HOLDS:
            assert breal == HOLDS, n
        elif n > k:
            assert breal == FAILS, n
        if surv.outcome == HOLDS:
            assert bsurv == HOLDS, n
        if ticks is not None and (n > ticks or (n == ticks and last_ticks)):
            assert bsurv == FAILS, (n, ticks)
        if bsurv == HOLDS:
            assert breal == HOLDS, n
    for low in budgets:
        for high in budgets:
            if low < high and outcomes[high][0] == HOLDS:
                assert outcomes[low][0] == HOLDS, (low, high)
    return real.outcome, surv.outcome, bounded


def test_random_progressive_systems():
    rng = random.Random(2026)
    seen = set()
    for _ in range(300):
        real, surv, _ = assert_mode_relations(*random_progressive_system(rng))
        seen.add((real, surv))
    assert seen == {(HOLDS, HOLDS), (HOLDS, FAILS), (FAILS, FAILS)}


# The drone rungs whose checks run in under a second. Free d2 r8 is left
# out: unbounded realizability holds there in 1,752 states, and the
# bounded searches at n = 1,753 take seconds.
DRONE_RUNGS = {
    "greedy r6": DroneParams(recency=6),
    "greedy r8": DroneParams(recency=8),
    "greedy d2 r8": DroneParams(drones=2, recency=8),
    "free r8": DroneParams(recency=8, strategy="free"),
}


@pytest.mark.parametrize("params", DRONE_RUNGS.values(), ids=DRONE_RUNGS.keys())
def test_drone_rungs(params):
    spec = gen_drone(params)
    assert_mode_relations(spec.system, spec.init, spec.critical)


def test_three_by_three_crossover():
    # Unbounded realizability fails: every compliant trace ends before its
    # 13th clock advance.
    spec = gen_drone(
        DroneParams(strategy="free", points=((0, 2), (2, 0)), recency=10, energy_cap=8)
    )
    real, surv, bounded = assert_mode_relations(spec.system, spec.init, spec.critical, (12, 13))
    assert (real, surv) == (FAILS, FAILS)
    assert [n for n, (breal, _) in bounded.items() if breal.outcome == HOLDS] == [1, 2, 3, 12]
    held, failed = bounded[12][0], bounded[13][0]
    assert (held.outcome, held.stats.states) == (HOLDS, 970)
    assert (failed.outcome, failed.stats.states) == (FAILS, 1478)


def test_sat_systems():
    seen = set()
    for clauses in all_small_cnfs(2, 2):
        variables = max(abs(lit) for c in clauses for lit in c)
        spec = gen_3sat(Cnf3(variables, clauses))
        _, _, bounded = assert_mode_relations(
            spec.system, spec.init, spec.critical, (len(clauses),)
        )
        seen.add(bounded[len(clauses)][0].outcome)
    assert seen == {HOLDS, FAILS}


def test_tm_system():
    spec = gen_tm(SMALL_TM)
    assert assert_mode_relations(spec.system, spec.init, spec.critical)[:2] == (FAILS, FAILS)
