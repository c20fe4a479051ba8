"""Seeded workloads, their known answers and the item runners.

Every item is a spec text that the benchmark generates from the seed;
the program under test sees only that text. The expected outcome of
every item is fixed here, by a stated reason or by the benchmark's own
brute-force oracle, and never taken from the program's answer.

Why each workload:

* ``drone-free``: few states-heavy unbounded searches on the quotient.
  Matching inside ``enabled`` dominates; ``abstract`` is on the path.
* ``sat-sweep``: many small concrete bounded searches. Parsing,
  matching, eager ``apply_rule`` and ``is_critical`` share the time;
  ``abstract`` is never called.
* ``drone-greedy-cli``: hundreds of ground rules but about one
  successor per state, run through ``tmsr.cli.main`` (bounded
  survivability, report file, ``tmsr replay``). ``abstract`` is never
  called.

The drone workloads hold a fixed set of strata (drone count, recency)
in each round and the seed permutes their order. Their cost differs a
lot between strata and between point placements, so a draw with
replacement would make runs at different seeds measure different
amounts of work.
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass

HOLDS = "holds"
FAILS = "fails"

FREE_FAILS = "free drones can wander until drained, so survivability fails"
GREEDY_HOLDS = (
    "the point (0,1) is next to the base (1,1): the greedy policy photographs "
    "it and recharges before energy or picture age runs out, so bounded "
    "survivability holds"
)
SAT_HOLDS = "brute force finds an assignment satisfying every clause"
SAT_FAILS = "brute force finds no assignment satisfying every clause"


@dataclass(frozen=True)
class Item:
    """One input: how to generate its spec text and what it must answer."""

    label: str
    kind: str  # "drone" or "3sat"
    params: tuple  # DroneParams keywords, or (variables, clauses)
    ticks: int | None  # tick budget of a bounded check, None when unbounded
    expected: str
    reason: str


# ---------------------------------------------------------------------------
# Draws


def draw_drone_free(seed: int) -> list[Item]:
    items = [
        Item(
            f"free d2 r{r}",
            "drone",
            (("drones", 2), ("recency", r), ("strategy", "free")),
            None,
            FAILS,
            FREE_FAILS,
        )
        for r in (7, 8, 9)
    ]
    random.Random(seed).shuffle(items)
    return items


def draw_drone_greedy(seed: int) -> list[Item]:
    # Three strata, 252 to 720 rules. An odd count keeps the median item
    # time off the gap between the one-drone and two-drone times, where it
    # would be an extreme of both groups and swing with every slow item.
    # The two heavy strata are near each other in cost and take most of a
    # round, so the median draws on most of the timed phase rather than on
    # the few seconds one middle stratum of many would fill.
    # The spec's default tick budget is 4 * recency; the CLI run uses it
    # through a bare --ticks.
    combos = [(1, 6), (2, 8), (2, 9)]
    items = [
        Item(
            f"greedy d{d} r{r}",
            "drone",
            (("drones", d), ("recency", r), ("strategy", "greedy")),
            4 * r,
            HOLDS,
            GREEDY_HOLDS,
        )
        for d, r in combos
    ]
    random.Random(seed).shuffle(items)
    return items


def brute_force_sat(variables: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=variables):
        if all(
            any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def small_cnfs(max_vars: int = 3, max_clauses: int = 3):
    """Every 3-CNF over at most ``max_vars`` variables and ``max_clauses``
    clauses, literals drawn with repetition, one representative per
    multiset of sorted clauses (32,508 for 3 and 3)."""
    literals = [lit for v in range(1, max_vars + 1) for lit in (v, -v)]
    pool = sorted(
        {tuple(sorted(c)) for c in itertools.combinations_with_replacement(literals, 3)}
    )
    for n in range(1, max_clauses + 1):
        yield from itertools.combinations_with_replacement(pool, n)


def draw_sat_sweep(seed: int) -> list[Item]:
    """All unsatisfiable formulas of the universe plus as many satisfiable
    ones drawn by the seed, shuffled."""
    sat, unsat = [], []
    for clauses in small_cnfs():
        variables = max(abs(lit) for clause in clauses for lit in clause)
        (sat if brute_force_sat(variables, clauses) else unsat).append(
            (variables, clauses)
        )
    rng = random.Random(seed)
    picked = [(f, HOLDS, SAT_HOLDS) for f in rng.sample(sat, len(unsat))]
    picked += [(f, FAILS, SAT_FAILS) for f in unsat]
    rng.shuffle(picked)
    return [
        Item(
            "cnf " + ";".join(",".join(map(str, c)) for c in clauses),
            "3sat",
            (variables, clauses),
            len(clauses),
            expected,
            reason,
        )
        for (variables, clauses), expected, reason in picked
    ]


# ---------------------------------------------------------------------------
# Generation (timed as set-up)


def generate(m, item: Item) -> str:
    """Spec text of the item, generated by the program's own scenario
    generators and printer."""
    if item.kind == "drone":
        spec = m.scenarios.gen_drone(m.scenarios.DroneParams(**dict(item.params)))
    else:
        variables, clauses = item.params
        spec = m.scenarios.gen_3sat(m.scenarios.Cnf3(variables, clauses))
    return m.specfile.print_spec(spec)


# ---------------------------------------------------------------------------
# Runners: each takes an item from spec text to a certified verdict and
# returns what the check needs. Names are looked up on the modules at call
# time, so the tracer's wrappers are seen.


def certify(m, spec, parsed):
    """Replay a parsed report the way ``tmsr replay`` does; None when the
    report carries nothing to certify."""
    if parsed.lasso is not None:
        dmax = m.rules.compute_dmax(spec.system, spec.init, spec.critical)
        return m.search.validate_lasso(spec.system, spec.critical, parsed.lasso, dmax)
    if parsed.trace is not None:
        return m.search.validate_trace(
            spec.system,
            spec.critical,
            parsed.trace,
            expected_ticks=parsed.ticks if parsed.outcome == HOLDS else None,
            expect_critical_end=parsed.outcome == FAILS,
        )
    return None


def run_in_process(m, item: Item, text: str):
    spec = m.specfile.parse_spec(text)
    if item.ticks is None:
        verdict = m.search.survivability(spec.system, spec.init, spec.critical)
    else:
        verdict = m.search.bounded_realizability(
            spec.system, spec.init, spec.critical, item.ticks
        )
    payload = m.reports.emit_report(
        m.reports.VerdictReport(
            verdict, ticks=item.ticks, digest=m.reports.input_digest(text)
        )
    )
    parsed = m.reports.parse_report(payload, spec)
    return parsed.outcome, parsed.ticks, certify(m, spec, parsed)


def check_in_process(item: Item, result) -> str | None:
    """Why the item's answer is wrong, or None when it is right."""
    outcome, ticks, certified = result
    if outcome != item.expected:
        return f"outcome {outcome}, expected {item.expected} ({item.reason})"
    if ticks != item.ticks:
        return f"report has tick budget {ticks}, expected {item.ticks}"
    # A bounded witness and every counterexample must be certified; an
    # unsatisfiable formula's bounded "fails" carries no trace.
    needs_artifact = item.expected == HOLDS or item.ticks is None
    if certified is None:
        return "report carries no trace to certify" if needs_artifact else None
    if not certified.ok:
        return f"replay rejects the report: {certified.message}"
    return None


def run_cli(m, item: Item, spec_path: str, report_path: str):
    out = io.StringIO()
    with redirect_stdout(out):
        verify_rc = m.cli.main(
            ["verify", spec_path, "--mode", "survivability", "--ticks", "--out", report_path]
        )
        replay_rc = m.cli.main(["replay", spec_path, report_path])
    return verify_rc, replay_rc, out.getvalue(), report_path


def check_cli(item: Item, result) -> str | None:
    verify_rc, replay_rc, output, report_path = result
    want_rc = 0 if item.expected == HOLDS else 1
    if verify_rc != want_rc:
        return f"verify exited {verify_rc}, expected {want_rc} ({item.reason})"
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    got = (report.get("mode"), report.get("outcome"), report.get("ticks"))
    want = ("bounded-survivability", item.expected, item.ticks)
    if got != want:
        return f"report says {got}, expected {want}"
    if replay_rc != 0 or "trace validates" not in output:
        return f"replay exited {replay_rc}: {output.strip()!r}"
    return None
