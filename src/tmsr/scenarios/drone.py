"""Grid surveillance scenario: drones photograph points of interest.

Drones move on a grid of coordinates 0..x_max by 0..y_max, spend one
energy unit per move or photograph, and recharge at a base cell. The
built system is critical when any drone hits zero energy or any point's
last photograph is older than the recency bound; with the single-slot
station flag, also when a drone hogs the charging slot too long.

Two rule sets can be generated. ``strategy="free"`` emits the plain
boundary-respecting ground rules (all moves available, environment-style
nondeterminism). ``strategy="greedy"`` additionally guards every rule
with an exact picture-age vector, one rule per (drone cell, energy, age
vector) combination, encoding this deterministic policy:

* with energy at most (distance home + 1), head for the base and charge
  there until full;
* otherwise photograph the current cell's point if its picture is stale;
* otherwise top up if standing on the base;
* otherwise take one step (x axis first) toward the stalest point, or
  photograph it again when already standing on it.

Wind cells are unguarded and always compete with policy moves: a wind
entry (x, y, d) blows any drone on (x, y) one cell toward d at no energy
cost.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from ..rules import (
    CreatedFact,
    CriticalPair,
    CriticalSpec,
    EQUAL,
    GREATER,
    Rule,
    RulePattern,
    TimeConstraint,
    expand_rule,
    make_system,
)
from ..specfile import SpecFile
from ..terms import (
    Configuration,
    Const,
    Fact,
    NAT,
    TIME,
    TimestampedFact,
    TmsrError,
    Var,
    make_signature,
)

DRONE_SORT = "DroneId"
POINT_SORT = "PointId"

DIRECTIONS = {
    "north": (0, 1),
    "south": (0, -1),
    "east": (1, 0),
    "west": (-1, 0),
}

# Rules a generated system may have; the greedy strategy's state count is
# checked against it before any rule is built.
MAX_RULES = 200_000


class GeneratorError(TmsrError):
    pass


@dataclass(frozen=True)
class DroneParams:
    drones: int = 1
    points: tuple[tuple[int, int], ...] = ((0, 1),)
    x_max: int = 2
    y_max: int = 2
    base: tuple[int, int] = (1, 1)
    recency: int = 6
    energy_cap: int = 4
    wind: tuple[tuple[int, int, str], ...] = ()
    strategy: str = "greedy"
    single_slot_station: bool = False
    station_bound: int | None = None

    def __post_init__(self) -> None:
        if self.drones < 1 or self.recency < 1 or self.energy_cap < 1:
            raise GeneratorError("drones, recency and energy_cap must be at least 1")
        for x, y in self.points + (self.base,):
            if not (0 <= x <= self.x_max and 0 <= y <= self.y_max):
                raise GeneratorError(f"cell ({x},{y}) outside the grid")
        for x, y, d in self.wind:
            if d not in DIRECTIONS:
                raise GeneratorError(f"unknown wind direction {d!r}")
            if not (0 <= x <= self.x_max and 0 <= y <= self.y_max):
                raise GeneratorError(f"wind cell ({x},{y}) outside the grid")
        if self.strategy not in ("greedy", "free"):
            raise GeneratorError(f"unknown strategy {self.strategy!r}")


def manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def step_toward(pos: tuple[int, int], target: tuple[int, int]) -> str:
    x, y = pos
    tx, ty = target
    if x < tx:
        return "east"
    if x > tx:
        return "west"
    if y < ty:
        return "north"
    return "south"


def greedy_action(
    p: DroneParams, pos: tuple[int, int], energy: int, ages: tuple[int, ...]
):
    """Policy decision for one drone: ("click", i), ("charge",),
    ("move", direction) or None (idle)."""
    if energy == 0:
        return None
    home = manhattan(pos, p.base)
    if energy <= home + 1 and not (pos == p.base and energy == p.energy_cap):
        if pos == p.base:
            return ("charge",)
        return ("move", step_toward(pos, p.base))
    for i, cell in enumerate(p.points):
        if cell == pos and ages[i] > 0:
            return ("click", i)
    if pos == p.base and energy < p.energy_cap:
        return ("charge",)
    stalest = max(range(len(p.points)), key=lambda i: (ages[i], -i))
    target = p.points[stalest]
    if target == pos:
        # Fresh picture and nothing else to do. Idling would silence the
        # drone for good (its fact pattern is stamped at the clock), so
        # photograph again; only reachable when the base sits on a point.
        return ("click", stalest)
    return ("move", step_toward(pos, target))


def _signature(p: DroneParams):
    consts = {f"d{i+1}": DRONE_SORT for i in range(p.drones)}
    consts.update({f"p{i+1}": POINT_SORT for i in range(len(p.points))})
    preds = {
        "Dr": (DRONE_SORT, NAT, NAT, NAT),
        "P": (POINT_SORT, NAT, NAT),
    }
    if p.single_slot_station:
        consts["st"] = NAT
        consts["empty"] = DRONE_SORT
        preds["St"] = (DRONE_SORT,)
    return make_signature((DRONE_SORT, POINT_SORT), preds, {}, consts)


def _dr(did: str, x, y, e) -> Fact:
    return Fact("Dr", (Const(did), x, y, e))


def _pt(i: int, cell: tuple[int, int]) -> Fact:
    return Fact("P", (Const(f"p{i+1}"), cell[0], cell[1]))


def _slot(did: str) -> Fact:
    """The single-slot station's fact: the docked drone, or ``empty``."""
    return Fact("St", (Const(did),))


# A docked drone's coordinates.
_DOCK = Const("st")


def _neighbour(
    p: DroneParams, pos: tuple[int, int], direction: str
) -> tuple[int, int] | None:
    """The cell one step from ``pos`` toward ``direction``, or None off the grid."""
    dx, dy = DIRECTIONS[direction]
    x, y = pos[0] + dx, pos[1] + dy
    return (x, y) if 0 <= x <= p.x_max and 0 <= y <= p.y_max else None


def _action_rules(
    p: DroneParams,
    name: str,
    did: str,
    pos: tuple[int, int],
    energy: int,
    action,
    guard: Sequence[TimeConstraint] = (),
) -> tuple[Rule, ...]:
    """The rules named ``name`` in which drone ``did`` on ``pos`` with
    ``energy`` takes ``action`` (as ``greedy_action`` gives it) under
    ``guard``: every point's picture is read, each stamped at its own
    variable, and the drone's fact is consumed. A move off the grid has
    no rules."""
    x, y = pos
    here = RulePattern(_dr(did, x, y, energy), "T")
    points = [RulePattern(_pt(i, cell), f"T{i+1}") for i, cell in enumerate(p.points)]
    kind = action[0]
    if kind == "move":
        target = _neighbour(p, pos, action[1])
        if target is None:
            return ()
        consumed = [here]
        created = [CreatedFact(_dr(did, *target, energy - 1), 1)]
    elif kind == "click":
        # The photographed point is consumed and renewed at the clock.
        picture = points.pop(action[1])
        consumed = [picture, here]
        created = [CreatedFact(picture.fact, 0), CreatedFact(_dr(did, x, y, energy - 1), 1)]
    elif p.single_slot_station:
        # Charging docks the drone in the empty slot.
        consumed = [here, RulePattern(_slot("empty"), "Ts")]
        created = [CreatedFact(_dr(did, _DOCK, _DOCK, energy), 1), CreatedFact(_slot(did), 0)]
    else:
        consumed = [here]
        created = [CreatedFact(_dr(did, x, y, energy + 1), 1)]
    return expand_rule(name, "T", points, consumed, created, guard)


def _station_rules(p: DroneParams, rules: list[Rule]) -> None:
    """Docked charging and takeoff; docking happens via the charge action."""
    for d in range(p.drones):
        did = f"d{d+1}"
        for e in range(p.energy_cap):
            rules += expand_rule(
                f"dock-charge-{did}-e{e}",
                "T",
                [],
                [RulePattern(_dr(did, _DOCK, _DOCK, e), "T")],
                [CreatedFact(_dr(did, _DOCK, _DOCK, e + 1), 1)],
            )
        rules += expand_rule(
            f"takeoff-{did}",
            "T",
            [],
            [
                RulePattern(_dr(did, _DOCK, _DOCK, p.energy_cap), "T"),
                RulePattern(_slot(did), "Ts"),
            ],
            [
                CreatedFact(_dr(did, *p.base, p.energy_cap), 1),
                CreatedFact(_slot("empty"), 0),
            ],
        )


def _wind_rules(p: DroneParams, rules: list[Rule]) -> None:
    for wx, wy, direction in p.wind:
        target = _neighbour(p, (wx, wy), direction)
        if target is None:
            continue
        for d, e in itertools.product(range(p.drones), range(p.energy_cap + 1)):
            did = f"d{d+1}"
            rules += expand_rule(
                f"wind-{wx}-{wy}-{direction}-{did}-e{e}",
                "T",
                [],
                [RulePattern(_dr(did, wx, wy, e), "T")],
                [CreatedFact(_dr(did, *target, e), 1)],
            )


def _free_rules(p: DroneParams) -> list[Rule]:
    rules: list[Rule] = []
    cells = list(itertools.product(range(p.x_max + 1), range(p.y_max + 1)))
    for d in range(p.drones):
        did = f"d{d+1}"
        moves = itertools.product(cells, DIRECTIONS, range(1, p.energy_cap + 1))
        for (x, y), direction, e in moves:
            name = f"move-{direction}-{did}-{x}-{y}-e{e}"
            rules += _action_rules(p, name, did, (x, y), e, ("move", direction))
        for e in range(p.energy_cap):
            rules += _action_rules(p, f"charge-{did}-e{e}", did, p.base, e, ("charge",))
        for i, cell in enumerate(p.points):
            for e in range(1, p.energy_cap + 1):
                name = f"click-p{i+1}-{did}-e{e}"
                rules += _action_rules(p, name, did, cell, e, ("click", i))
    return rules


def _greedy_rules(p: DroneParams) -> list[Rule]:
    combos = (
        p.drones
        * (p.x_max + 1)
        * (p.y_max + 1)
        * (p.energy_cap + 1)
        * (p.recency + 1) ** len(p.points)
    )
    if combos > MAX_RULES:
        raise GeneratorError(
            f"strategy expansion needs {combos} rule slots, over the ceiling "
            f"{MAX_RULES}; use a smaller grid or recency bound"
        )
    rules: list[Rule] = []
    states = itertools.product(
        range(p.drones),
        range(p.x_max + 1),
        range(p.y_max + 1),
        range(p.energy_cap + 1),
        itertools.product(range(p.recency + 1), repeat=len(p.points)),
    )
    for d, x, y, e, ages in states:
        action = greedy_action(p, (x, y), e, ages)
        if action is None:
            continue
        did = f"d{d+1}"
        tag = "-".join(str(a) for a in ages)
        name = f"{action[0]}-{did}-{x}-{y}-e{e}-a{tag}"
        # Each picture's exact age: the rule fires only in this state.
        guard = [TimeConstraint(EQUAL, "T", f"T{i+1}", a) for i, a in enumerate(ages)]
        rules += _action_rules(p, name, did, (x, y), e, action, guard)
    return rules


def gen_drone(p: DroneParams) -> SpecFile:
    """Complete system, initial configuration and criticality spec."""
    sig = _signature(p)
    rules = _free_rules(p) if p.strategy == "free" else _greedy_rules(p)
    if p.single_slot_station:
        _station_rules(p, rules)
    _wind_rules(p, rules)
    if len(rules) > MAX_RULES:
        raise GeneratorError(
            f"{len(rules)} rules exceed the ceiling {MAX_RULES}; "
            "use a smaller grid or recency bound"
        )

    bx, by = p.base
    init_facts = [TimestampedFact(Fact(TIME), 0)]
    for d in range(p.drones):
        init_facts.append(
            TimestampedFact(_dr(f"d{d+1}", bx, by, p.energy_cap), 0)
        )
    for i, cell in enumerate(p.points):
        init_facts.append(TimestampedFact(_pt(i, cell), 0))
    if p.single_slot_station:
        init_facts.append(TimestampedFact(_slot("empty"), 0))
    init = Configuration(tuple(init_facts))

    pairs = [
        CriticalPair(
            "drained",
            (
                RulePattern(
                    Fact(
                        "Dr",
                        (Var("Id", DRONE_SORT), Var("X", NAT), Var("Y", NAT), 0),
                    ),
                    "T",
                ),
            ),
            (),
        )
    ]
    for i, cell in enumerate(p.points):
        pairs.append(
            CriticalPair(
                f"stale-p{i+1}",
                (
                    RulePattern(_pt(i, cell), "Tp"),
                    RulePattern(Fact(TIME), "T"),
                ),
                (TimeConstraint(GREATER, "T", "Tp", p.recency),),
            )
        )
    if p.single_slot_station:
        bound = p.station_bound if p.station_bound is not None else p.recency
        for d in range(p.drones):
            pairs.append(
                CriticalPair(
                    f"slot-hog-d{d+1}",
                    (
                        RulePattern(_slot(f"d{d+1}"), "Ts"),
                        RulePattern(Fact(TIME), "T"),
                    ),
                    (TimeConstraint(GREATER, "T", "Ts", bound),),
                )
            )

    system = make_system(sig, rules, init=init)
    return SpecFile(system, init, CriticalSpec(tuple(pairs)), ticks=4 * p.recency)
