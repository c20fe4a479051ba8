"""Bounded-tape machine encoding: realizability means non-termination.

Cells 0..n+1 each hold one symbol fact; a single head fact carries the
cell index and control state. Each instruction is compiled, per cell,
into a five-rule chain threaded through auxiliary facts; every rule
consumes its two facts at the current instant and recreates both one
tick ahead, so the chain steps are forced in order by lazy sampling, one
per tick. Reaching a final control state matches the criticality spec,
so the built system is realizable iff the machine runs forever (loops,
or walks off the tape window in a non-final state and idles).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from ..rules import (
    CreatedFact,
    CriticalPair,
    CriticalSpec,
    Rule,
    RulePattern,
    expand_rule,
    make_system,
)
from ..specfile import SpecFile
from ..terms import (
    Configuration,
    Fact,
    TIME,
    TimestampedFact,
    TmsrError,
    make_signature,
)

MOVES = {"L": -1, "R": 1, "N": 0}

# Names become parts of predicate and rule names joined by "_", so they
# must be spec identifiers free of "_" for each compiled name to be unique.
_NAME = re.compile(r"[A-Za-z0-9]+")


class TmError(TmsrError):
    pass


@dataclass(frozen=True)
class TmSpec:
    states: tuple[str, ...]
    final_states: frozenset[str]
    alphabet: tuple[str, ...]
    instructions: Mapping[tuple[str, str], tuple[str, str, str]]
    space: int
    input_word: tuple[str, ...] = ()
    start_state: str | None = None
    head: int = 1

    def __post_init__(self) -> None:
        if self.space < 1:
            raise TmError("space bound must be at least 1")
        if not self.alphabet:
            raise TmError("empty tape alphabet")
        for name in (*self.states, *self.final_states, *self.alphabet):
            if not isinstance(name, str) or _NAME.fullmatch(name) is None:
                raise TmError(f"state or symbol name {name!r} is not alphanumeric")
        if self.start_state is None:
            object.__setattr__(self, "start_state", self.states[0])
        if self.start_state not in self.states:
            raise TmError(f"unknown start state {self.start_state!r}")
        unknown = self.final_states - set(self.states)
        if unknown:
            raise TmError(f"unknown final state {min(unknown)!r}")
        if len(self.input_word) > self.space:
            raise TmError("input word longer than the space bound")
        for sym in self.input_word:
            if sym not in self.alphabet:
                raise TmError(f"input symbol {sym!r} not in the alphabet")
        if not (0 <= self.head <= self.space + 1):
            raise TmError("head start outside the tape window")
        for (q, sym), (q2, sym2, move) in self.instructions.items():
            if q in self.final_states:
                raise TmError(f"instruction on final state {q!r}")
            if q not in self.states or q2 not in self.states:
                raise TmError(f"instruction uses unknown state")
            if sym not in self.alphabet or sym2 not in self.alphabet:
                raise TmError(f"instruction uses unknown symbol")
            if move not in MOVES:
                raise TmError(f"unknown move {move!r}")

    @property
    def blank(self) -> str:
        return self.alphabet[0]

    def tape_cells(self) -> tuple[str, ...]:
        """Initial window contents, cells 0..space+1."""
        cells = [self.blank] * (self.space + 2)
        for i, sym in enumerate(self.input_word, start=1):
            cells[i] = sym
        return tuple(cells)


def _idx(i: int) -> str:
    return f"m{-i}" if i < 0 else str(i)


def _head(i: int, q: str) -> Fact:
    return Fact(f"H{_idx(i)}_{q}")


def _cell(i: int, sym: str) -> Fact:
    return Fact(f"C{i}_{sym}")


def gen_tm(t: TmSpec) -> SpecFile:
    n = t.space
    cells = range(n + 2)
    head_cells = range(-1, n + 3)

    preds: dict[str, tuple[str, ...]] = {}
    for i in head_cells:
        for q in t.states:
            preds[_head(i, q).pred] = ()
    for i in cells:
        for sym in t.alphabet:
            preds[_cell(i, sym).pred] = ()

    rules: list[Rule] = []
    for (q, sym), (q2, sym2, move) in sorted(t.instructions.items()):
        gamma = f"{q}_{sym}"
        for i in cells:
            fa = Fact(f"Fa{i}_{gamma}")
            ha = Fact(f"Ha{i}_{gamma}")
            ga = Fact(f"Ga{i}_{gamma}")
            for f in (fa, ha, ga):
                preds[f.pred] = ()
            # The arriving head is always freshly stamped, but the cell it
            # lands on may not have been touched for a while, so the
            # chain-start rule reads the cell fact at a free (past)
            # timestamp. Everything else moves in lockstep with the clock.
            chain = [
                (((_head(i, q), "T"), (_cell(i, sym), "Tc")), (fa, _cell(i, sym))),
                (((fa, "T"), (_cell(i, sym), "T")), (fa, ha)),
                (((fa, "T"), (ha, "T")), (ga, ha)),
                (((ga, "T"), (ha, "T")), (ga, _cell(i, sym2))),
                (
                    ((ga, "T"), (_cell(i, sym2), "T")),
                    (_head(i + MOVES[move], q2), _cell(i, sym2)),
                ),
            ]
            for k, (lhs, rhs) in enumerate(chain, start=1):
                rules.extend(
                    expand_rule(
                        f"{gamma}-c{i}-s{k}",
                        "T",
                        [],
                        [RulePattern(f, tv) for f, tv in lhs],
                        [CreatedFact(f, 1) for f in rhs],
                        [],
                    )
                )

    sig = make_signature((), preds, {}, {})

    init_facts = [TimestampedFact(Fact(TIME), 0)]
    init_facts.append(TimestampedFact(_head(t.head, t.start_state), 0))
    for i, sym in zip(cells, t.tape_cells()):
        init_facts.append(TimestampedFact(_cell(i, sym), 0))
    init = Configuration(tuple(init_facts))

    pairs = []
    for q in sorted(t.final_states):
        for i in head_cells:
            pairs.append(
                CriticalPair(
                    f"halted-{q}-at{_idx(i)}",
                    (RulePattern(_head(i, q), "T"),),
                    (),
                )
            )

    system = make_system(sig, rules, init=init)
    return SpecFile(system, init, CriticalSpec(tuple(pairs)))
