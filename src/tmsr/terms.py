"""First-order typed terms, facts, timestamped facts and configurations.

Ground natural numbers are kept in successor normal form but *represented*
as plain Python ints: the term ``s(s(z))`` is the int ``2``. The symbol
count of a numeral n is therefore n+1 (n successors plus the zero), which
is what :func:`term_size` reports. ``s`` applied to a non-ground or
non-numeral argument stays a symbolic application, so rule heads can use
successor patterns like ``s(E)`` for arithmetic.

A configuration is a finite multiset of ground timestamped facts with
exactly one ``Time`` fact. Configurations are stored in canonical order:
non-decreasing timestamps, ties broken by the lexicographic order of the
facts' textual form (predicate name, then arguments left to right, prefix
form, numerals printed in decimal). Multiset equality is therefore plain
tuple equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator, Mapping, Union

NAT = "Nat"
TIME = "Time"
ZERO = "z"
SUCC = "s"


class TmsrError(Exception):
    """Base class for all errors raised by this package."""


class SortError(TmsrError):
    pass


class UnboundVariableError(TmsrError):
    def __init__(self, name: str):
        super().__init__(f"substitution does not cover variable {name!r}")
        self.name = name


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    sort: str


@dataclass(frozen=True, slots=True)
class Const:
    name: str


@dataclass(frozen=True, slots=True)
class App:
    fn: str
    args: tuple["Term", ...]


# Ground numerals are ints; everything else is structural.
Term = Union[int, Var, Const, App]


@dataclass(frozen=True, slots=True)
class Fact:
    pred: str
    args: tuple[Term, ...] = ()
    # The hash of (pred, args), computed on first use (None until then):
    # facts are hashed again with every configuration that holds them.
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.pred, self.args))
            object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True, slots=True)
class TimestampedFact:
    fact: Fact
    ts: int


def normalize_term(t: Term) -> Term:
    """Collapse ground successor chains onto ints: s(2) becomes 3."""
    if isinstance(t, App):
        args = tuple(normalize_term(a) for a in t.args)
        if t.fn == SUCC and len(args) == 1 and isinstance(args[0], int):
            return args[0] + 1
        return App(t.fn, args)
    if isinstance(t, Const) and t.name == ZERO:
        return 0
    return t


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    if isinstance(t, App):
        return all(is_ground(a) for a in t.args)
    return True


def fact_is_ground(f: Fact) -> bool:
    return all(is_ground(a) for a in f.args)


def term_vars(t: Term) -> Iterator[Var]:
    if isinstance(t, Var):
        yield t
    elif isinstance(t, App):
        for a in t.args:
            yield from term_vars(a)


def fact_vars(f: Fact) -> Iterator[Var]:
    for a in f.args:
        if isinstance(a, Var):
            yield a
        elif isinstance(a, App):
            yield from term_vars(a)


def term_size(t: Term) -> int:
    """Number of alphabet symbols in a term; a numeral n counts n+1."""
    if isinstance(t, int):
        return t + 1
    if isinstance(t, (Var, Const)):
        return 1
    size = 1
    for a in t.args:
        size += term_size(a)
    return size


def fact_size(f: Fact | TimestampedFact) -> int:
    """Symbol count of a fact; the timestamp contributes nothing."""
    if isinstance(f, TimestampedFact):
        f = f.fact
    size = 1
    for a in f.args:
        size += term_size(a)
    return size


def term_text(t: Term) -> str:
    if isinstance(t, int):
        return str(t)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.name
    inner = ",".join(term_text(a) for a in t.args)
    return f"{t.fn}({inner})"


@lru_cache(maxsize=65536)
def fact_text(f: Fact) -> str:
    """Deterministic textual form; also the canonical tie-break key."""
    if not f.args:
        return f.pred
    return f"{f.pred}({','.join(term_text(a) for a in f.args)})"


def canonical_key(tf: TimestampedFact) -> tuple[int, str]:
    return (tf.ts, fact_text(tf.fact))


def _canonical_order(facts: Iterable[TimestampedFact]) -> list[TimestampedFact]:
    """Facts by stamp, then by text. Distinct facts with one stamp and one
    text (only the Python API builds them, say ``P(Const("1"))`` and
    ``P(1)``) are ordered by their ``repr``, computed only for such ties."""
    ordered = sorted(facts, key=canonical_key)
    if any(
        a.ts == b.ts and a.fact != b.fact and fact_text(a.fact) == fact_text(b.fact)
        for a, b in zip(ordered, ordered[1:])
    ):
        ordered = [
            tf
            for _, run in groupby(ordered, key=canonical_key)
            for tf in sorted(run, key=lambda tf: repr(tf.fact))
        ]
    return ordered


def insert_canonical(facts: list[TimestampedFact], tf: TimestampedFact) -> None:
    """Insert tf into canonically ordered facts, after any equal fact. New
    facts are mostly stamped at or after the others, so the search runs
    from the end and compares texts only among equal stamps, and reprs
    only among distinct facts of equal text."""
    j = len(facts)
    while j and facts[j - 1].ts > tf.ts:
        j -= 1
    if j and facts[j - 1].ts == tf.ts:
        text = fact_text(tf.fact)
        while j and facts[j - 1].ts == tf.ts:
            before = facts[j - 1].fact
            other = fact_text(before)
            if other < text or (
                other == text and (before == tf.fact or repr(before) < repr(tf.fact))
            ):
                break
            j -= 1
    facts.insert(j, tf)


@dataclass(frozen=True, slots=True)
class Signature:
    """Typed alphabet. Always contains Nat, z:Nat, s:Nat->Nat and Time."""

    sorts: frozenset[str]
    predicates: Mapping[str, tuple[str, ...]]
    functions: Mapping[str, tuple[tuple[str, ...], str]]
    constants: Mapping[str, str]

    @property
    def predicate_count(self) -> int:
        return len(self.predicates)

    @property
    def symbol_count(self) -> int:
        """Constant plus function symbol count."""
        return len(self.constants) + len(self.functions)


def make_signature(
    sorts: Iterable[str] = (),
    predicates: Mapping[str, tuple[str, ...]] | None = None,
    functions: Mapping[str, tuple[tuple[str, ...], str]] | None = None,
    constants: Mapping[str, str] | None = None,
) -> Signature:
    preds = dict(predicates or {})
    fns = dict(functions or {})
    consts = dict(constants or {})
    preds.setdefault(TIME, ())
    fns.setdefault(SUCC, ((NAT,), NAT))
    consts.setdefault(ZERO, NAT)
    all_sorts = frozenset(sorts) | {NAT}
    sig = Signature(all_sorts, preds, fns, consts)
    for name, argsorts in preds.items():
        _require_sorts(sig, name, argsorts)
    for name, (argsorts, res) in fns.items():
        _require_sorts(sig, name, argsorts + (res,))
    for name, sort in consts.items():
        _require_sorts(sig, name, (sort,))
    return sig


def _require_sorts(sig: Signature, owner: str, sorts: tuple[str, ...]) -> None:
    for s in sorts:
        if s not in sig.sorts:
            raise SortError(f"{owner!r} uses undeclared sort {s!r}")


def term_sort(sig: Signature, t: Term) -> str:
    """Sort of a term, checking well-sortedness along the way."""
    if isinstance(t, int):
        return NAT
    if isinstance(t, Var):
        return t.sort
    if isinstance(t, Const):
        if t.name not in sig.constants:
            raise SortError(f"undeclared constant {t.name!r}")
        return sig.constants[t.name]
    if t.fn not in sig.functions:
        raise SortError(f"undeclared function {t.fn!r}")
    argsorts, res = sig.functions[t.fn]
    if len(argsorts) != len(t.args):
        raise SortError(f"function {t.fn!r} expects {len(argsorts)} arguments")
    for a, want in zip(t.args, argsorts):
        got = term_sort(sig, a)
        if got != want:
            raise SortError(f"argument of {t.fn!r} has sort {got!r}, expected {want!r}")
    return res


def check_fact(sig: Signature, f: Fact) -> None:
    """Raise SortError unless f is well-sorted against sig."""
    if f.pred not in sig.predicates:
        raise SortError(f"undeclared predicate {f.pred!r}")
    want = sig.predicates[f.pred]
    if len(want) != len(f.args):
        raise SortError(
            f"predicate {f.pred!r} expects {len(want)} arguments, got {len(f.args)}"
        )
    for a, ws in zip(f.args, want):
        got = term_sort(sig, a)
        if got != ws:
            raise SortError(f"argument of {f.pred!r} has sort {got!r}, expected {ws!r}")


class ConfigurationError(TmsrError):
    pass


@dataclass(frozen=True, slots=True)
class Configuration:
    """Canonically ordered multiset of ground timestamped facts."""

    facts: tuple[TimestampedFact, ...]
    # The hash of (facts,), computed on first use (None until then): a
    # visited-set key is hashed on every lookup.
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = tuple(_canonical_order(self.facts))
        object.__setattr__(self, "facts", ordered)
        times = [tf for tf in ordered if tf.fact.pred == TIME]
        if len(times) != 1:
            raise ConfigurationError(
                f"configuration must contain exactly one Time fact, found {len(times)}"
            )
        for tf in ordered:
            if not fact_is_ground(tf.fact):
                raise ConfigurationError(f"non-ground fact {fact_text(tf.fact)!r}")

    @classmethod
    def _canonical(cls, facts: tuple[TimestampedFact, ...]) -> "Configuration":
        """Wrap facts that are already ground, in canonical order and hold
        exactly one Time fact, skipping the checks of the constructor."""
        c = object.__new__(cls)
        object.__setattr__(c, "facts", facts)
        object.__setattr__(c, "_hash", None)
        return c

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.facts,))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def time(self) -> int:
        for tf in self.facts:
            if tf.fact.pred == TIME:
                return tf.ts
        raise AssertionError("unreachable: Time fact enforced at construction")

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[TimestampedFact]:
        return iter(self.facts)

    def replace_time(self, ts: int) -> "Configuration":
        kept = [tf for tf in self.facts if tf.fact.pred != TIME]
        insert_canonical(kept, TimestampedFact(Fact(TIME), ts))
        return Configuration._canonical(tuple(kept))

    def text(self) -> str:
        return ", ".join(f"{fact_text(tf.fact)}@{tf.ts}" for tf in self.facts)


@dataclass(frozen=True, slots=True)
class Substitution:
    """Grounding substitution: time variables to naturals, term variables
    to ground terms. Stored as sorted tuples so substitutions hash."""

    times: tuple[tuple[str, int], ...] = ()
    terms: tuple[tuple[Var, Term], ...] = ()

    @classmethod
    def of(
        cls, times: Mapping[str, int], terms: Mapping[Var, Term]
    ) -> "Substitution":
        return cls(
            tuple(sorted(times.items())),
            tuple(sorted(terms.items(), key=lambda kv: (kv[0].name, kv[0].sort))),
        )

    def time(self, name: str) -> int:
        for var, ts in self.times:
            if var == name:
                return ts
        raise UnboundVariableError(name)


def subst_term(t: Term, terms: Mapping[Var, Term]) -> Term:
    if isinstance(t, Var):
        if t not in terms:
            raise UnboundVariableError(t.name)
        return terms[t]
    if isinstance(t, App):
        out = App(t.fn, tuple(subst_term(a, terms) for a in t.args))
        return normalize_term(out)
    return t


def apply_subst(x: Fact | Term, terms: Mapping[Var, Term]) -> Fact | Term:
    """Homomorphic application; the result is ground. Raises
    UnboundVariableError naming the first uncovered variable."""
    if isinstance(x, Fact):
        return Fact(x.pred, tuple(subst_term(a, terms) for a in x.args))
    return subst_term(x, terms)
