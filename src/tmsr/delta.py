"""Finite quotient of configurations by truncated time differences.

Two configurations are equivalent for a truncation bound when their
canonically ordered facts coincide and so do the pairwise-adjacent
timestamp gaps, with every gap above the bound collapsed into one class.
For balanced systems the quotient is finite and bisimilar to the concrete
transition system.

Each class is represented by its normal member, built by
:func:`abstract`: the earliest stamp is 0 and every gap above the bound
is exactly one more than the bound. Two configurations are equivalent
iff their normal members are equal.

Interchangeable constants reduce the quotient further (scalarset
symmetry, Ip & Dill 1996): :func:`symmetric_classes` finds the classes
of constants that every renaming within a class maps onto the same rules
and critical pairs, and the key function from :func:`make_orbit_key`
keys a normal member on its orbit under those renamings. The unbounded
searches explore concrete configurations and key their visited sets on
the normal member, or on its orbit key when there are classes; lasso
validation compares the cycle endpoints with the same key.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable
from decimal import Decimal

from .rules import CriticalSpec, System
from .terms import NAT, App, Configuration, Const, Fact, Term, TimestampedFact, Var


def abstract(c: Configuration, dmax: int) -> Configuration:
    """The normal member of c's class: stamps shifted so the earliest is
    0, gaps above dmax clamped to dmax + 1. Returns c itself when it is
    already normal."""
    if dmax < 1:
        raise ValueError("truncation bound must be at least 1")
    seq = c.facts
    prev = seq[0].ts
    if prev == 0 and seq[-1].ts <= dmax:
        return c  # no gap can exceed dmax
    ts = 0
    out = []
    for tf in seq:
        gap = tf.ts - prev
        prev = tf.ts
        ts += gap if gap <= dmax else dmax + 1
        out.append(tf if tf.ts == ts else TimestampedFact(tf.fact, ts))
    out = tuple(out)
    # Shifting and clamping keep stamps ordered and ties tied, so the
    # canonical order carries over.
    return c if out == seq else Configuration._canonical(out)


def count_bound(
    fact_count: int,
    size_bound: int,
    dmax: int,
    predicate_count: int,
    symbol_count: int,
) -> int:
    """Exact upper bound on the number of distinct delta configurations:
    (dmax+2)^(m-1) * J^m * (E+2mk)^(mk) for m facts of size at most k over
    J predicates and E constant and function symbols."""
    m, k, j, e = fact_count, size_bound, predicate_count, symbol_count
    if min(m, k, dmax, j, e) < 1:
        raise ValueError("all counting-bound arguments must be at least 1")
    return (dmax + 2) ** (m - 1) * j**m * (e + 2 * m * k) ** (m * k)


def l_sigma_decimal(sys: System, init: Configuration, dmax: int) -> str:
    """``count_bound`` for sys from init, as exact decimal text. ``str``
    refuses an int of more than ``sys.get_int_max_str_digits()`` digits;
    ``Decimal`` writes any number of them."""
    sig = sys.signature
    bound = count_bound(len(init), sys.max_fact_size, dmax, sig.predicate_count, sig.symbol_count)
    return str(Decimal(bound))


# ---------------------------------------------------------------------------
# Symmetry: interchangeable constants


def _consts(t: Term, out: set[str]) -> None:
    if isinstance(t, Const):
        out.add(t.name)
    elif isinstance(t, App):
        for a in t.args:
            _consts(a, out)


def _rename(t: Term, mapping: dict[str, Term]) -> Term:
    """t with each constant named in mapping replaced by its image."""
    if isinstance(t, Const):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(t.fn, tuple(_rename(x, mapping) for x in t.args))
    return t


def symmetric_classes(sys: System, cs: CriticalSpec) -> tuple[tuple[str, ...], ...]:
    """The classes of interchangeable constants, each in declaration order
    and the classes in the order of their first members: sets of at least
    two constants of one sort other than Nat such that swapping any two
    of them maps the multiset of rules (names ignored) and the multiset of
    critical pairs onto themselves.

    Soundness. Every renaming pi that permutes the constants within
    classes is then an automorphism of the transition system: pi maps an
    instance of a rule r at c to an instance of the rule pi(r) at pi(c),
    and pi(r) is a rule, so c -> c' iff pi(c) -> pi(c'); c is critical
    iff pi(c) is; and pi commutes with :func:`abstract`, which looks at
    stamps only. Configurations in one orbit therefore have the same
    future up to renaming: the same distance to a critical state, and a
    compliant cycle through one gives one through the other. That is all
    the searches need, so the initial configuration need not be
    symmetric.

    Each rule is compared as its guard and its sides in pattern order,
    variable names included; two rules equal up to the order of their
    patterns count as different, which may miss a symmetry but never
    reports a false one. Accepted swaps form an equivalence, since (a c) =
    (a b)(b c)(a b), so each constant is tested against one member of each
    class found so far, and transpositions generate every permutation of
    a class. Pattern facts are interned once, and rules share their sides
    and guards, so a test renames each distinct sides once and then
    counts the rules as (guard, sides) pairs."""
    by_sort: dict[str, list[str]] = {}
    for name, sort in sys.signature.constants.items():
        if sort != NAT:
            by_sort.setdefault(sort, []).append(name)
    sorts = [names for names in by_sort.values() if len(names) >= 2]
    if not sorts:
        return ()

    # Each distinct rule sides and each critical pair becomes a tuple of
    # ints, numbered in ``items``: the interned id of its shape (everything
    # but its pattern facts), then the ids of its pattern facts in order. A
    # rule counts as the id of its guard and the number of its sides, a
    # pair as None and its number. Rules share their sides, and each sides
    # object is read once.
    ids: dict = {}
    intern = ids.setdefault
    items: dict[tuple[int, ...], int] = {}

    def number(shape: tuple, patterns: tuple, created: tuple = ()) -> int:
        shape += tuple([p.tvar for p in patterns] + [cf.offset for cf in created])
        facts = [p.fact for p in patterns] + [cf.fact for cf in created]
        got = tuple([intern(shape, len(ids))] + [intern(f, len(ids)) for f in facts])
        return items.setdefault(got, len(items))

    sides = {}
    for s in {id(r.sides): r.sides for r in sys.rules}.values():
        shape = (s.time_var, len(s.preserved), len(s.consumed))
        sides[id(s)] = number(shape, s.patterns, s.created)
    counts = Counter((intern(r.guard, len(ids)), sides[id(r.sides)]) for r in sys.rules)
    for pair in cs.pairs:
        counts[None, number((pair.guard,), pair.patterns)] += 1
    counts = dict(counts)  # compared as a dict: Counter's == is slow
    users: dict[str, list[Fact]] = {}
    for f in ids:
        if isinstance(f, Fact):
            mentioned: set[str] = set()
            for t in f.args:
                _consts(t, mentioned)
            for name in mentioned:
                users.setdefault(name, []).append(f)

    def swappable(a: str, b: str) -> bool:
        swap = {a: Const(b), b: Const(a)}
        image = {}
        for f in users.get(a, []) + users.get(b, []):
            j = ids.get(Fact(f.pred, tuple(_rename(t, swap) for t in f.args)))
            if j is None:
                return False  # no rule or pair holds the renamed fact
            image[ids[f]] = j
        # The renaming is injective on facts, so on items, rules and pairs:
        # they map onto themselves iff every count is kept. An item renamed
        # to none of the items maps to None, which no count has.
        to = [items.get(tuple(map(image.get, got, got))) for got in items]
        return {(g, to[i]): k for (g, i), k in counts.items()} == counts

    order = {name: i for i, name in enumerate(sys.signature.constants)}
    classes = []
    for names in sorts:
        found: list[list[str]] = []
        for name in names:
            for members in found:
                if swappable(members[0], name):
                    members.append(name)
                    break
            else:
                found.append([name])
        classes += [tuple(members) for members in found if len(members) >= 2]
    classes.sort(key=lambda members: order[members[0]])
    return tuple(classes)


# Stands for the class constant in a fact; configurations are ground, so
# no fact of theirs holds it.
_HOLE = Var("", "")


def make_orbit_key(
    classes: tuple[tuple[str, ...], ...]
) -> Callable[[Configuration], Hashable]:
    """The orbit key of configurations under the renamings within
    ``classes``: equal for two configurations only if such a renaming
    maps one onto the other, and equal for all images of c unless a fact
    of c names two class constants.

    The key is a tuple: the (stamp, token) entries of the facts that name
    no class constant, in c's order, then per class the sorted multiset of
    its constants' blocks. A constant's block is the sorted (stamp, token)
    entries of the facts that name it. A fact's token is its repr, with
    the class constant it names replaced by a hole; unlike the printed
    text, a repr tells every two terms apart, and strings still order.
    When a fact names two class constants the key is c itself, which is
    no tuple and so equals no other key. Each returned function remembers
    the token of every fact it meets, so make one per search."""
    members_of = {k for members in classes for k in members}
    roles: dict[Fact, tuple[str | None, str | None]] = {}

    def role(fact: Fact) -> tuple[str | None, str | None]:
        """(the class constant fact names, its token); the constant is
        None when it names none, and the token None when it names two."""
        mentioned: set[str] = set()
        for t in fact.args:
            _consts(t, mentioned)
        mentioned &= members_of
        if len(mentioned) > 1:
            return None, None
        if not mentioned:
            return None, repr(fact)
        (k,) = mentioned
        hole = {k: _HOLE}
        return k, repr(Fact(fact.pred, tuple(_rename(t, hole) for t in fact.args)))

    def key(c: Configuration) -> Hashable:
        free = []
        blocks: dict[str, list[tuple[int, str]]] = {}
        for tf in c.facts:
            fact = tf.fact
            got = roles.get(fact)
            if got is None:
                got = roles[fact] = role(fact)
            k, token = got
            if token is None:
                return c
            if k is None:
                free.append((tf.ts, token))
            elif k in blocks:
                blocks[k].append((tf.ts, token))
            else:
                blocks[k] = [(tf.ts, token)]
        out = [tuple(free)]
        for members in classes:
            multiset = []
            for k in members:
                block = blocks.get(k, ())
                multiset.append(tuple(block) if len(block) < 2 else tuple(sorted(block)))
            multiset.sort()
            out.append(tuple(multiset))
        return tuple(out)

    return key
