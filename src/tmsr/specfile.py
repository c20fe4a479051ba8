"""Plain-text spec files: parser, printer and the loaded bundle.

Format (line oriented, ``#`` starts a comment, first line is a version
header). Identifiers starting with an upper-case letter are variables;
their sorts are inferred from the argument position they occupy. Decimal
numerals are allowed wherever a Nat term is expected. Example::

    tmsr-spec 1
    sort Id
    const d1 : Id
    pred Dr : Id Nat Nat Nat
    pred P : Id Nat Nat
    rule "move": Time@T, P(p1,0,1)@T1, Dr(d1,1,1,2)@T | T = T1 + 1 ->
        Time@T, P(p1,0,1)@T1, Dr(d1,0,1,1)@(T+1)
    init: Time@0, Dr(d1,1,1,2)@0, P(p1,0,1)@0
    critical "flat": { Dr(Id,X,Y,0)@T }
    critical "stale": { P(p1,0,1)@T1, Time@T | T > T1 + 6 }
    params: k=12, ticks=24

(rules stay on one line in real files; wrapped above for readability).
A rule's right-hand side entry equal to a left-hand side entry (same fact
pattern, same time variable) is preserved; any other entry must be
stamped ``@(T+d)`` relative to the clock variable and is created. A rule
that consumes a fact at the clock variable and recreates it at offset 0
normalizes to a preserved fact; the two are the same rule.

Guard atoms use ``>``, ``=`` or ``>=`` with an optional ``+ n``/``- n``
offset. ``>=`` is sugar for the disjunction of the other two and loads as
alternative rules (or critical pairs) sharing the declared name.

The sort ``Nat``, the predicate ``Time``, the constant ``z`` and the
function ``s`` are implicit in every signature and cannot be redeclared.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice

from .rules import (
    CreatedFact,
    CriticalPair,
    CriticalSpec,
    EQUAL,
    GE,
    GREATER,
    Rule,
    RulePattern,
    RuleError,
    RuleSides,
    System,
    TimeConstraint,
    expand_critical_pair,
    expand_guard,
    make_system,
    rule_sides,
)
from .terms import (
    App,
    Configuration,
    ConfigurationError,
    Const,
    Fact,
    NAT,
    Signature,
    SortError,
    Term,
    TIME,
    TimestampedFact,
    TmsrError,
    Var,
    check_fact,
    fact_text,
    fact_vars,
    make_signature,
    normalize_term,
)

HEADER = "tmsr-spec 1"

RESERVED_SORTS = {NAT}
RESERVED_PREDS = {TIME}
RESERVED_FNS = {"s"}
RESERVED_CONSTS = {"z"}


class SpecParseError(TmsrError):
    """Diagnostic with a stable code and a source position."""

    def __init__(self, code: str, message: str, line: int, col: int = 0):
        super().__init__(f"{line}:{col}: [{code}] {message}")
        self.code = code
        self.reason = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SpecFile:
    """A parsed spec: system, initial configuration, criticality spec and
    the default tick budget for bounded checking."""

    system: System
    init: Configuration
    critical: CriticalSpec
    ticks: int | None = None


# ---------------------------------------------------------------------------
# Tokenizer
#
# A token is the plain string it spells; its kind follows from its text: a
# leading '"' makes a string, a decimal digit a numeral, an ASCII letter or
# '_' an identifier, and "->", ">=" and the one-character symbols are
# themselves. Tokens carry no column: a diagnostic finds its column by
# scanning its one line again.

_TOKEN_RE = re.compile(r'"[^"]*"|->|>=|\d+|[A-Za-z_][A-Za-z0-9_]*|[@(),:|+\-><={}]', re.ASCII)

# The longest prefix of a line made of whole tokens and whitespace: the line
# holds a stray character (one no token can start with, or a '"' that is
# never closed) exactly where this match ends short of the line's end.
_CLEAN_RE = re.compile(r'(?:[\s\dA-Za-z_@(),:|+\-><={}]+|"[^"]*")*', re.ASCII)

# The characters that may stand outside a string, and the quote: a line
# made only of these, with its quotes in pairs, holds no stray character.
_TOKEN_BYTES = (
    b" \t\n\r\f\v0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    b'_@(),:|+-><={}"'
)

# The characters \s matches under re.ASCII: no other character is blank.
_BLANKS = " \t\n\r\f\v"

# A rule, init or critical line; pass 1 keeps these as text.
_DEFERRED_RE = re.compile(r"\s*(?:(rule|critical)(?![A-Za-z0-9_])|init\s*:)")

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

# Ends every token list, so that reading one token past the last real one
# needs no bounds check; it equals no token and starts no kind of token.
_EOL = "\n"


def _check_chars(text: str, line: int) -> None:
    end = _CLEAN_RE.match(text).end()
    if end < len(text):
        raise SpecParseError("syntax", f"unexpected character {text[end]!r}", line, end + 1)


def _is_kind(tok: str, want: str) -> bool:
    if want == "ident":
        return tok[0] in _IDENT_START
    if want == "num":
        return tok.isdecimal()
    if want == "string":
        return tok[0] == '"'
    if want == "arrow":
        return tok == "->"
    return tok == want


class _Cursor:
    """The tokens of one line whose characters have been checked, read by
    index. The parse of the line starts at token ``start``; diagnostics
    place an end of line after the last token from there on."""

    __slots__ = ("toks", "n", "line", "text", "start")

    def __init__(self, text: str, line: int, start: int = 0):
        self.toks = (*_TOKEN_RE.findall(text), _EOL)
        self.n = len(self.toks) - 1
        self.line = line
        self.text = text
        self.start = start

    def col(self, i: int) -> int:
        if i >= self.n:
            return self.col(self.n - 1) if self.n > self.start else 1
        return next(islice(_TOKEN_RE.finditer(self.text), i, None)).start() + 1

    def error(self, code: str, message: str, i: int) -> SpecParseError:
        return SpecParseError(code, message, self.line, self.col(i))

    def expected(self, i: int, what: str) -> SpecParseError:
        if i >= self.n:
            return self.error("syntax", "unexpected end of line", i)
        return self.error("syntax", f"expected {what}, found {self.toks[i]!r}", i)

    def expect(self, i: int, want: str) -> str:
        """Token ``i``, which must be of kind ``want`` or spell it."""
        tok = self.toks[i]
        if not _is_kind(tok, want):
            raise self.expected(i, repr(want))
        return tok

    def end(self, i: int) -> None:
        if i < self.n:
            raise self.error("syntax", f"trailing input {self.toks[i]!r}", i)


# ---------------------------------------------------------------------------
# Parser


# A rule's left side as (fact, time variable) pairs, its right side as
# (fact, time variable, offset) triples, a side with the sorts of its term
# variables, and the parts of a RuleSides.
_Left = tuple[tuple[Fact, str], ...]
_Right = tuple[tuple[Fact, str, int], ...]
_Side = tuple[_Left | _Right, dict[str, str]]
_Parts = tuple[str, tuple[RulePattern, ...], tuple[RulePattern, ...], tuple[CreatedFact, ...]]


class SpecParser:
    """Parser of spec text. ``parse_spec`` runs it on a whole spec;
    ``for_signature`` gives one that reads fact and term texts against a
    loaded signature, and can be reused for many of them."""

    def __init__(self) -> None:
        self.sorts: list[str] = []
        self.preds: dict[str, tuple[str, ...]] = {}
        self.fns: dict[str, tuple[tuple[str, ...], str]] = {}
        self.consts: dict[str, str] = {}
        self.rule_lines: list[tuple[int, str]] = []
        self.init_lines: list[tuple[int, str]] = []
        self.critical_lines: list[tuple[int, str]] = []
        self.params: dict[str, int] = {}
        self.params_line: int | None = None
        self.sig: Signature | None = None
        # Flat ground facts by the tokens that spell them; see _parse_fact.
        self.flat_facts: dict[tuple[str, ...], Fact] = {}
        # Parsed rule segments by their texts; see _parse_rule.
        self.rule_lefts: dict[str, _Side] = {}
        self.rule_rights: dict[str, _Side] = {}
        self.rule_guards: dict[str, tuple[TimeConstraint, ...]] = {}
        self.rule_sides: dict[tuple[str, str], RuleSides] = {}
        self.rule_alts: dict[tuple, tuple[tuple[TimeConstraint, ...], ...]] = {}

    @classmethod
    def for_signature(cls, sig_or_spec) -> "SpecParser":
        sig = sig_or_spec.system.signature if isinstance(sig_or_spec, SpecFile) else sig_or_spec
        p = cls()
        p.sorts = [s for s in sig.sorts if s not in RESERVED_SORTS]
        p.preds = {k: v for k, v in sig.predicates.items() if k not in RESERVED_PREDS}
        p.fns = {k: v for k, v in sig.functions.items() if k not in RESERVED_FNS}
        p.consts = {k: v for k, v in sig.constants.items() if k not in RESERVED_CONSTS}
        p.sig = sig
        return p

    def fact_text(self, text: str, line: int = 1) -> Fact:
        """One ground fact in the spec-file syntax."""
        _check_chars(text, line)
        cur = _Cursor(text, line)
        vars_seen: dict[str, str] = {}
        f, i = self._parse_fact(cur, 0, vars_seen)
        if vars_seen:
            raise SpecParseError("syntax", "fact is not ground", line)
        cur.end(i)
        return f

    def term_text(self, text: str, expected: str, line: int = 1) -> Term:
        """One ground term of sort ``expected`` in the spec-file syntax."""
        _check_chars(text, line)
        cur = _Cursor(text, line)
        vars_seen: dict[str, str] = {}
        t, i = self._parse_term(cur, 0, expected, vars_seen)
        if vars_seen:
            raise SpecParseError("syntax", "term is not ground", line)
        cur.end(i)
        return t

    # -- pass 1: collect declarations ------------------------------------

    def read(self, text: str) -> None:
        # One pass over the text finds whether it holds only the characters
        # of tokens, blanks and quotes; if so, only a line with an unpaired
        # quote needs its characters checked. Otherwise every line is, so
        # that the first stray character is the one reported.
        clean = text.isascii() and not text.encode("ascii").translate(None, _TOKEN_BYTES)
        header = False
        # Only "\n" ends a line: str.splitlines would also break at "\f",
        # "\v", U+2028 and others, and so move every later line number.
        for line, content in enumerate(text.split("\n"), start=1):
            if content.endswith("\r"):
                content = content[:-1]
            if "#" in content:
                content = self._strip_comment(content)
            if not content.strip(_BLANKS):
                continue
            if not header:
                if content.strip(_BLANKS) != HEADER:
                    raise SpecParseError("syntax", f"missing header line {HEADER!r}", line)
                header = True
                continue
            if not clean or content.count('"') % 2:
                _check_chars(content, line)
            m = _DEFERRED_RE.match(content)
            if m is not None:
                if m.group(1) == "rule":
                    self.rule_lines.append((line, content))
                elif m.group(1) == "critical":
                    self.critical_lines.append((line, content))
                else:
                    self.init_lines.append((line, content))
                continue
            cur = _Cursor(content, line)
            head = cur.expect(0, "ident")
            if head == "sort":
                self._decl_sort(cur)
            elif head == "pred":
                self._decl_pred(cur)
            elif head == "fn":
                self._decl_fn(cur)
            elif head == "const":
                self._decl_const(cur)
            elif head == "init":
                # A well-formed init line was taken above.
                raise cur.expected(1, repr(":"))
            elif head == "params":
                self._decl_params(cur)
            else:
                raise cur.error("syntax", f"unknown declaration {head!r}", 0)
        if not header:
            raise SpecParseError("syntax", "empty spec", 1)

    @staticmethod
    def _strip_comment(raw: str) -> str:
        out = []
        in_string = False
        for ch in raw:
            if ch == '"':
                in_string = not in_string
            if ch == "#" and not in_string:
                break
            out.append(ch)
        return "".join(out)

    def _decl_sort(self, cur: _Cursor) -> None:
        name = cur.expect(1, "ident")
        if name in RESERVED_SORTS or name in self.sorts:
            raise cur.error("duplicate", f"sort {name!r} already declared", 1)
        self.sorts.append(name)
        cur.end(2)

    def _decl_pred(self, cur: _Cursor) -> None:
        name = cur.expect(1, "ident")
        if name in RESERVED_PREDS or name in self.preds:
            raise cur.error("duplicate", f"predicate {name!r} already declared", 1)
        argsorts: list[str] = []
        if cur.toks[2] == ":":
            argsorts = [cur.expect(i, "ident") for i in range(3, cur.n)]
        else:
            cur.end(2)
        self.preds[name] = tuple(argsorts)

    def _decl_fn(self, cur: _Cursor) -> None:
        name = cur.expect(1, "ident")
        if name in RESERVED_FNS or name in self.fns:
            raise cur.error("duplicate", f"function {name!r} already declared", 1)
        cur.expect(2, ":")
        argsorts: list[str] = []
        i = 3
        while cur.toks[i] != "->":
            argsorts.append(cur.expect(i, "ident"))
            i += 1
        result = cur.expect(i + 1, "ident")
        self.fns[name] = (tuple(argsorts), result)
        cur.end(i + 2)

    def _decl_const(self, cur: _Cursor) -> None:
        name = cur.expect(1, "ident")
        if name in RESERVED_CONSTS or name in self.consts:
            raise cur.error("duplicate", f"constant {name!r} already declared", 1)
        cur.expect(2, ":")
        self.consts[name] = cur.expect(3, "ident")
        cur.end(4)

    def _decl_params(self, cur: _Cursor) -> None:
        cur.expect(1, ":")
        self.params_line = cur.line
        i = 2
        while i < cur.n:
            key = cur.expect(i, "ident")
            if key not in ("k", "dmax", "ticks"):
                raise cur.error("params", f"unknown parameter {key!r}", i)
            cur.expect(i + 1, "=")
            self.params[key] = int(cur.expect(i + 2, "num"))
            i += 3
            if i < cur.n:
                cur.expect(i, ",")
                i += 1

    # -- pass 2: terms, facts, rules -------------------------------------
    #
    # Each parse function takes the index of its first token and returns
    # the index after its last one.

    def build_signature(self) -> Signature:
        try:
            self.sig = make_signature(self.sorts, self.preds, self.fns, self.consts)
        except SortError as exc:
            raise SpecParseError("sort", str(exc), 1) from None
        return self.sig

    def _parse_term(
        self, cur: _Cursor, i: int, expected: str, vars_seen: dict[str, str]
    ) -> tuple[Term, int]:
        toks = cur.toks
        name = toks[i]
        if name.isdecimal():
            if expected != NAT:
                raise cur.error("sort", f"numeral where a {expected!r} term is expected", i)
            return int(name), i + 1
        if name[0] not in _IDENT_START:
            raise cur.expected(i, "a term")
        if toks[i + 1] == "(":
            if name not in self.fns and name not in RESERVED_FNS:
                raise cur.error("sort", f"undeclared function {name!r}", i)
            argsorts, result = self.fns.get(name, ((NAT,), NAT))
            if result != expected:
                raise cur.error(
                    "sort", f"function {name!r} yields {result!r}, expected {expected!r}", i
                )
            j = i + 2
            args = []
            for k, asort in enumerate(argsorts):
                if k:
                    if toks[j] != ",":
                        raise cur.expected(j, repr(","))
                    j += 1
                arg, j = self._parse_term(cur, j, asort, vars_seen)
                args.append(arg)
            if toks[j] != ")":
                raise cur.expected(j, repr(")"))
            return normalize_term(App(name, tuple(args))), j + 1
        if name[0].isupper():
            seen = vars_seen.get(name)
            if seen is not None and seen != expected:
                raise cur.error(
                    "sort", f"variable {name!r} used at sorts {seen!r} and {expected!r}", i
                )
            vars_seen[name] = expected
            return Var(name, expected), i + 1
        if name == "z":
            if expected != NAT:
                raise cur.error("sort", "z is a Nat constant", i)
            return 0, i + 1
        sort = self.consts.get(name)
        if sort is None:
            raise cur.error("sort", f"undeclared constant {name!r}", i)
        if sort != expected:
            raise cur.error(
                "sort", f"constant {name!r} has sort {sort!r}, expected {expected!r}", i
            )
        return Const(name), i + 1

    def _parse_fact(
        self, cur: _Cursor, i: int, vars_seen: dict[str, str]
    ) -> tuple[Fact, int]:
        toks = cur.toks
        name = toks[i]
        if name[0] not in _IDENT_START:
            raise cur.expected(i, repr("ident"))
        argsorts = () if name == TIME else self.preds.get(name)
        if argsorts is None:
            raise cur.error("sort", f"undeclared predicate {name!r}", i)
        if not argsorts:
            # A nullary fact, bare (Time@T) or written with "()", is keyed
            # by its name token alone; a "(" not closed at once is left to
            # the full parse below, which diagnoses it.
            end = i + 1
            if toks[end] == "(" and toks[end + 1] == ")":
                end += 2
            if toks[end] != "(":
                key = (name,)
                fact = self.flat_facts.get(key)
                if fact is None:
                    fact = self.flat_facts[key] = Fact(name)
                return fact, end
        # A flat fact, one token per argument, spans 2 * arity + 2 tokens.
        # Once such tokens have parsed to a ground fact, the same tokens
        # parse to that same fact again: their parse reads no variable.
        end = i + 2 * len(argsorts) + 2
        key = toks[i:end]
        fact = self.flat_facts.get(key)
        if fact is not None:
            return fact, end
        start = i
        i += 1
        args: list[Term] = []
        if toks[i] == "(":
            i += 1
            for k, asort in enumerate(argsorts):
                if k:
                    tok = toks[i]
                    if tok != ",":
                        if tok == ")":
                            raise cur.error(
                                "arity", f"predicate {name!r} takes {len(argsorts)} arguments", i
                            )
                        raise cur.expected(i, repr(","))
                    i += 1
                arg, i = self._parse_term(cur, i, asort, vars_seen)
                args.append(arg)
            tok = toks[i]
            if tok != ")":
                if tok == ",":
                    raise cur.error(
                        "arity", f"predicate {name!r} takes {len(argsorts)} arguments", i
                    )
                raise cur.expected(i, repr(")"))
            i += 1
        if len(args) != len(argsorts):
            raise cur.error(
                "arity",
                f"predicate {name!r} takes {len(argsorts)} arguments, found {len(args)}",
                start,
            )
        fact = Fact(name, tuple(args))
        if i == end and not any(isinstance(a, Var) for a in args):
            self.flat_facts[key] = fact
        return fact, i

    @staticmethod
    def _parse_tvar(cur: _Cursor, i: int) -> str:
        name = cur.toks[i]
        if name[0] not in _IDENT_START:
            raise cur.expected(i, repr("ident"))
        if not name[0].isupper():
            raise cur.error("syntax", f"time variable expected, found {name!r}", i)
        return name

    def _parse_constraint(self, cur: _Cursor, i: int) -> tuple[TimeConstraint, int]:
        toks = cur.toks
        left = self._parse_tvar(cur, i)
        op = toks[i + 1]
        if op == ">=":
            rel = GE
        elif op == ">":
            rel = GREATER
        elif op == "=":
            rel = EQUAL
        else:
            raise cur.expected(i + 1, ">, = or >=")
        right = self._parse_tvar(cur, i + 2)
        i += 3
        offset = 0
        sign = toks[i]
        if sign == "+" or sign == "-":
            num = cur.expect(i + 1, "num")
            offset = int(num) if sign == "+" else -int(num)
            i += 2
        return TimeConstraint(rel, left, right, offset), i

    def _parse_patterns(
        self, cur: _Cursor, i: int, vars_seen: dict[str, str]
    ) -> tuple[list[tuple[Fact, str]], int]:
        """The ``fact@T, ...`` list from token ``i`` on, as (fact, time
        variable) pairs, and the index after it."""
        toks = cur.toks
        out = []
        while True:
            f, i = self._parse_fact(cur, i, vars_seen)
            if toks[i] != "@":
                raise cur.expected(i, repr("@"))
            out.append((f, self._parse_tvar(cur, i + 1)))
            i += 2
            if toks[i] != ",":
                return out, i
            i += 1

    def _parse_guard(self, cur: _Cursor, i: int) -> tuple[tuple[TimeConstraint, ...], int]:
        """The guard atoms ``L op R [+- n], ...`` from token ``i`` on."""
        guard = []
        while True:
            c, i = self._parse_constraint(cur, i)
            guard.append(c)
            if cur.toks[i] != ",":
                return tuple(guard), i
            i += 1

    def _parse_created(self, cur: _Cursor, i: int, vars_seen: dict[str, str]) -> tuple[_Right, int]:
        """A right side ``fact@T, fact@(T+n), ...`` from token ``i`` on, as
        (fact, time variable, offset) triples."""
        toks = cur.toks
        rhs = []
        while True:
            f, i = self._parse_fact(cur, i, vars_seen)
            if toks[i] != "@":
                raise cur.expected(i, repr("@"))
            if toks[i + 1] == "(":
                tv = self._parse_tvar(cur, i + 2)
                if toks[i + 3] != "+":
                    raise cur.expected(i + 3, repr("+"))
                off = int(cur.expect(i + 4, "num"))
                if toks[i + 5] != ")":
                    raise cur.expected(i + 5, repr(")"))
                i += 6
            else:
                tv = self._parse_tvar(cur, i + 1)
                off = 0
                i += 2
            rhs.append((f, tv, off))
            if toks[i] != ",":
                return tuple(rhs), i
            i += 1

    def _parse_rule(self, line: int, text: str) -> tuple[Rule, ...]:
        # A rule line of the form ``rule "name"`` and a rest with no quote
        # splits at its first '->' and, before that, at its first '|' into
        # three segments: the left side, the guard (with its bar, so that
        # "|->" never takes the empty guard of a line without one) and the
        # right side. A segment holds no string, so it splits at token
        # boundaries: its tokens are the same in every line that holds its
        # text, and it parses alone as within its line, except that a
        # variable must keep one sort across the two sides. So each segment
        # is parsed alone, once: a line that yielded rules stores each of
        # its segments by its text, the sides of its (left, right) pair as
        # one RuleSides, and its guard's alternatives (``>=`` expanded) by
        # the guard's text and the sides' clock, consumed and bound time
        # variables, on which the expansion and the guard's check depend.
        # A later line takes what is stored. A line for which any of this
        # fails takes the full parse, which raises its diagnostic.
        head = text.split('"')
        if len(head) != 3 or head[0].strip(_BLANKS) != "rule":
            # Never a well-formed line: the full parse finds its fault.
            name, left, guard, right = self._parse_rule_tokens(line, text)
            parts = self._classify(line, name, left[0], right[0])
            return self._rules(line, name, guard, None, parts)
        _, name, rest = head
        before, _, right_text = rest.partition("->")
        left_text, bar, guard_text = before.partition("|")
        guard_key, sides_key = bar + guard_text, (left_text, right_text)
        sides = self.rule_sides.get(sides_key)
        if sides is not None:
            alts = self.rule_alts.get((guard_key, sides.time_var, sides.past_bounds, sides.bound))
            if alts is not None:
                return tuple([Rule(name, sides, alt) for alt in alts])
        guard = self.rule_guards.get(guard_key)
        parts = left = right = None
        try:
            if guard is None:
                guard = self._guard_segment(line, bar, guard_text)
            if sides is None:
                left = self.rule_lefts.get(left_text) or self._left_segment(line, left_text)
                right = self.rule_rights.get(right_text) or self._right_segment(line, right_text)
                if all(left[1].get(v, sort) == sort for v, sort in right[1].items()):
                    parts = self._classify(line, name, left[0], right[0])
        except SpecParseError:
            sides = parts = None
        if sides is None and parts is None:
            name, left, guard, right = self._parse_rule_tokens(line, text)
            parts = self._classify(line, name, left[0], right[0])
        rules = self._rules(line, name, guard, sides, parts)
        sides = rules[0].sides
        if parts is not None:
            self.rule_sides[sides_key] = sides
            self.rule_lefts[left_text] = left
            self.rule_rights[right_text] = right
        self.rule_guards[guard_key] = guard
        alts_key = (guard_key, sides.time_var, sides.past_bounds, sides.bound)
        self.rule_alts[alts_key] = tuple([r.guard for r in rules])
        return rules

    def _left_segment(self, line: int, text: str) -> _Side:
        cur = _Cursor(text, line)
        if cur.toks[0] != ":":
            raise cur.expected(0, repr(":"))
        vars_seen: dict[str, str] = {}
        lhs, i = self._parse_patterns(cur, 1, vars_seen)
        cur.end(i)
        return tuple(lhs), vars_seen

    def _right_segment(self, line: int, text: str) -> _Side:
        cur = _Cursor(text, line)
        vars_seen: dict[str, str] = {}
        rhs, i = self._parse_created(cur, 0, vars_seen)
        cur.end(i)
        return rhs, vars_seen

    def _guard_segment(self, line: int, bar: str, text: str) -> tuple[TimeConstraint, ...]:
        if not bar:
            return ()
        cur = _Cursor(text, line)
        guard, i = self._parse_guard(cur, 0)
        cur.end(i)
        return guard

    def _rules(
        self,
        line: int,
        name: str,
        guard: tuple[TimeConstraint, ...],
        sides: RuleSides | None,
        parts: _Parts | None,
    ) -> tuple[Rule, ...]:
        """The rules of one line: one per alternative of its guard (``>=``
        expanded) over its sides, given as a RuleSides or as the parts of a
        new one."""
        if sides is not None:
            time_var, past = sides.time_var, sides.past_bounds
        else:
            time_var, past = parts[0], [p.tvar for p in parts[2]]
        alts = expand_guard(guard, time_var, frozenset(past))
        try:
            if sides is None:
                sides = rule_sides(name, alts[0], *parts)
            return tuple([Rule(name, sides, alt) for alt in alts])
        except RuleError as exc:
            raise SpecParseError("syntax", str(exc), line) from None

    def _parse_rule_tokens(
        self, line: int, text: str
    ) -> tuple[str, _Side, tuple[TimeConstraint, ...], _Side]:
        """A rule line's name, left side, guard atoms (before ``>=``
        expansion) and right side, parsed from its tokens."""
        cur = _Cursor(text, line, 1)
        toks = cur.toks
        name = cur.expect(1, "string").strip('"')
        if toks[2] != ":":
            raise cur.expected(2, repr(":"))
        vars_seen: dict[str, str] = {}
        lhs, i = self._parse_patterns(cur, 3, vars_seen)
        left_sorts = dict(vars_seen)
        guard: tuple[TimeConstraint, ...] = ()
        if toks[i] == "|":
            guard, i = self._parse_guard(cur, i + 1)
        if toks[i] != "->":
            raise cur.expected(i, repr("arrow"))
        rhs, i = self._parse_created(cur, i + 1, vars_seen)
        cur.end(i)
        right_sorts = {}
        if vars_seen:
            right_sorts = {v.name: v.sort for f, _, _ in rhs for v in fact_vars(f)}
        return name, (tuple(lhs), left_sorts), guard, (rhs, right_sorts)

    @staticmethod
    def _classify(line: int, name: str, lhs: _Left, rhs: _Right) -> _Parts:
        """A rule's clock variable and its preserved, consumed and created
        facts, from its two sides."""
        time_vars = [tv for f, tv in lhs if f.pred == TIME]
        rhs_time = [(f, tv, off) for f, tv, off in rhs if f.pred == TIME]
        if len(time_vars) > 1 or len(rhs_time) > 1:
            raise SpecParseError(
                "single-time",
                f"rule {name!r} may read the clock through at most one Time fact",
                line,
            )
        if time_vars:
            time_var = time_vars[0]
            if (
                len(rhs_time) != 1
                or rhs_time[0][1] != time_var
                or rhs_time[0][2] != 0
            ):
                raise SpecParseError(
                    "single-time",
                    f"rule {name!r} must keep the Time fact unchanged on the right",
                    line,
                )
        elif rhs_time:
            raise SpecParseError(
                "single-time",
                f"rule {name!r} has a Time fact only on the right",
                line,
            )
        else:
            time_var = None  # inferred below from the created facts
        lhs = [(f, tv) for f, tv in lhs if f.pred != TIME]
        rhs = [(f, tv, off) for f, tv, off in rhs if f.pred != TIME]

        remaining = list(lhs)
        preserved: list[RulePattern] = []
        created_raw: list[tuple[Fact, str, int]] = []
        for f, tv, off in rhs:
            if off == 0 and (f, tv) in remaining:
                remaining.remove((f, tv))
                preserved.append(RulePattern(f, tv))
            else:
                created_raw.append((f, tv, off))
        if time_var is None:
            # The clock fact was left implicit; the clock variable is the
            # one the created facts are stamped against.
            stamped = {tv for _, tv, _ in created_raw}
            if len(stamped) == 1:
                time_var = stamped.pop()
            elif not stamped and lhs:
                time_var = lhs[0][1]
            else:
                raise SpecParseError(
                    "single-time",
                    f"rule {name!r}: cannot infer the clock variable",
                    line,
                )
        created: list[CreatedFact] = []
        for f, tv, off in created_raw:
            if tv != time_var:
                raise SpecParseError(
                    "syntax",
                    f"rule {name!r}: created fact {fact_text(f)} must be stamped "
                    f"relative to the clock variable {time_var!r}",
                    line,
                )
            created.append(CreatedFact(f, off))
        consumed = tuple(RulePattern(f, tv) for f, tv in remaining)
        return time_var, tuple(preserved), consumed, tuple(created)

    def _parse_init(self, line: int, text: str) -> list[TimestampedFact]:
        cur = _Cursor(text, line, 2)
        toks = cur.toks
        i = 2
        out = []
        vars_seen: dict[str, str] = {}
        while True:
            f, i = self._parse_fact(cur, i, vars_seen)
            if vars_seen:
                name = next(iter(vars_seen))
                raise SpecParseError(
                    "syntax", f"initial facts must be ground, found variable {name!r}", line
                )
            cur.expect(i, "@")
            ts = int(cur.expect(i + 1, "num"))
            out.append(TimestampedFact(f, ts))
            i += 2
            if toks[i] != ",":
                break
            i += 1
        cur.end(i)
        return out

    def _parse_critical(self, line: int, text: str) -> tuple[CriticalPair, ...]:
        cur = _Cursor(text, line, 1)
        toks = cur.toks
        name = cur.expect(1, "string").strip('"')
        cur.expect(2, ":")
        cur.expect(3, "{")
        pairs, i = self._parse_patterns(cur, 4, {})
        patterns = [RulePattern(f, tv) for f, tv in pairs]
        guard: list[TimeConstraint] = []
        if toks[i] == "|":
            i += 1
            while toks[i] != "}":
                c, i = self._parse_constraint(cur, i)
                guard.append(c)
                if toks[i] != ",":
                    break
                i += 1
        cur.expect(i, "}")
        cur.end(i + 1)
        try:
            return expand_critical_pair(name, patterns, guard)
        except RuleError as exc:
            raise SpecParseError("syntax", str(exc), line) from None

    # -- assembly ---------------------------------------------------------

    def assemble(self) -> SpecFile:
        self.build_signature()
        rules: list[Rule] = []
        for line, text in self.rule_lines:
            rules.extend(self._parse_rule(line, text))
        init_facts: list[TimestampedFact] = []
        for line, text in self.init_lines:
            init_facts.extend(self._parse_init(line, text))
        if not self.init_lines:
            raise SpecParseError("single-time", "missing init block", 1)
        try:
            init = Configuration(tuple(init_facts))
        except ConfigurationError:
            raise SpecParseError(
                "single-time",
                "single Time fact required in the initial configuration",
                self.init_lines[0][0],
            ) from None
        pairs: list[CriticalPair] = []
        for line, text in self.critical_lines:
            pairs.extend(self._parse_critical(line, text))
        critical = CriticalSpec(tuple(pairs))
        try:
            system = make_system(
                self.sig,
                rules,
                max_fact_size=self.params.get("k"),
                init=init,
                dmax_override=self.params.get("dmax"),
            )
        except (RuleError, SortError) as exc:
            raise SpecParseError(
                "sort", str(exc), self.params_line or 1
            ) from None
        for tf in init:
            try:
                check_fact(self.sig, tf.fact)
            except SortError as exc:
                raise SpecParseError("sort", str(exc), self.init_lines[0][0]) from None
        return SpecFile(system, init, critical, self.params.get("ticks"))


def parse_spec(text: str) -> SpecFile:
    p = SpecParser()
    p.read(text)
    return p.assemble()


# ---------------------------------------------------------------------------
# Printer


def print_spec(spec: SpecFile) -> str:
    sig = spec.system.signature
    lines = [HEADER]
    for s in sorted(sig.sorts - RESERVED_SORTS):
        lines.append(f"sort {s}")
    for name in sorted(sig.constants):
        if name not in RESERVED_CONSTS:
            lines.append(f"const {name} : {sig.constants[name]}")
    for name in sorted(sig.functions):
        if name not in RESERVED_FNS:
            argsorts, res = sig.functions[name]
            lines.append(f"fn {name} : {' '.join(argsorts)} -> {res}")
    for name in sorted(sig.predicates):
        if name not in RESERVED_PREDS:
            argsorts = sig.predicates[name]
            suffix = f" : {' '.join(argsorts)}" if argsorts else ""
            lines.append(f"pred {name}{suffix}")
    for r in spec.system.rules:
        lines.append(r.text)
    lines.append("init: " + spec.init.text())
    for p in spec.critical.pairs:
        lines.append(p.text)
    params = [f"k={spec.system.max_fact_size}"]
    if spec.system.dmax_override is not None:
        params.append(f"dmax={spec.system.dmax_override}")
    if spec.ticks is not None:
        params.append(f"ticks={spec.ticks}")
    lines.append("params: " + ", ".join(params))
    return "\n".join(lines) + "\n"
