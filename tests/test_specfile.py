import pytest
from support import only_rule_line, parse_outcome, rule_line_numbers

from tmsr import (
    Configuration,
    Const,
    Fact,
    TimestampedFact,
    check_progressive,
)
from tmsr.scenarios import Cnf3, DroneParams, TmSpec, gen_3sat, gen_drone, gen_tm
from tmsr.specfile import (
    HEADER,
    SpecParseError,
    SpecParser,
    parse_spec,
    print_spec,
)

SAMPLE = """\
tmsr-spec 1
sort Id
const d1 : Id
const p1 : Id
pred Dr : Id Nat Nat Nat
pred P : Id Nat Nat
rule "move": Time@T, P(p1,0,1)@T1, Dr(d1,1,1,2)@T | T = T1 + 1 -> Time@T, P(p1,0,1)@T1, Dr(d1,0,1,1)@(T+1)
init: Time@0, Dr(d1,1,1,2)@0, P(p1,0,1)@0
critical "flat": { Dr(Id,X,Y,0)@T }
critical "stale": { P(p1,0,1)@T1, Time@T | T > T1 + 6 }
params: k=12, ticks=24
"""


class TestParse:
    def test_sample_parses(self):
        spec = parse_spec(SAMPLE)
        assert len(spec.system.rules) == 1
        rule = spec.system.rules[0]
        assert rule.name == "move"
        assert len(rule.preserved) == 1 and len(rule.consumed) == 1
        assert rule.created[0].offset == 1
        assert spec.system.max_fact_size == 12
        assert spec.ticks == 24
        assert len(spec.critical.pairs) == 2

    def test_two_drone_init_round_trips(self):
        text = (
            "tmsr-spec 1\n"
            "sort Id\n"
            "const d1 : Id\nconst d2 : Id\nconst p1 : Id\nconst p2 : Id\n"
            "pred Dr : Id Nat Nat Nat\npred P : Id Nat Nat\n"
            "init: Time@4, Dr(d1,1,2,10)@4, Dr(d2,5,5,8)@4, P(p1,1,1)@3, P(p2,5,6)@0\n"
        )
        spec = parse_spec(text)
        want = Configuration(
            (
                TimestampedFact(Fact("Time"), 4),
                TimestampedFact(Fact("Dr", (Const("d1"), 1, 2, 10)), 4),
                TimestampedFact(Fact("Dr", (Const("d2"), 5, 5, 8)), 4),
                TimestampedFact(Fact("P", (Const("p1"), 1, 1)), 3),
                TimestampedFact(Fact("P", (Const("p2"), 5, 6)), 0),
            )
        )
        assert spec.init == want
        assert parse_spec(print_spec(spec)).init == want

    def test_clockless_rule_parses_but_is_not_progressive(self):
        text = (
            "tmsr-spec 1\n"
            "pred P\n"
            'rule "tick-like": P@T -> P@(T+0)\n'
            "init: Time@0, P@0\n"
        )
        spec = parse_spec(text)
        assert len(spec.system.rules) == 1
        assert check_progressive(spec.system) == ["tick-like"]

    def test_missing_time_in_init_diagnosed(self):
        text = "tmsr-spec 1\npred P\ninit: P@0\n"
        with pytest.raises(SpecParseError) as err:
            parse_spec(text)
        assert err.value.code == "single-time"

    def test_double_time_in_init_diagnosed(self):
        text = "tmsr-spec 1\ninit: Time@0, Time@1\n"
        with pytest.raises(SpecParseError) as err:
            parse_spec(text)
        assert err.value.code == "single-time"

    def test_missing_header(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec("pred P\ninit: Time@0\n")
        assert err.value.code == "syntax"
        assert HEADER in str(err.value)

    def test_syntax_error_carries_position(self):
        text = "tmsr-spec 1\npred P :: Nat\n"
        with pytest.raises(SpecParseError) as err:
            parse_spec(text)
        assert err.value.line == 2 and err.value.col > 0

    def test_arity_error(self):
        text = "tmsr-spec 1\npred P : Nat Nat\ninit: Time@0, P(1)@0\n"
        with pytest.raises(SpecParseError) as err:
            parse_spec(text)
        assert err.value.code == "arity"

    def test_sort_error(self):
        text = (
            "tmsr-spec 1\nsort A\nconst a : A\npred P : Nat\n"
            "init: Time@0, P(a)@0\n"
        )
        with pytest.raises(SpecParseError) as err:
            parse_spec(text)
        assert err.value.code == "sort"

    def test_undeclared_predicate(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec("tmsr-spec 1\ninit: Time@0, Ghost@0\n")
        assert err.value.code == "sort"

    def test_variable_sort_consistency(self):
        text = (
            "tmsr-spec 1\nsort A\nconst a : A\n"
            "pred P : A Nat\npred Q\n"
            'rule "r": Time@T, P(X,X)@T1 -> Time@T, Q@(T+1)\n'
            "init: Time@0\n"
        )
        with pytest.raises(SpecParseError) as err:
            parse_spec(text)
        assert err.value.code == "sort"

    def test_comments_and_blank_lines_ignored(self):
        text = "tmsr-spec 1\n\n# a comment\ninit: Time@0  # trailing\n"
        spec = parse_spec(text)
        assert len(spec.init) == 1

    def test_reserved_names_rejected(self):
        for bad in ("sort Nat", "pred Time", "const z : Nat", "fn s : Nat -> Nat"):
            with pytest.raises(SpecParseError) as err:
                parse_spec(f"tmsr-spec 1\n{bad}\ninit: Time@0\n")
            assert err.value.code == "duplicate"

    def test_ge_guard_loads_alternative_rules(self):
        text = (
            "tmsr-spec 1\npred A\npred B\n"
            'rule "r": Time@T, A@Ta, B@Tb -> Time@T, A@Ta, B@(T+1)\n'
            "init: Time@0, A@0, B@0\n"
        )
        base = parse_spec(text)
        assert len(base.system.rules) == 1
        text_ge = text.replace("A@Ta, B@Tb ->", "A@Ta, B@Tb | T >= Ta + 1 ->")
        spec = parse_spec(text_ge)
        assert len(spec.system.rules) == 2
        assert {r.name for r in spec.system.rules} == {"r"}

    def test_params_validation(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec("tmsr-spec 1\ninit: Time@0\nparams: zoom=4\n")
        assert err.value.code == "params"

    def test_fact_text_helper(self):
        spec = parse_spec(SAMPLE)
        parser = SpecParser.for_signature(spec)
        f = parser.fact_text("Dr(d1,1,2,10)")
        assert f == Fact("Dr", (Const("d1"), 1, 2, 10))
        with pytest.raises(SpecParseError):
            parser.fact_text("Dr(X,1,2,10)")

    def test_function_symbols_round_trip_and_match(self):
        # Successor patterns walk a coordinate inside a function term; the
        # over-walked cell is critical, so the witness must take the goal
        # rule at the top.
        text = (
            "tmsr-spec 1\n"
            "sort Loc\n"
            "fn cell : Nat Nat -> Loc\n"
            "pred At : Loc\n"
            "pred Goal\n"
            'rule "step": Time@T, At(cell(X,Y))@T -> Time@T, At(cell(X,s(Y)))@(T+1)\n'
            'rule "reach": Time@T, At(cell(0,2))@T -> Time@T, Goal@(T+1)\n'
            "init: Time@0, At(cell(0,0))@0\n"
            'critical "lost": { At(cell(0,3))@T }\n'
            "params: k=8\n"
        )
        spec = parse_spec(text)
        assert print_spec(parse_spec(print_spec(spec))) == print_spec(spec)

        from tmsr import HOLDS, bounded_realizability

        v = bounded_realizability(spec.system, spec.init, spec.critical, 3)
        assert v.outcome == HOLDS
        assert any(
            s.label == "reach" for s in v.witness.steps
        ), "goal rule should fire after the successor pattern walks up"

    def test_dmax_override_parses_and_applies(self):
        from tmsr import compute_dmax

        text = (
            "tmsr-spec 1\npred P\n"
            "init: Time@0, P@0\nparams: k=3, dmax=7\n"
        )
        spec = parse_spec(text)
        assert spec.system.dmax_override == 7
        assert compute_dmax(spec.system, spec.init, spec.critical) == 7
        assert "dmax=7" in print_spec(spec)


# Malformed inputs and the diagnostic each one gets: code, line, column and
# the full message. PRE declares what the inputs below may use.
PRE = (
    "tmsr-spec 1\nsort Id\nconst d1 : Id\nconst p1 : Id\n"
    "pred Dr : Id Nat Nat Nat\npred P : Id Nat Nat\n"
)
INIT = "init: Time@0, P(p1,0,1)@0\n"
LATE_ERROR = "params: k=4, depth=3\n"
GOOD_RULE = (
    'rule "m": Time@T, P(p1,0,1)@T1 | T = T1 + 1 -> '
    "Time@T, P(p1,0,1)@T1, Dr(d1,0,1,1)@(T+1)"
)
MALFORMED_SPECS = {
    "stray-character": PRE + INIT + "params: k=4 $\n",
    "stray-in-rule-before-later-error": PRE + 'rule "m": Time@T ~ -> Time@T\n' + "bogus x\n",
    "unterminated-string": PRE + 'rule "m: Time@T -> Time@T\n' + INIT,
    # A string ends on its line: two lone quotes on two lines make none.
    "quotes-on-two-lines": PRE
    + 'rule "m: Time@T -> Time@T\n'
    + 'critical c": { P(p1,0,1)@T }\n'
    + INIT,
    "hash-in-rule-name": PRE
    + 'rule "a#b": Time@T, Q(p1)@T1 -> Time@T, Q(p1)@T1  # note\n'
    + INIT,
    "missing-arrow": PRE + 'rule "m": Time@T, P(p1,0,1)@T1 Time@T, P(p1,0,1)@T1\n' + INIT,
    "too-many-args": PRE + 'rule "m": Time@T, P(p1,0,1,2)@T1 -> Time@T, P(p1,0,1,2)@T1\n' + INIT,
    "too-few-args": PRE + 'rule "m": Time@T, P(p1,0)@T1 -> Time@T, P(p1,0)@T1\n' + INIT,
    "missing-args": PRE + 'rule "m": Time@T, P@T1 -> Time@T, P@T1\n' + INIT,
    "trailing-input": PRE + "sort Extra junk\n" + INIT,
    "trailing-input-pred": PRE + "pred Q junk (\n" + INIT,
    "trailing-input-rule": PRE + GOOD_RULE + " )\n" + INIT,
    "unknown-declaration": PRE + "predicate Q\n" + INIT,
    "unknown-parameter": PRE + INIT + "params: k=4, depth=3\n",
    "numeral-for-id": PRE + 'rule "m": Time@T, P(7,0,1)@T1 -> Time@T, P(7,0,1)@T1\n' + INIT,
    "undeclared-predicate": PRE + "init: Time@0, Ghost(d1)@0\n",
    "undeclared-constant": PRE + "init: Time@0, P(p9,0,1)@0\n",
    "undeclared-function": PRE
    + 'rule "m": Time@T, P(p1,f(0),1)@T1 -> Time@T, P(p1,f(0),1)@T1\n'
    + INIT,
    "bad-guard-operator": PRE
    + 'rule "m": Time@T, P(p1,0,1)@T1 | T < T1 -> Time@T, P(p1,0,1)@T1\n'
    + INIT,
    "end-of-line": PRE + 'rule "m": Time@T, P(p1,0,1)@T1 ->\n' + INIT,
    "empty-rule": PRE + "rule\n" + INIT,
    "empty-init": PRE + "init:\n",
    "init-without-colon": PRE + "init Time@0\n",
    "missing-header": "tmsr-spec 2\n" + INIT,
    "empty-spec": "# nothing\n\n",
    "duplicate-sort": PRE + "sort Id\n" + INIT,
    "tvar-lowercase": PRE + 'rule "m": Time@t -> Time@t\n' + INIT,
    "critical-unclosed": PRE + INIT + 'critical "c": { P(p1,0,1)@T\n',
    "tab-indented-error": PRE + INIT + '\tcritical\t"c": { P(p1,0,1)@T | T ! T }\n',
    "stray-in-critical-before-rule-error": PRE
    + 'rule "m": Time@T, Ghost@T -> Time@T\n'
    + INIT
    + 'critical "c": { P(p1,0,1)@T ? }\n',
    "non-ascii-letter": PRE + "init: Time@0, P(p1,0,1)@0, \u00e9\n",
    # Only ASCII digits make a numeral and only ASCII whitespace is blank.
    "arabic-indic-digit": PRE + "init: Time@0, Dr(d1,1,1,\u0664)@0\n",
    "fullwidth-digits": PRE + INIT + "params: k=\uff11\uff13\n",
    "no-break-space": PRE + "init:\u00a0Time@0, P(p1,0,1)@0\n",
    "no-break-space-line": PRE + "\u00a0\n" + INIT,
    "fn-missing-result": PRE + "fn f : Nat Nat\n" + INIT,
    # A rule's guard is checked before its sides.
    "guard-variable-and-created-variable-unbound": PRE
    + 'rule "m": Time@T, P(p1,0,1)@T1 | T = T9 -> Time@T, P(p1,0,1)@T1, Dr(d1,X,1,1)@(T+1)\n'
    + INIT,
    "variable-sort-clash": PRE
    + 'rule "m": Time@T, P(X,0,1)@T1, Dr(d1,X,1,1)@T1 -> '
    + "Time@T, P(X,0,1)@T1, Dr(d1,X,1,1)@T1\n"
    + INIT,
    # Only "\n" ends a line (a "\r" before it is dropped); any other line
    # break is a stray character, and "\f", "\v" and "\r" are blanks.
    "line-separator": PRE + INIT[:-1] + "\u2028\n" + LATE_ERROR,
    "paragraph-separator": PRE + INIT[:-1] + "\u2029\n" + LATE_ERROR,
    "next-line": PRE + INIT[:-1] + "\x85\n" + LATE_ERROR,
    "file-separator": PRE + "init: Time@0,\x1c P(p1,0,1)@0\n" + LATE_ERROR,
    "group-separator": PRE + "\x1d" + INIT + LATE_ERROR,
    "record-separator": PRE + INIT + "params: k=4,\x1edepth=3\n",
    "form-feed-at-end": PRE + INIT[:-1] + "\f\n" + LATE_ERROR,
    "vertical-tab-at-end": PRE + INIT[:-1] + "\v\n" + LATE_ERROR,
    "form-feed-and-vertical-tab-in-line": PRE + INIT + "params:\fk=4,\vdepth=3\n",
    "crlf-line-ends": (PRE + INIT + LATE_ERROR).replace("\n", "\r\n"),
    "carriage-return-in-line": PRE + INIT + "params: k=4,\rdepth=3\n",
}
MALFORMED_FACTS = {
    "fact-not-ground": "P(X,0,1)",
    "fact-trailing": "P(p1,0,1) P",
    "fact-stray": "P(p1,0,1)!",
    "fact-non-ascii-digit": "P(p1,0,\u0661)",
    "nullary-unclosed": "Time(",
    "nullary-with-argument": "Time(1)",
    "nullary-parentheses-twice": "Time()(",
}
MALFORMED_TERMS = {
    "term-wrong-sort": ("p1", "Nat"),
    "term-empty": ("", "Nat"),
    "term-not-ground": ("s(X)", "Nat"),
}
DIAGNOSTICS = {
    "nullary-unclosed": ("syntax", 1, 5, "1:5: [syntax] unexpected end of line"),
    "nullary-with-argument": ("syntax", 1, 6, "1:6: [syntax] expected ')', found '1'"),
    "nullary-parentheses-twice": ("syntax", 1, 7, "1:7: [syntax] trailing input '('"),
    "stray-character": ("syntax", 8, 13, "8:13: [syntax] unexpected character '$'"),
    "stray-in-rule-before-later-error": (
        "syntax",
        7,
        18,
        "7:18: [syntax] unexpected character '~'",
    ),
    "unterminated-string": ("syntax", 7, 6, "7:6: [syntax] unexpected character '\"'"),
    "quotes-on-two-lines": ("syntax", 7, 6, "7:6: [syntax] unexpected character '\"'"),
    "hash-in-rule-name": ("sort", 7, 21, "7:21: [sort] undeclared predicate 'Q'"),
    "missing-arrow": ("syntax", 7, 32, "7:32: [syntax] expected 'arrow', found 'Time'"),
    "too-many-args": ("arity", 7, 27, "7:27: [arity] predicate 'P' takes 3 arguments"),
    "too-few-args": ("arity", 7, 25, "7:25: [arity] predicate 'P' takes 3 arguments"),
    "missing-args": ("arity", 7, 19, "7:19: [arity] predicate 'P' takes 3 arguments, found 0"),
    "trailing-input": ("syntax", 7, 12, "7:12: [syntax] trailing input 'junk'"),
    "trailing-input-pred": ("syntax", 7, 8, "7:8: [syntax] trailing input 'junk'"),
    "trailing-input-rule": ("syntax", 7, 89, "7:89: [syntax] trailing input ')'"),
    "unknown-declaration": ("syntax", 7, 1, "7:1: [syntax] unknown declaration 'predicate'"),
    "unknown-parameter": ("params", 8, 14, "8:14: [params] unknown parameter 'depth'"),
    "numeral-for-id": ("sort", 7, 21, "7:21: [sort] numeral where a 'Id' term is expected"),
    "undeclared-predicate": ("sort", 7, 15, "7:15: [sort] undeclared predicate 'Ghost'"),
    "undeclared-constant": ("sort", 7, 17, "7:17: [sort] undeclared constant 'p9'"),
    "undeclared-function": ("sort", 7, 24, "7:24: [sort] undeclared function 'f'"),
    "bad-guard-operator": ("syntax", 7, 36, "7:36: [syntax] expected >, = or >=, found '<'"),
    "end-of-line": ("syntax", 7, 32, "7:32: [syntax] unexpected end of line"),
    "empty-rule": ("syntax", 7, 1, "7:1: [syntax] unexpected end of line"),
    "empty-init": ("syntax", 7, 1, "7:1: [syntax] unexpected end of line"),
    "init-without-colon": ("syntax", 7, 6, "7:6: [syntax] expected ':', found 'Time'"),
    "missing-header": ("syntax", 1, 0, "1:0: [syntax] missing header line 'tmsr-spec 1'"),
    "empty-spec": ("syntax", 1, 0, "1:0: [syntax] empty spec"),
    "duplicate-sort": ("duplicate", 7, 6, "7:6: [duplicate] sort 'Id' already declared"),
    "tvar-lowercase": ("syntax", 7, 16, "7:16: [syntax] time variable expected, found 't'"),
    "critical-unclosed": ("syntax", 8, 27, "8:27: [syntax] unexpected end of line"),
    "tab-indented-error": ("syntax", 8, 34, "8:34: [syntax] unexpected character '!'"),
    "stray-in-critical-before-rule-error": (
        "syntax",
        9,
        29,
        "9:29: [syntax] unexpected character '?'",
    ),
    "non-ascii-letter": ("syntax", 7, 28, "7:28: [syntax] unexpected character 'é'"),
    "arabic-indic-digit": ("syntax", 7, 25, "7:25: [syntax] unexpected character '\u0664'"),
    "fullwidth-digits": ("syntax", 8, 11, "8:11: [syntax] unexpected character '\uff11'"),
    "no-break-space": ("syntax", 7, 6, "7:6: [syntax] unexpected character '\\xa0'"),
    "no-break-space-line": ("syntax", 7, 1, "7:1: [syntax] unexpected character '\\xa0'"),
    "fn-missing-result": ("syntax", 7, 12, "7:12: [syntax] unexpected end of line"),
    "guard-variable-and-created-variable-unbound": (
        "syntax",
        7,
        0,
        "7:0: [syntax] rule 'm': guard variable 'T9' does not appear in the precondition",
    ),
    "variable-sort-clash": (
        "sort",
        7,
        38,
        "7:38: [sort] variable 'X' used at sorts 'Id' and 'Nat'",
    ),
    "line-separator": ("syntax", 7, 26, "7:26: [syntax] unexpected character '\\u2028'"),
    "paragraph-separator": ("syntax", 7, 26, "7:26: [syntax] unexpected character '\\u2029'"),
    "next-line": ("syntax", 7, 26, "7:26: [syntax] unexpected character '\\x85'"),
    "file-separator": ("syntax", 7, 14, "7:14: [syntax] unexpected character '\\x1c'"),
    "group-separator": ("syntax", 7, 1, "7:1: [syntax] unexpected character '\\x1d'"),
    "record-separator": ("syntax", 8, 13, "8:13: [syntax] unexpected character '\\x1e'"),
    "form-feed-at-end": ("params", 8, 14, "8:14: [params] unknown parameter 'depth'"),
    "vertical-tab-at-end": ("params", 8, 14, "8:14: [params] unknown parameter 'depth'"),
    "form-feed-and-vertical-tab-in-line": (
        "params",
        8,
        14,
        "8:14: [params] unknown parameter 'depth'",
    ),
    "crlf-line-ends": ("params", 8, 14, "8:14: [params] unknown parameter 'depth'"),
    "carriage-return-in-line": ("params", 8, 14, "8:14: [params] unknown parameter 'depth'"),
    "fact-not-ground": ("syntax", 1, 0, "1:0: [syntax] fact is not ground"),
    "fact-trailing": ("syntax", 1, 11, "1:11: [syntax] trailing input 'P'"),
    "fact-stray": ("syntax", 1, 10, "1:10: [syntax] unexpected character '!'"),
    "fact-non-ascii-digit": ("syntax", 1, 8, "1:8: [syntax] unexpected character '\u0661'"),
    "term-wrong-sort": ("sort", 1, 1, "1:1: [sort] constant 'p1' has sort 'Id', expected 'Nat'"),
    "term-empty": ("syntax", 1, 1, "1:1: [syntax] unexpected end of line"),
    "term-not-ground": ("syntax", 1, 0, "1:0: [syntax] term is not ground"),
}


def _diagnose(name):
    with pytest.raises(SpecParseError) as err:
        if name in MALFORMED_SPECS:
            parse_spec(MALFORMED_SPECS[name])
        elif name in MALFORMED_FACTS:
            SpecParser.for_signature(parse_spec(PRE + INIT)).fact_text(MALFORMED_FACTS[name])
        else:
            SpecParser.for_signature(parse_spec(PRE + INIT)).term_text(*MALFORMED_TERMS[name])
    exc = err.value
    return (exc.code, exc.line, exc.col, str(exc))


class TestDiagnostics:
    @pytest.mark.parametrize("name", list(DIAGNOSTICS))
    def test_diagnostic_is_pinned(self, name):
        assert _diagnose(name) == DIAGNOSTICS[name]

    def test_table_covers_every_input(self):
        names = set(MALFORMED_SPECS) | set(MALFORMED_FACTS) | set(MALFORMED_TERMS)
        assert names == set(DIAGNOSTICS)

    def test_text_check_accepts_what_the_line_check_accepts(self):
        # A text made only of these skips the per-line check of its lines
        # whose quotes pair up: each such character must pass that check.
        from tmsr.specfile import _CLEAN_RE, _TOKEN_BYTES

        line_check = {chr(c) for c in range(0x110000) if _CLEAN_RE.fullmatch(chr(c))}
        assert set(_TOKEN_BYTES.decode()) == line_check | {'"'}


class TestRoundTrips:
    SPECS = {
        "drone-greedy": lambda: gen_drone(DroneParams(recency=3)),
        "drone-free-wind": lambda: gen_drone(
            DroneParams(strategy="free", wind=((1, 1, "south"),))
        ),
        "drone-station": lambda: gen_drone(
            DroneParams(single_slot_station=True, recency=3)
        ),
        "drone-greedy-d2-r9": lambda: gen_drone(
            DroneParams(drones=2, recency=9, strategy="greedy")
        ),
        "drone-free-d2-r8": lambda: gen_drone(
            DroneParams(drones=2, recency=8, strategy="free")
        ),
        "sat": lambda: gen_3sat(Cnf3(3, ((1, -2, 3), (-1, 2, -3)))),
        "tm": lambda: gen_tm(
            TmSpec(
                states=("q0", "q1", "qa"),
                final_states=frozenset(("qa",)),
                alphabet=("0", "1"),
                instructions={
                    ("q0", "0"): ("q1", "1", "R"),
                    ("q0", "1"): ("qa", "1", "N"),
                    ("q1", "0"): ("q0", "0", "L"),
                    ("q1", "1"): ("q1", "0", "R"),
                },
                space=2,
                input_word=("0", "1"),
            )
        ),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_identity_on_generated_specs(self, name):
        spec = self.SPECS[name]()
        text = print_spec(spec)
        again = parse_spec(text)
        assert again.system.rules == spec.system.rules
        assert again.system.signature.predicates == spec.system.signature.predicates
        assert again.system.max_fact_size == spec.system.max_fact_size
        assert again.init == spec.init
        assert again.critical == spec.critical
        assert again.ticks == spec.ticks
        assert print_spec(again) == text

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_each_rule_line_yields_what_it_yields_alone(self, name):
        # A line may take segments stored from earlier lines of the parse;
        # alone, with every other rule line blanked, it takes none.
        text = print_spec(self.SPECS[name]())
        rules = parse_spec(text).system.rules
        i = 0
        for j in rule_line_numbers(text):
            alone = parse_spec(only_rule_line(text, j)).system.rules
            assert alone and rules[i : i + len(alone)] == alone
            i += len(alone)
        assert i == len(rules)


class TestFactInterning:
    """Within one parse, tokens that spelled a flat ground fact parse to
    that same Fact object again; any other fact parses as if fresh."""

    def test_repeated_ground_facts_are_one_object(self):
        spec = parse_spec(print_spec(gen_drone(DroneParams(drones=2, recency=4))))
        by_value = {}
        for r in spec.system.rules:
            for f in [p.fact for p in r.patterns] + [cf.fact for cf in r.created]:
                assert by_value.setdefault(f, f) is f
        for tf in spec.init:
            if tf.fact.args:
                assert by_value.get(tf.fact, tf.fact) is tf.fact
        picture = Fact("P", (Const("p1"), 0, 1))
        assert sum(p.fact == picture for r in spec.system.rules for p in r.patterns) > 100

    LOOKALIKES = """\
tmsr-spec 1
sort Id
const a : Id
pred F : Nat
pred U : Id
pred Q
rule "flat": Time@T, F(3)@T1, U(a)@T2, Q@T3 -> Time@T, F(3)@T1, U(a)@T2, Q@(T+1)
rule "nested": Time@T, F(s(2))@T1, Q@T2 -> Time@T, F(s(2))@T1, Q@(T+1)
rule "nested-var": Time@T, F(s(E))@T1 -> Time@T, F(E)@(T+1)
rule "var": Time@T, U(X)@T1, Q()@T2 -> Time@T, U(X)@(T+1), Q@(T+1)
rule "flat-again": Time@T, F(3)@T1, U(a)@T2, Q()@T3 -> Time@T, F(3)@(T+1), U(a)@T2, Q@T3
init: Time@0, F(3)@0, U(a)@0, Q@0
"""

    def test_lookalikes_parse_as_if_fresh(self):
        head, rules, init = [], [], []
        for line in self.LOOKALIKES.splitlines():
            (rules if line.startswith("rule") else init if line.startswith("init") else head).append(line)
        together = parse_spec(self.LOOKALIKES)
        assert len(together.system.rules) == len(rules)
        for line, got in zip(rules, together.system.rules):
            (fresh,) = parse_spec("\n".join(head + [line] + init) + "\n").system.rules
            assert got == fresh
        by_name = {r.name: r for r in together.system.rules}
        assert by_name["nested"].preserved[0].fact == Fact("F", (3,))
        (pattern,) = by_name["nested-var"].consumed
        assert pattern.fact.args[0] != 3 and pattern.fact != Fact("F", (3,))
        assert by_name["var"].consumed[0].fact.args[0] != Const("a")
        threes = [
            p.fact for name in ("flat", "flat-again") for p in by_name[name].patterns
            if p.fact.pred == "F"
        ]
        assert threes[0] is threes[1]
        nullary = [p.fact for r in together.system.rules for p in r.patterns if p.fact.pred == "Q"]
        assert nullary and all(f == Fact("Q") for f in nullary)

    NULLARY = "tmsr-spec 1\npred A1\ninit: Time@0, A1@0\n"

    @pytest.mark.parametrize("written", ["A1()", " A1 ( ) ", "A1", "Time()", "Time"])
    def test_nullary_fact_with_or_without_parentheses(self, written):
        name = written.strip(" ()")
        spec = parse_spec(self.NULLARY)
        assert SpecParser.for_signature(spec).fact_text(written) == Fact(name)
        other = "A1" if name == "Time" else "Time"
        spec = parse_spec(f"tmsr-spec 1\npred A1\ninit: {written}@0, {other}@0\n")
        assert spec.init.facts == parse_spec(self.NULLARY).init.facts
        if name == "A1":
            line = f'rule "r": Time@T, {written}@Ta -> Time@T, A1@(T+1)\n'
            (rule,) = parse_spec(self.NULLARY.replace("init:", line + "init:")).system.rules
            assert rule.consumed[0].fact is rule.created[0].fact

    def test_one_object_per_distinct_nullary_fact(self):
        text = print_spec(gen_3sat(Cnf3(2, ((1, -2, 2), (-1, -1, 2)))))
        assert "A1@Ta" in text and "I2@Tc" in text
        spec = parse_spec(text + 'rule "paren": Time@T, A1()@Ta, I2()@Tc -> Time@T, A1()@Ta, Itop@(T+1)\n')
        facts = [tf.fact for tf in spec.init]
        for r in spec.system.rules:
            facts += [p.fact for p in r.patterns] + [cf.fact for cf in r.created]
        for pair in spec.critical.pairs:
            facts += [p.fact for p in pair.patterns]
        assert all(not f.args for f in facts)
        by_value = {}
        for f in facts:
            assert by_value.setdefault(f, f) is f
        assert {Fact("A1"), Fact("I2"), Fact("Time")} <= set(by_value)

    def test_variable_after_a_cached_fact_keeps_its_diagnostic(self):
        # U(X) binds X at sort Id in each rule; a U(X) cached from the rule
        # "var" would skip that binding and miss the clash with F(X).
        clash = 'rule "clash": Time@T, U(X)@T1, F(X)@T2 -> Time@T, U(X)@T1, F(X)@(T+1)\n'
        text = self.LOOKALIKES.replace("init:", clash + "init:")
        with pytest.raises(SpecParseError) as err:
            parse_spec(text)
        assert "variable 'X' used at sorts 'Id' and 'Nat'" in str(err.value)


class TestRuleSegmentMemo:
    """Within one parse, a rule line takes each of its segments (left side,
    guard, right side) that an earlier line which yielded rules held, and
    parses only its other segments, each alone; a line whose segments do
    not parse alone or do not fit together is parsed from its tokens.
    Either way a line gives what it gives with no line like it before it:
    the same rules or the same diagnostic."""

    # name -> (earlier rule lines, the line, whether the line is read by
    # its segments rather than from its tokens, the diagnostic's code or
    # None if the line parses)
    LOOKALIKES = {
        "first-line-read-by-segments": ([], GOOD_RULE, True, None),
        "first-line-with-a-spaced-fact": (
            [],
            GOOD_RULE.replace("P(p1,0,1)@T1 |", "P( p1 , 0,1 ) @ T1 |"),
            True,
            None,
        ),
        "right-side-stamp-without-a-plus": (
            [],
            GOOD_RULE.replace("@(T+1)", "@(T 1)"),
            False,
            "syntax",
        ),
        "token-before-name": (
            [GOOD_RULE],
            GOOD_RULE.replace('rule "m"', 'rule x "m"'),
            False,
            "syntax",
        ),
        "stored-guard-variable-unbound": (
            [GOOD_RULE, 'rule "g": Time@T, Dr(d1,0,1,1)@T2 -> Time@T, Dr(d1,0,1,0)@(T+1)'],
            'rule "u": Time@T, Dr(d1,0,1,1)@T2 | T = T1 + 1 -> Time@T, Dr(d1,0,1,0)@(T+1)',
            True,
            "syntax",
        ),
        "stored-right-side-variable-at-another-sort": (
            ['rule "g": Time@T, P(p1,X,1)@T1 -> Time@T, P(p1,X,1)@(T+1)'],
            'rule "s": Time@T, P(X,0,1)@T1 -> Time@T, P(p1,X,1)@(T+1)',
            False,
            "sort",
        ),
        "bar-with-empty-guard": (
            ['rule "g": Time@T, P(p1,0,1)@T1 -> Time@T, P(p1,0,1)@T1'],
            'rule "e": Time@T, P(p1,0,1)@T1 |-> Time@T, P(p1,0,1)@T1',
            False,
            "syntax",
        ),
        "arrow-and-bar-in-name": (
            [GOOD_RULE],
            GOOD_RULE.replace('rule "m"', 'rule "a->b|c"'),
            True,
            None,
        ),
        "arrow-and-bar-in-name-before-a-bad-side": (
            [GOOD_RULE],
            GOOD_RULE.replace('rule "m"', 'rule "a->b|c"').replace("Dr(d1,", "Ghost(d1,"),
            False,
            "sort",
        ),
        # Side-level lookalikes: the line's two sides come from different
        # lines, or one side is stored and the other is not.
        "stored-right-side-creates-a-variable-the-stored-left-side-leaves-unbound": (
            [
                'rule "a": Time@T, Dr(d1,X,1,1)@T1 -> Time@T, Dr(d1,X,1,0)@(T+1)',
                'rule "b": Time@T, Dr(d1,0,1,1)@T1 -> Time@T, Dr(d1,0,1,0)@(T+1)',
            ],
            'rule "u": Time@T, Dr(d1,0,1,1)@T1 -> Time@T, Dr(d1,X,1,0)@(T+1)',
            True,
            "syntax",
        ),
        "stored-sides-use-a-variable-at-two-sorts": (
            [
                'rule "a": Time@T, P(X,0,1)@T1 -> Time@T, P(X,0,1)@T1',
                'rule "b": Time@T, P(p1,X,1)@T1 -> Time@T, P(p1,X,1)@(T+1)',
            ],
            'rule "s": Time@T, P(X,0,1)@T1 -> Time@T, P(p1,X,1)@(T+1)',
            False,
            "sort",
        ),
        # The stored guard was checked over sides with the same clock and
        # consumed time variables, but it names a variable these leave
        # unbound.
        "stored-guard-over-stored-sides-leaving-its-variable-unbound": (
            [
                GOOD_RULE,
                'rule "b": Time@T, P(p1,0,1)@T2 -> Time@T, P(p1,0,1)@T2, Dr(d1,0,1,1)@(T+1)',
            ],
            'rule "v": Time@T, P(p1,0,1)@T2 | T = T1 + 1 -> '
            "Time@T, P(p1,0,1)@T2, Dr(d1,0,1,1)@(T+1)",
            True,
            "syntax",
        ),
        "stored-pair-with-a-new-guard-naming-an-unbound-variable": (
            ['rule "g": Time@T, P(p1,0,1)@T1 -> Time@T, P(p1,0,1)@T1, Dr(d1,0,1,1)@(T+1)'],
            'rule "n": Time@T, P(p1,0,1)@T1 | T = T9 + 1 -> '
            "Time@T, P(p1,0,1)@T1, Dr(d1,0,1,1)@(T+1)",
            True,
            "syntax",
        ),
        "left-and-right-stored-from-different-lines": (
            [GOOD_RULE, 'rule "b": Time@T, Dr(d1,1,1,1)@T1 -> Time@T, Dr(d1,0,1,1)@(T+1)'],
            'rule "c": Time@T, P(p1,0,1)@T1 -> Time@T, Dr(d1,0,1,1)@(T+1)',
            True,
            None,
        ),
        "arrow-in-name-over-sides-from-different-lines": (
            [GOOD_RULE, 'rule "b": Time@T, Dr(d1,1,1,1)@T1 -> Time@T, Dr(d1,0,1,1)@(T+1)'],
            'rule "c->d": Time@T, P(p1,0,1)@T1 -> Time@T, Dr(d1,0,1,1)@(T+1)',
            True,
            None,
        ),
        "bar-in-name-over-a-stored-left-side-and-a-new-right-side": (
            [GOOD_RULE],
            'rule "p|q": Time@T, P(p1,0,1)@T1 | T = T1 + 2 -> '
            "Time@T, P(p1,0,1)@T1, Dr(d1,1,1,1)@(T+1)",
            True,
            None,
        ),
        "stored-left-side-and-a-bad-new-right-side": (
            [GOOD_RULE],
            GOOD_RULE.replace("Dr(d1,0,1,1)", "Dr(d1,0,1)"),
            False,
            "arity",
        ),
        "stored-right-side-and-a-bad-new-left-side": (
            [GOOD_RULE],
            GOOD_RULE.replace("P(p1,0,1)@T1 |", "P(p1,0,1)@T1, Dr(d1,7)@T2 |"),
            False,
            "arity",
        ),
    }
    # Rows whose diagnostic must name what went wrong, beyond its code.
    MESSAGES = {
        "stored-right-side-creates-a-variable-the-stored-left-side-leaves-unbound": (
            "rule 'u': created fact uses unbound variable 'X'"
        ),
        "stored-sides-use-a-variable-at-two-sorts": "variable 'X' used at sorts 'Id' and 'Nat'",
        "stored-pair-with-a-new-guard-naming-an-unbound-variable": (
            "rule 'n': guard variable 'T9' does not appear in the precondition"
        ),
        "stored-guard-over-stored-sides-leaving-its-variable-unbound": (
            "rule 'v': guard variable 'T1' does not appear in the precondition"
        ),
    }

    @pytest.mark.parametrize("name", sorted(LOOKALIKES))
    def test_lookalike_gives_what_it_gives_alone(self, name, monkeypatch):
        earlier, line, takes_stored, code = self.LOOKALIKES[name]
        text = PRE + "".join(r + "\n" for r in earlier) + line + "\n" + INIT
        j = PRE.count("\n") + len(earlier)
        parsed_lines = []
        from_tokens = SpecParser._parse_rule_tokens

        def spy(parser, number, line_text):
            parsed_lines.append(number)
            return from_tokens(parser, number, line_text)

        monkeypatch.setattr(SpecParser, "_parse_rule_tokens", spy)
        together = parse_outcome(text)
        assert (j + 1 not in parsed_lines) == takes_stored
        monkeypatch.undo()
        alone = parse_outcome(only_rule_line(text, j))
        if code is None:
            assert together[-len(alone) :] == alone and alone[0].name == line.split('"')[1]
        else:
            assert together == alone and alone[:2] == (code, j + 1)
            assert self.MESSAGES.get(name, "") in alone[3]

    def test_nothing_is_kept_between_parses(self):
        # The same rule lines under a constant of another sort: the second
        # parse finds the sort error its own declarations make.
        first = PRE + GOOD_RULE + "\n" + INIT
        second = first.replace("const d1 : Id", "sort Zone\nconst d1 : Zone")
        assert parse_outcome(first)
        diagnostic = (
            "sort",
            8,
            73,
            "8:73: [sort] constant 'd1' has sort 'Zone', expected 'Id'",
        )
        assert parse_outcome(second) == diagnostic
        assert parse_outcome(first) and parse_outcome(second) == diagnostic
