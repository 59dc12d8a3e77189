"""Tests for the SQL tokenizer and the statement-shape fingerprint."""

import ast
import re
import string
from pathlib import Path
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perf import workloads as perf_workloads
from repro.errors import LexerError
from repro.sql.lexer import (
    KEYWORDS,
    Token,
    TokenType,
    parameterize,
    statement_shape,
    tokenize,
)
from repro.workloads import NrefScale, complex_query_set


def kinds(text):
    return [t.type for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_empty_input_yields_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].type is TokenType.EOF

    def test_keywords_are_case_insensitive(self):
        assert values("SELECT select SeLeCt") == ["select"] * 3

    def test_identifiers_lowercased(self):
        tokens = tokenize("MyTable")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "mytable"

    def test_quoted_identifier(self):
        tokens = tokenize('"Weird Name"')
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "weird name"

    def test_unterminated_quoted_identifier(self):
        with pytest.raises(LexerError):
            tokenize('"oops')

    def test_underscore_identifier(self):
        assert values("nref_id _x a1") == ["nref_id", "_x", "a1"]


class TestNumbers:
    def test_integer(self):
        token = tokenize("42")[0]
        assert token.type is TokenType.INTEGER
        assert token.value == 42

    def test_float(self):
        token = tokenize("3.25")[0]
        assert token.type is TokenType.FLOAT
        assert token.value == 3.25

    def test_leading_dot_float(self):
        token = tokenize(".5")[0]
        assert token.type is TokenType.FLOAT
        assert token.value == 0.5

    def test_scientific_notation(self):
        token = tokenize("1e3")[0]
        assert token.type is TokenType.FLOAT
        assert token.value == 1000.0

    def test_scientific_with_sign(self):
        token = tokenize("2.5e-2")[0]
        assert token.value == pytest.approx(0.025)

    def test_integer_then_dot_then_ident_is_qualified_ref(self):
        # "t.a" must not lex the dot into a number
        tokens = tokenize("t.a")
        assert [t.value for t in tokens[:-1]] == ["t", ".", "a"]


class TestStrings:
    def test_simple_string(self):
        token = tokenize("'hello'")[0]
        assert token.type is TokenType.STRING
        assert token.value == "hello"

    def test_escaped_quote(self):
        token = tokenize("'it''s'")[0]
        assert token.value == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_string_keeps_case(self):
        assert tokenize("'MiXeD'")[0].value == "MiXeD"


class TestOperatorsAndComments:
    @pytest.mark.parametrize("op", ["<=", ">=", "<>", "!=", "=", "<", ">",
                                    "+", "-", "*", "/", "%"])
    def test_operator(self, op):
        token = tokenize(op)[0]
        assert token.type is TokenType.OPERATOR
        assert token.value == op

    def test_two_char_operators_win(self):
        assert values("a<=b") == ["a", "<=", "b"]

    def test_line_comment_skipped(self):
        assert values("select -- comment here\n 1") == ["select", 1]

    def test_comment_at_end_of_input(self):
        assert values("select 1 -- trailing") == ["select", 1]

    def test_punctuation(self):
        assert values("(a, b);") == ["(", "a", ",", "b", ")", ";"]

    def test_invalid_character(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("select @")
        assert excinfo.value.position == 7


class TestTokenHelpers:
    def test_is_keyword(self):
        token = Token(TokenType.KEYWORD, "select", 0)
        assert token.is_keyword("select")
        assert token.is_keyword("select", "insert")
        assert not token.is_keyword("insert")

    def test_positions_recorded(self):
        tokens = tokenize("ab cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 3


class TestStringPositions:
    def test_string_token_carries_its_start_offset(self):
        tokens = tokenize("a = 'xy' and b = 'it''s'")
        strings = [t for t in tokens if t.type is TokenType.STRING]
        assert [(t.value, t.position) for t in strings] == \
            [("xy", 4), ("it's", 17)]

    def test_unterminated_string_reports_the_opening_quote(self):
        # One escaped quote short of a terminator: the error is at the
        # literal's start, not at the quote where backtracking could
        # have ended a shorter string.
        with pytest.raises(LexerError) as excinfo:
            tokenize("select 'a''")
        assert excinfo.value.position == 7


# -- differential test against the scanner the master regex replaced -------
#
# ``_scan`` and its helpers below are the hand-written tokenizer as it
# stood before the master regex, kept verbatim as the reference.  The
# one known difference is that it stamped STRING tokens with their
# *end* offset.

def _scan(text: str) -> Iterator[Token]:
    length = len(text)
    pos = 0
    while pos < length:
        char = text[pos]
        if char.isspace():
            pos += 1
            continue
        if char == "-" and text.startswith("--", pos):
            newline = text.find("\n", pos)
            pos = length if newline < 0 else newline + 1
            continue
        if char == "'":
            value, pos = _scan_string(text, pos)
            yield Token(TokenType.STRING, value, pos)
            continue
        if char.isdigit() or (char == "." and pos + 1 < length
                              and text[pos + 1].isdigit()):
            token, pos = _scan_number(text, pos)
            yield token
            continue
        if char.isalpha() or char == "_":
            start = pos
            while pos < length and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            word = text[start:pos]
            lowered = word.lower()
            if lowered in KEYWORDS:
                yield Token(TokenType.KEYWORD, lowered, start)
            else:
                yield Token(TokenType.IDENT, lowered, start)
            continue
        if char == '"':
            end = text.find('"', pos + 1)
            if end < 0:
                raise LexerError("unterminated quoted identifier", pos)
            yield Token(TokenType.IDENT, text[pos + 1 : end].lower(), pos)
            pos = end + 1
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, pos):
                yield Token(TokenType.OPERATOR, op, pos)
                pos += len(op)
                matched = True
                break
        if matched:
            continue
        if char in _PUNCT:
            yield Token(TokenType.PUNCT, char, pos)
            pos += 1
            continue
        raise LexerError(f"unexpected character {char!r}", pos)
    yield Token(TokenType.EOF, None, length)


def _scan_string(text: str, pos: int) -> tuple[str, int]:
    """Scan a single-quoted string with '' as the escape for a quote."""
    start = pos
    pos += 1
    parts: list[str] = []
    while pos < len(text):
        char = text[pos]
        if char == "'":
            if text.startswith("''", pos):
                parts.append("'")
                pos += 2
                continue
            return "".join(parts), pos + 1
        parts.append(char)
        pos += 1
    raise LexerError("unterminated string literal", start)


def _scan_number(text: str, pos: int) -> tuple[Token, int]:
    start = pos
    length = len(text)
    while pos < length and text[pos].isdigit():
        pos += 1
    is_float = False
    if pos < length and text[pos] == ".":
        is_float = True
        pos += 1
        while pos < length and text[pos].isdigit():
            pos += 1
    if pos < length and text[pos] in "eE":
        exp_end = pos + 1
        if exp_end < length and text[exp_end] in "+-":
            exp_end += 1
        if exp_end < length and text[exp_end].isdigit():
            is_float = True
            pos = exp_end
            while pos < length and text[pos].isdigit():
                pos += 1
    literal = text[start:pos]
    if is_float:
        return Token(TokenType.FLOAT, float(literal), start), pos
    return Token(TokenType.INTEGER, int(literal), start), pos


_OPERATORS = ("<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%")
_PUNCT = frozenset("(),.;")


def lexed(scanner, text):
    """``(type, value, position)`` per token with STRING positions
    blanked, or the error's position."""
    try:
        return [(t.type, t.value,
                 None if t.type is TokenType.STRING else t.position)
                for t in scanner(text)]
    except LexerError as error:
        return ("error", error.position, str(error))


def string_constants(*test_modules):
    """Every string constant in the given test files: the SQL they
    feed the lexer and parser, and plenty that is not SQL at all."""
    found = set()
    for module in test_modules:
        tree = ast.parse((Path(__file__).parent / module).read_text())
        found.update(node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str))
    return sorted(found)


def corpus():
    texts = set(string_constants("test_sql_lexer.py", "test_sql_parser.py"))
    texts.update(complex_query_set(NrefScale(proteins=300), count=50))
    for name in perf_workloads.WORKLOAD_NAMES:
        for seed in (11, 12):
            workload = perf_workloads.build(name, seed, rounds=4)
            texts.update(workload.prepare)
            texts.update(text for chunk in workload.chunks for text in chunk)
    return sorted(texts)


class TestAgainstHandWrittenScanner:
    def test_same_tokens_on_every_known_text(self):
        texts = corpus()
        assert len(texts) > 3000
        for text in texts:
            assert lexed(tokenize, text) == lexed(_scan, text), text

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=60))
    def test_same_tokens_on_arbitrary_ascii(self, text):
        assert lexed(tokenize, text) == lexed(_scan, text)


# -- statement_shape ---------------------------------------------------------

SHAPE_TEMPLATES = (
    "select p.nref_id, s.ordinal from protein p join sequence s "
    "on p.nref_id = s.nref_id where p.nref_id = {s} and s.ordinal < {n}",
    "select name from protein where tax_id in ({n}, {n}, {n}) "
    "and mol_weight between {f} and {f}",
    "update bench_events set score = score + {f} where id = {n}",
    "insert into t values ({n}, {s}, {f}, {s})",
)

literals = {
    "s": st.text(alphabet="abcXYZ 019-%'", max_size=8).map(
        lambda value: "'" + value.replace("'", "''") + "'"),
    "n": st.integers(0, 10**9).map(str),
    "f": st.floats(0, 1e6, allow_nan=False).map(repr),
}


@st.composite
def variants(draw):
    """Two renderings of one template that differ in literal values,
    whitespace, keyword case and comments."""
    template = draw(st.sampled_from(SHAPE_TEMPLATES))

    def render():
        parts = re.split(r"(\{[snf]\}| )", template)
        out = []
        for part in parts:
            if part == " ":
                out.append(draw(st.sampled_from(
                    (" ", "  ", "\n", "\t ", " -- note 'x' 1\n"))))
            elif part.startswith("{"):
                out.append(draw(literals[part[1]]))
            else:
                out.append(part.upper() if draw(st.booleans()) else part)
        return "".join(out)

    return render(), render()


class TestStatementShape:
    def test_literals_become_placeholders(self):
        assert statement_shape(
            "SELECT a FROM t -- all of it\n WHERE a = 'x''y' AND b<1.5e3"
        ) == "select a from t where a = ? and b < ?"

    @settings(max_examples=150, deadline=None)
    @given(variants())
    def test_invariant_under_literals_layout_case_and_comments(self, pair):
        first, second = pair
        assert statement_shape(first) == statement_shape(second)

    @pytest.mark.parametrize("left, right", [
        ("select a from t where b = 1", "select a from t where c = 1"),
        ("select a from t where b = 1", "select a, b from t where b = 1"),
        ("select a from t where b = 1", "select a from t where b < 1"),
        ("select a from t where b <= 1", "select a from t where b < 1"),
        ("select a from t where b in (1, 2)",
         "select a from t where b in (1, 2, 3)"),
        ("select a from t1", "select a from t2"),
        ("select a from t where b = 1", "select a from t where b = c"),
    ])
    def test_different_statements_have_different_shapes(self, left, right):
        assert statement_shape(left) != statement_shape(right)

    def test_a_text_that_does_not_lex_is_its_own_shape(self):
        cut = "select a from t where b = 'NF000"
        assert statement_shape(cut) == cut
        assert statement_shape(cut) != statement_shape(cut + "1")

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=80))
    def test_total_on_arbitrary_text(self, text):
        assert isinstance(statement_shape(text), str)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=string.printable.replace('"', ""), max_size=60))
    def test_shape_is_the_token_stream_with_literals_blanked(self, text):
        try:
            tokens = tokenize(text)
        except LexerError:
            assert parameterize(text) == (text, ())
            return
        literal = (TokenType.STRING, TokenType.INTEGER, TokenType.FLOAT)
        shape, values = parameterize(text)
        assert shape == statement_shape(text) == " ".join(
            "?" if token.type in literal else token.value
            for token in tokens[:-1])
        # ... and the blanked values, typed as the tokenizer types them
        expected = [token.value for token in tokens if token.type in literal]
        assert list(values) == expected
        assert list(map(type, values)) == list(map(type, expected))

    def test_literal_vector(self):
        assert parameterize(
            "SELECT a FROM t -- 'not' 1\n WHERE a = 'x''y' AND b<1.5e3 "
            "or c in (7, .5, 'İ', '')"
        ) == ("select a from t where a = ? and b < ? or c in ( ? , ? , ? , ? )",
              ("x'y", 1500.0, 7, 0.5, "İ", ""))
        assert parameterize("select İd from t where x = -1") \
            == ("select i̇d from t where x = - ?", (1,))
