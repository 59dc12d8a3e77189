"""SQL tokenizer and statement shape / literal vector over one token regex."""

from __future__ import annotations

import enum
import re
from typing import Any, NamedTuple

from repro.errors import LexerError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset({
    "select", "distinct", "from", "where", "group", "by", "having",
    "order", "asc", "desc", "limit", "offset", "join", "inner", "left",
    "cross", "on", "as", "and", "or", "not", "in", "between", "like",
    "is", "null", "true", "false", "insert", "into", "values", "update",
    "set", "delete", "create", "drop", "table", "index", "unique",
    "virtual", "primary", "key", "with", "structure", "main_pages",
    "modify", "to", "statistics", "trigger", "when", "raise", "begin",
    "commit", "rollback", "exists", "explain", "outer",
})


class Token(NamedTuple):
    """One lexical token with the source offset it starts at."""

    type: TokenType
    value: Any
    position: int

    def is_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in words

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.type.name}, {self.value!r}@{self.position})"


# One match is one token with the whitespace and ``--`` comments before
# it.  ``eof`` and ``bad`` make the alternation total, so consecutive
# matches tile the text.  A string ends at a quote that is not the first
# of a doubled pair; without the lookahead a missing terminator would
# backtrack into ``'a'`` + ``'`` instead of failing at the opening quote.
_MASTER = re.compile(r"""
    (?:\s+|--[^\n]*)*
    (?: (?P<word>[^\W\d]\w*)
      | (?P<punct>[(),;]|\.(?!\d))
      | (?P<op><=|>=|<>|!=|[=<>+\-*/%])
      | (?P<quoted>"[^"]*")
      | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<string>'[^']*(?:''[^']*)*'(?!'))
      | (?P<eof>\Z)
      | (?P<bad>.)
    )""", re.VERBOSE | re.DOTALL)

# Group numbers, for :func:`parameterize`: groups up to ``quoted`` are
# kept as written, up to ``string`` are literals.
_LAST_KEPT = _MASTER.groupindex["quoted"]
_NUMBER = _MASTER.groupindex["number"]
_LAST_LITERAL = _MASTER.groupindex["string"]
_BAD = _MASTER.groupindex["bad"]


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text`` into a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    for match in _MASTER.finditer(text):
        # Never None: every alternative is a named group.
        kind: str = match.lastgroup  # type: ignore[assignment]
        start = match.start(kind)
        if kind == "word":
            word = match[kind].lower()
            append(Token(TokenType.KEYWORD if word in KEYWORDS
                         else TokenType.IDENT, word, start))
        elif kind == "punct":
            append(Token(TokenType.PUNCT, match[kind], start))
        elif kind == "op":
            append(Token(TokenType.OPERATOR, match[kind], start))
        elif kind == "number":
            literal = match[kind]
            if "." in literal or "e" in literal or "E" in literal:
                append(Token(TokenType.FLOAT, float(literal), start))
            else:
                append(Token(TokenType.INTEGER, int(literal), start))
        elif kind == "string":
            append(Token(TokenType.STRING,
                         match[kind][1:-1].replace("''", "'"), start))
        elif kind == "quoted":
            append(Token(TokenType.IDENT, match[kind][1:-1].lower(), start))
        elif kind == "eof":
            append(Token(TokenType.EOF, None, start))
            break
        else:
            raise _error(match[kind], start)
    return tokens


def first_token(text: str) -> Token:
    """The first token of ``text`` (EOF for a blank one), lexing
    nothing after it."""
    return tokenize(_MASTER.match(text).group())[0]  # type: ignore[union-attr]


def _error(char: str, position: int) -> LexerError:
    if char == "'":
        return LexerError("unterminated string literal", position)
    if char == '"':
        return LexerError("unterminated quoted identifier", position)
    return LexerError(f"unexpected character {char!r}", position)


# staticcheck: hotpath
def parameterize(text: str) -> tuple[str, tuple]:
    """``(shape, literal values)`` of a statement in one pass.

    The shape is the statement with every literal replaced by ``?``:
    its tokens, lower-cased, joined by single spaces, comments dropped.
    The values are those of its STRING, INTEGER and FLOAT tokens as
    :func:`tokenize` would produce them, in source order — the n-th
    ``?`` stands for the n-th value.

    Two texts have the same shape exactly when their token streams
    differ in nothing but the values of literal tokens.  Nothing else
    is normalised: an ``IN`` list of three literals and one of four are
    different shapes.  A text that does not lex (say, cut off inside a
    string) is its own shape with no values; this function never raises.
    """
    parts: list[str] = []
    values: list[Any] = []
    append = parts.append
    for match in _MASTER.finditer(text):
        index: int = match.lastindex  # type: ignore[assignment]
        if index <= _LAST_KEPT:
            append(match[index].lower())
        elif index <= _LAST_LITERAL:
            append("?")
            literal = match[index]
            if index != _NUMBER:
                values.append(literal[1:-1].replace("''", "'"))
            elif "." in literal or "e" in literal or "E" in literal:
                values.append(float(literal))
            else:
                values.append(int(literal))
        elif index == _BAD:
            return text, ()
    return " ".join(parts), tuple(values)


def statement_shape(text: str) -> str:
    """The shape half of :func:`parameterize`."""
    return parameterize(text)[0]
