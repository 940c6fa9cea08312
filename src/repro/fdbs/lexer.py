"""Tokenizer for the FDBS SQL dialect.

One compiled master regular expression with a named group per token
kind, matched in a single loop, produces the flat token list for the
parser.  The dialect is DB2-v7.1-flavoured: case-insensitive keywords,
``"quoted"`` delimited identifiers with ``""`` escapes, ``'...'``
strings with ``''`` escapes, ``--`` line comments and ``/* ... */``
block comments.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import LexerError


class TokenType(enum.Enum):
    """Lexical token categories."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    PARAMETER = "parameter"  # ? positional marker
    EOF = "eof"


#: Reserved words of the dialect.  Everything else is an identifier.
KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC DISTINCT ALL
    UNION AS TABLE JOIN INNER LEFT RIGHT OUTER CROSS ON
    AND OR NOT NULL IS IN LIKE BETWEEN EXISTS
    CASE WHEN THEN ELSE END CAST
    CREATE DROP ALTER INSERT INTO VALUES UPDATE SET DELETE
    FUNCTION RETURNS RETURN LANGUAGE SQL EXTERNAL FENCED UNFENCED
    PROCEDURE CALL BEGIN DECLARE IF ELSEIF WHILE DO LOOP LEAVE
    PRIMARY KEY UNIQUE DEFAULT CHECK REFERENCES FOREIGN
    WRAPPER SERVER NICKNAME FOR OPTIONS
    FETCH LIMIT
    GRANT REVOKE TO VIEW EXPLAIN
    TRUE FALSE UNKNOWN
    COMMIT ROLLBACK
    IN OUT INOUT
    """.split()
)
# Soft keywords recognised contextually by the parser (they stay usable
# as ordinary identifiers): NAME, FIRST, ROW, ROWS, ONLY, WORK.


class Token(NamedTuple):
    """One lexical token with its source position (for error messages)."""

    type: TokenType
    value: str
    position: int
    line: int
    column: int

    def matches(self, type_: TokenType, value: str | None = None) -> bool:
        """True if the token has the given type (and value, if given)."""
        return self.type is type_ and (value is None or self.value == value)

    def __str__(self) -> str:
        return "<end of statement>" if self.type is TokenType.EOF else self.value


# Alternatives are tried in order, so a two-character operator wins over
# its one-character prefix, ``--`` and ``/*`` win over ``-`` and ``/``,
# and ``.5`` is a number rather than punctuation.  ``word`` also admits
# non-alphabetic numerics such as ``²``; the loop rejects those.  The
# ``bad_*`` groups and the final catch-all turn into LexerErrors.
_MASTER = re.compile(
    r"""
    (?P<skip>\s+|--[^\n]*|/\*.*?\*/)
  | (?P<bad_comment>/\*)
  | (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<word>[^\W\d]\w*)
  | (?P<string>'[^']*(?:''[^']*)*')
  | (?P<ident>"[^"]*(?:""[^"]*)*")
  | (?P<parameter>\?)
  | (?P<operator><>|<=|>=|!=|\|\||[=<>+\-*/])
  | (?P<punctuation>[(),.;])
  | (?P<bad_string>')
  | (?P<bad_ident>")
  | (?P<bad_char>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_SIMPLE_KINDS = {
    "number": TokenType.NUMBER,
    "parameter": TokenType.PARAMETER,
    "operator": TokenType.OPERATOR,
    "punctuation": TokenType.PUNCTUATION,
}

# Matches that may contain newlines, so they move the line count.
_SPANNING = frozenset(("skip", "string", "ident"))

_UNTERMINATED = {
    "bad_comment": "unterminated block comment",
    "bad_string": "unterminated string literal",
    "bad_ident": "unterminated delimited identifier",
}


def tokenize(text: str) -> list[Token]:
    """Return the full token list of ``text``, terminated by an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # builds a Token without its Python-level __new__
    line, line_start = 1, 0  # line number and offset of its first character
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        start = match.start()
        column = start - line_start + 1
        if kind == "word":
            word = match.group()
            if not (word[0].isalpha() or word[0] == "_"):
                raise LexerError(
                    f"unexpected character {word[0]!r}", start, line, column
                )
            upper = word.upper()
            if upper in KEYWORDS:
                append(new(Token, (TokenType.KEYWORD, upper, start, line, column)))
            else:
                append(new(Token, (TokenType.IDENTIFIER, word, start, line, column)))
        elif kind in _SIMPLE_KINDS:
            append(new(Token, (_SIMPLE_KINDS[kind], match.group(), start, line, column)))
        elif kind in _SPANNING:
            chunk = match.group()
            if kind == "string":
                value = chunk[1:-1].replace("''", "'")
                append(new(Token, (TokenType.STRING, value, start, line, column)))
            elif kind == "ident":
                if chunk == '""':
                    end = match.end()
                    raise LexerError(
                        "empty delimited identifier", end, line, end - line_start + 1
                    )
                value = chunk[1:-1].replace('""', '"')
                append(new(Token, (TokenType.IDENTIFIER, value, start, line, column)))
            if "\n" in chunk:
                line += chunk.count("\n")
                line_start = start + chunk.rindex("\n") + 1
        elif kind == "bad_char":
            raise LexerError(
                f"unexpected character {match.group()!r}", start, line, column
            )
        else:  # an opener without its closer: report at the end of the text
            end = len(text)
            if "\n" in text[start:]:
                line += text.count("\n", start)
                line_start = text.rindex("\n") + 1
            raise LexerError(_UNTERMINATED[kind], end, line, end - line_start + 1)
    end = len(text)
    append(new(Token, (TokenType.EOF, "", end, line, end - line_start + 1)))
    return tokens
