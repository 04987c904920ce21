"""The pinned per-character reference lexer for differential fuzzing.

This is the hand-written ``Lexer`` that shipped in
``repro.sqlparser.lexer`` through parse engines v1–v3, moved here
verbatim when parse engine v4 removed the production escape hatch (the
``lexer`` module itself is gone too; :mod:`repro.sqlparser.scanner` is
the only tokenizer).  It stays in-tree *unchanged* as the executable
specification of the tokenizer: the property suite fuzzes every
scanner rewrite against it, so the simplest possible implementation —
one character at a time, no tables shared with the code under test —
is exactly what makes it a trustworthy reference.

Do not optimise or refactor this module.  Its value is that it does
not change.
"""

from __future__ import annotations

from typing import List

from repro.sqlparser.errors import LexerError
from repro.sqlparser.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_#"
)
_IDENT_CONT = _IDENT_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")
_WHITESPACE = frozenset(" \t\r\n\f\v")

_KEYWORD_CASES = {}
for _kw in KEYWORDS:
    for _spelling in (_kw, _kw.lower(), _kw.capitalize()):
        _KEYWORD_CASES[_spelling] = _kw

_MULTI_BY_FIRST: dict = {}
for _op in MULTI_CHAR_OPERATORS:
    _MULTI_BY_FIRST.setdefault(_op[0], []).append(_op)
_MULTI_BY_FIRST = {first: tuple(ops) for first, ops in _MULTI_BY_FIRST.items()}

_PUNCT_KINDS = {
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ";": TokenKind.SEMICOLON,
}


class Lexer:
    """Single-use tokenizer over one SQL statement string."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> List[Token]:
        """Tokenize the whole input, appending a trailing EOF token."""
        tokens: List[Token] = []
        append = tokens.append
        length = len(self._text)
        while True:
            self._skip_trivia()
            if self._pos >= length:
                append(Token(TokenKind.EOF, "", self._line, self._column))
                return tokens
            append(self._next_token())

    # ------------------------------------------------------------------
    # Character helpers

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._text[index] if index < len(self._text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._text):
                return
            if self._text[self._pos] == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
            self._pos += 1

    def _jump(self, new_pos: int) -> None:
        """Move to ``new_pos``, updating line/column over the skipped run."""
        text = self._text
        pos = self._pos
        chunk = text[pos:new_pos]
        newlines = chunk.count("\n")
        if newlines:
            self._line += newlines
            self._column = new_pos - (pos + chunk.rfind("\n"))
        else:
            self._column += new_pos - pos
        self._pos = new_pos

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments (both styles)."""
        text = self._text
        length = len(text)
        while True:
            pos = self._pos
            if pos >= length:
                return
            char = text[pos]
            if char in _WHITESPACE:
                end = pos + 1
                while end < length and text[end] in _WHITESPACE:
                    end += 1
                self._jump(end)
            elif char == "-" and text.startswith("--", pos):
                end = text.find("\n", pos)
                self._jump(length if end == -1 else end)
            elif char == "/" and text.startswith("/*", pos):
                end = text.find("*/", pos + 2)
                if end == -1:
                    raise LexerError(
                        "unterminated block comment", self._line, self._column
                    )
                self._jump(end + 2)
            else:
                return

    # ------------------------------------------------------------------
    # Token producers

    def _next_token(self) -> Token:
        text = self._text
        pos = self._pos
        char = text[pos]
        line, column = self._line, self._column

        if char in _IDENT_START:
            length = len(text)
            end = pos + 1
            while end < length and text[end] in _IDENT_CONT:
                end += 1
            word = text[pos:end]
            self._column += end - pos
            self._pos = end
            keyword = _KEYWORD_CASES.get(word)
            if keyword is not None:
                return Token(TokenKind.KEYWORD, keyword, line, column)
            upper = word.upper()
            if upper in KEYWORDS:
                return Token(TokenKind.KEYWORD, upper, line, column)
            return Token(TokenKind.IDENTIFIER, word, line, column)
        if char in _DIGITS or (char == "." and self._peek(1) in _DIGITS):
            return self._lex_number(line, column)
        if char == "'":
            return self._lex_string(line, column)
        if char == "[":
            return self._lex_bracket_identifier(line, column)
        if char == '"':
            return self._lex_quoted_identifier(line, column)
        if char == "@":
            return self._lex_variable(line, column)

        punct = _PUNCT_KINDS.get(char)
        if punct is not None:
            self._pos = pos + 1
            self._column += 1
            return Token(punct, char, line, column)

        multi = _MULTI_BY_FIRST.get(char)
        if multi is not None:
            for operator in multi:
                if text.startswith(operator, pos):
                    self._pos = pos + len(operator)
                    self._column += len(operator)
                    return Token(TokenKind.OPERATOR, operator, line, column)
        if char in SINGLE_CHAR_OPERATORS:
            self._pos = pos + 1
            self._column += 1
            return Token(TokenKind.OPERATOR, char, line, column)

        raise LexerError(f"unexpected character {char!r}", line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        text = self._text
        length = len(text)
        start = pos = self._pos
        while pos < length and text[pos] in _DIGITS:
            pos += 1
        if pos < length and text[pos] == "." and not text.startswith("..", pos):
            pos += 1
            while pos < length and text[pos] in _DIGITS:
                pos += 1
        if pos < length and text[pos] in "eE":
            lookahead = pos + 1
            if lookahead < length and text[lookahead] in "+-":
                lookahead += 1
            if lookahead < length and text[lookahead] in _DIGITS:
                pos = lookahead + 1
                while pos < length and text[pos] in _DIGITS:
                    pos += 1
        value = text[start:pos]
        self._column += pos - start
        self._pos = pos
        # `1abc` is a malformed literal, not a number followed by an
        # identifier; reject it here for a clear error position.
        if pos < length and text[pos] in _IDENT_START:
            raise LexerError(
                f"malformed numeric literal {value + text[pos]!r}",
                line,
                column,
            )
        return Token(TokenKind.NUMBER, value, line, column)

    def _lex_string(self, line: int, column: int) -> Token:
        text = self._text
        length = len(text)
        pos = self._pos + 1  # past the opening quote
        pieces: List[str] = []
        while True:
            quote = text.find("'", pos)
            if quote == -1:
                raise LexerError("unterminated string literal", line, column)
            pieces.append(text[pos:quote])
            if quote + 1 < length and text[quote + 1] == "'":  # escaped quote
                pieces.append("'")
                pos = quote + 2
                continue
            self._jump(quote + 1)
            return Token(TokenKind.STRING, "".join(pieces), line, column)

    def _lex_bracket_identifier(self, line: int, column: int) -> Token:
        self._advance()  # opening bracket
        start = self._pos
        while self._pos < len(self._text) and self._peek() != "]":
            self._advance()
        if self._pos >= len(self._text):
            raise LexerError("unterminated [identifier]", line, column)
        name = self._text[start : self._pos]
        self._advance()  # closing bracket
        return Token(TokenKind.IDENTIFIER, name, line, column)

    def _lex_quoted_identifier(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        start = self._pos
        while self._pos < len(self._text) and self._peek() != '"':
            self._advance()
        if self._pos >= len(self._text):
            raise LexerError('unterminated "identifier"', line, column)
        name = self._text[start : self._pos]
        self._advance()  # closing quote
        return Token(TokenKind.IDENTIFIER, name, line, column)

    def _lex_variable(self, line: int, column: int) -> Token:
        self._advance()  # the @ sign
        start = self._pos
        if self._peek() == "@":  # @@rowcount style system variables
            self._advance()
        if self._peek() not in _IDENT_START:
            raise LexerError("malformed variable name", line, column)
        while self._peek() in _IDENT_CONT:
            self._advance()
        return Token(
            TokenKind.VARIABLE, self._text[start : self._pos], line, column
        )
