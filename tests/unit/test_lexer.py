"""Unit tests for the SQL lexer."""

import pytest

from repro.sqlparser.errors import LexerError
from repro.sqlparser.scanner import tokenize
from repro.sqlparser.tokens import TokenKind


def kinds(sql):
    return [token.kind for token in tokenize(sql)]


def values(sql):
    return [token.value for token in tokenize(sql)[:-1]]  # drop EOF


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_whitespace_only_yields_only_eof(self):
        assert len(tokenize("  \t\n  ")) == 1

    def test_keywords_are_uppercased(self):
        assert values("select from where") == ["SELECT", "FROM", "WHERE"]

    def test_identifier_case_is_preserved(self):
        tokens = tokenize("PhotoPrimary")
        assert tokens[0].kind is TokenKind.IDENTIFIER
        assert tokens[0].value == "PhotoPrimary"

    def test_identifier_with_underscore_and_digits(self):
        tokens = tokenize("rowc_g2")
        assert tokens[0].value == "rowc_g2"

    def test_temp_table_hash_identifier(self):
        tokens = tokenize("#temp")
        assert tokens[0].kind is TokenKind.IDENTIFIER
        assert tokens[0].value == "#temp"

    def test_punctuation(self):
        assert kinds("(,.;)")[:-1] == [
            TokenKind.LPAREN,
            TokenKind.COMMA,
            TokenKind.DOT,
            TokenKind.SEMICOLON,
            TokenKind.RPAREN,
        ]


class TestNumbers:
    @pytest.mark.parametrize(
        "text", ["0", "42", "3.14", ".5", "1e10", "1.5e-3", "2E+4"]
    )
    def test_valid_numbers(self, text):
        tokens = tokenize(text)
        assert tokens[0].kind is TokenKind.NUMBER
        assert tokens[0].value == text

    def test_number_followed_by_letter_is_an_error(self):
        with pytest.raises(LexerError):
            tokenize("12abc")

    def test_dot_without_digits_is_a_dot_token(self):
        tokens = tokenize("a.b")
        assert tokens[1].kind is TokenKind.DOT

    def test_exponent_without_digits_is_not_consumed(self):
        # `1e` alone: the `e` is a malformed trailing identifier start
        with pytest.raises(LexerError):
            tokenize("1e")


class TestStrings:
    def test_simple_string(self):
        tokens = tokenize("'sales'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].value == "sales"

    def test_escaped_quote(self):
        tokens = tokenize("'O''Brien'")
        assert tokens[0].value == "O'Brien"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError, match="unterminated string"):
            tokenize("'oops")

    def test_string_keeps_case(self):
        assert tokenize("'MiXeD'")[0].value == "MiXeD"


class TestQuotedIdentifiers:
    def test_bracket_identifier(self):
        tokens = tokenize("[Full Name]")
        assert tokens[0].kind is TokenKind.IDENTIFIER
        assert tokens[0].value == "Full Name"

    def test_double_quoted_identifier(self):
        assert tokenize('"order"')[0].kind is TokenKind.IDENTIFIER

    def test_unterminated_bracket_raises(self):
        with pytest.raises(LexerError):
            tokenize("[oops")


class TestVariables:
    def test_variable(self):
        tokens = tokenize("@ra")
        assert tokens[0].kind is TokenKind.VARIABLE
        assert tokens[0].value == "ra"

    def test_system_variable(self):
        assert tokenize("@@rowcount")[0].value == "@rowcount"

    def test_bare_at_sign_raises(self):
        with pytest.raises(LexerError):
            tokenize("@ ")


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<", ">", "+", "-", "*", "/", "%"])
    def test_single_char_operators(self, op):
        tokens = tokenize(op)
        assert tokens[0].kind is TokenKind.OPERATOR
        assert tokens[0].value == op

    @pytest.mark.parametrize("op", ["<>", "!=", "<=", ">=", "||"])
    def test_multi_char_operators(self, op):
        tokens = tokenize(op)
        assert tokens[0].value == op

    def test_adjacent_operators_split_greedily(self):
        assert values("a<=b") == ["a", "<=", "b"]


class TestComments:
    def test_line_comment_is_skipped(self):
        assert values("SELECT -- comment\n a") == ["SELECT", "a"]

    def test_block_comment_is_skipped(self):
        assert values("SELECT /* x */ a") == ["SELECT", "a"]

    def test_block_comment_spanning_lines(self):
        assert values("SELECT /* x\ny */ a") == ["SELECT", "a"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexerError, match="unterminated block comment"):
            tokenize("SELECT /* oops")


class TestPositions:
    def test_line_and_column_tracking(self):
        tokens = tokenize("SELECT\n  name")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        with pytest.raises(LexerError) as exc_info:
            tokenize("SELECT ~")
        assert exc_info.value.line == 1
        assert exc_info.value.column == 8

    def test_unexpected_character(self):
        with pytest.raises(LexerError, match="unexpected character"):
            tokenize("a ? b")
