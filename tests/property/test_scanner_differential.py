"""Differential fuzz: the production scanner vs its pinned references.

Parse engine v3 replaced the per-character ``Lexer`` loop and the
fingerprint master-regex with one table-driven scanner pass; v4
replaced that pass's compiled alternation with a first-character
dispatch loop.  Each replacement is only safe if it is *bit-for-bit*
the same function: same tokens, same error messages at the same
positions, same fingerprints (or the same refusal to fingerprint).

This module pins that equivalence three ways:

* against the per-character ``Lexer`` kept verbatim as the in-tree
  reference implementation (``tests/property/pinned_lexer.py`` — it
  shipped in ``lexer.py`` through v3 and moved here when v4 removed
  the production escape hatch),
* against a **frozen** copy of the full pre-v3 module (master-regex
  fingerprint included) exec'd straight out of git history, and
* against the **frozen v3 scanner** (rev ``ff621b5``, the alternation
  the v4 dispatch loop replaced), also exec'd from git history —
  so neither reference can drift along with the code under test.

The @example corpus carries every divergence candidate found while
auditing the old ``_raw_scan`` against the DFA — scientific-notation
edges (``1.e5``), quote escapes inside delimited identifiers
(``[a''b]``), folded unary minus, trailing-dot numbers.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings
from pinned_lexer import Lexer

from repro.sqlparser.errors import LexerError
from repro.sqlparser.scanner import fingerprint_statement, scan
from tests.frozen import frozen_source

#: The last commit whose lexer.py still carries the pre-v3 master-regex
#: fingerprint path.  Frozen here so the reference is immutable.
LEGACY_REV = "90f9fda"

#: The v3 commit whose scanner.py carries the compiled-alternation scan
#: loop the v4 dispatch table replaced.
V3_REV = "ff621b5"

_legacy_module_cache = {}


def _frozen_source(rev, path):
    return frozen_source(
        rev, path, "the in-tree pinned Lexer differential still ran"
    )


def legacy_module():
    """The frozen pre-v3 lexer module, exec'd from git history."""
    if "mod" not in _legacy_module_cache:
        source = _frozen_source(
            LEGACY_REV, "src/repro/sqlparser/lexer.py"
        ).replace(
            "from .errors import", "from repro.sqlparser.errors import"
        ).replace("from .tokens import", "from repro.sqlparser.tokens import")
        namespace = {"__name__": "legacy_lexer"}
        exec(compile(source, "legacy_lexer.py", "exec"), namespace)
        _legacy_module_cache["mod"] = namespace
    return _legacy_module_cache["mod"]


def v3_scanner_module():
    """The frozen v3 alternation scanner, exec'd from git history.

    Its ``.tokens`` import is rebound to the live module (every token
    construction in it is positional, so the v4 ``NamedTuple`` slots
    straight in) — which makes the frozen scan's tokens directly
    ``==``-comparable to the dispatch loop's.
    """
    if "v3" not in _legacy_module_cache:
        source = _frozen_source(
            V3_REV, "src/repro/sqlparser/scanner.py"
        ).replace(
            "from .errors import", "from repro.sqlparser.errors import"
        ).replace("from .tokens import", "from repro.sqlparser.tokens import")
        namespace = {"__name__": "v3_scanner"}
        exec(compile(source, "v3_scanner.py", "exec"), namespace)
        _legacy_module_cache["v3"] = namespace
    return _legacy_module_cache["v3"]


arbitrary_text = st.text(max_size=120)

sql_ish_text = st.lists(
    st.sampled_from(
        [
            "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "IN",
            "BETWEEN", "LIKE", "NULL", "TOP", "AS", "ORDER", "BY",
            "a", "b", "t", "objid", "count", "*", ",", "(", ")",
            "=", "<", ">", "<>", "<=", ">=", "!=", "-", "+", "/", "%",
            "'x'", "'it''s'", "1", "2.5", ".5", "1.e5", "1e-3", "0x1F",
            "@v", "@@rowcount", ".", ";", "[objid]", '"objid"',
            "[a''b]", "--c", "/*c*/", "N'x'", "$1", "1.", "e5",
        ]
    ),
    max_size=25,
).map(" ".join)

#: Hand-picked divergence candidates from the _raw_scan audit.
EDGE_CASES = [
    "SELECT 1.e5",          # dot then exponent, no fraction digits
    "SELECT 1.E+10 FROM t",
    "SELECT .5e3",
    "SELECT a.5",           # dot-number after identifier: DOT + NUMBER
    "SELECT [a''b] FROM t",  # quote escape inside bracket identifier
    "SELECT \"a''b\"",
    "SELECT -5",            # folded unary minus
    "WHERE a < -5 AND b > - 5",
    "SELECT - -5",          # double unary: only the inner one folds
    "SELECT (-5)",
    "SELECT 1- -2",
    "SELECT 1.",            # trailing-dot number
    "SELECT 1.e",           # exponent marker with no digits
    "SELECT 0x1F, 0XgG",
    "SELECT 'it''s'",
    "SELECT ''",
    "SELECT '''",
    "SELECT N'x' FROM t",
    "SELECT @v, @@trancount",
    "SELECT a FROM t -- tail",
    "SELECT /* nested -- */ 1",
    "SELECT /*",
    "SELECT '",
    "SELECT [unterminated",
    "\x00\x01",
    "SELECT\t\r\n1",
]


def run_legacy_lexer(text):
    """Tokens-or-error from the pinned in-tree reference Lexer."""
    try:
        return Lexer(text).tokenize(), None
    except LexerError as error:
        return None, error


def run_frozen_lexer(text):
    """Tokens-or-error from the frozen pre-v3 git copy."""
    mod = legacy_module()
    try:
        return mod["Lexer"](text).tokenize(), None
    except LexerError as error:
        return None, error


def assert_same_outcome(text, reference):
    tokens, error = reference
    result = scan(text)
    if error is not None:
        assert result.tokens is None, (
            f"scanner tokenized what the lexer rejected: {text!r}"
        )
        assert result.error is not None
        assert str(result.error) == str(error), text
        assert (result.error.line, result.error.column) == (
            error.line,
            error.column,
        ), text
        assert result.fingerprint is None, text
    else:
        assert result.error is None, (
            f"scanner rejected what the lexer accepted: {text!r} "
            f"({result.error})"
        )
        assert result.tokens == tokens, text


class TestTokenDifferential:
    @given(arbitrary_text)
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_text_matches_reference_lexer(self, text):
        assert_same_outcome(text, run_legacy_lexer(text))

    @given(sql_ish_text)
    @settings(max_examples=400, deadline=None)
    def test_sql_shaped_text_matches_reference_lexer(self, text):
        assert_same_outcome(text, run_legacy_lexer(text))

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_corpus_matches_reference_lexer(self, text):
        assert_same_outcome(text, run_legacy_lexer(text))

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_corpus_matches_frozen_lexer(self, text):
        assert_same_outcome(text, run_frozen_lexer(text))

    @given(sql_ish_text)
    @settings(max_examples=150, deadline=None)
    def test_sql_shaped_text_matches_frozen_lexer(self, text):
        assert_same_outcome(text, run_frozen_lexer(text))


class TestFingerprintDifferential:
    """One-pass fingerprints vs the frozen master-regex implementation."""

    @given(sql_ish_text)
    @example("SELECT 1.e5")
    @example("SELECT [a''b] FROM t WHERE x = -5")
    @example("SELECT - -5, 'it''s', .5e3")
    @settings(max_examples=400, deadline=None)
    def test_fingerprint_matches_frozen_implementation(self, text):
        legacy = legacy_module()["fingerprint_statement"](text)
        current = fingerprint_statement(text)
        if legacy is None:
            assert current is None, text
        else:
            assert current is not None, text
            assert current.key == legacy.key, text
            assert current.constants == legacy.constants, text
            assert current.spans == legacy.spans, text

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_corpus_fingerprints_match(self, text):
        legacy = legacy_module()["fingerprint_statement"](text)
        current = fingerprint_statement(text)
        assert (current is None) == (legacy is None), text
        if legacy is not None:
            assert current == legacy, text


def assert_same_scan_as_v3(text):
    """The v4 dispatch scan vs the frozen v3 alternation scan."""
    frozen = v3_scanner_module()["scan"](text)
    current = scan(text)
    if frozen.error is not None:
        assert current.tokens is None, (
            f"v4 scanner tokenized what the v3 scanner rejected: {text!r}"
        )
        assert current.error is not None
        assert str(current.error) == str(frozen.error), text
        assert (current.error.line, current.error.column) == (
            frozen.error.line,
            frozen.error.column,
        ), text
        assert current.fingerprint is None, text
    else:
        assert current.error is None, (
            f"v4 scanner rejected what the v3 scanner accepted: {text!r} "
            f"({current.error})"
        )
        assert current.tokens == frozen.tokens, text
        if frozen.fingerprint is None:
            assert current.fingerprint is None, text
        else:
            assert current.fingerprint is not None, text
            assert current.fingerprint.key == frozen.fingerprint.key, text
            assert (
                current.fingerprint.constants == frozen.fingerprint.constants
            ), text
            assert current.fingerprint.spans == frozen.fingerprint.spans, text


class TestV3ScannerDifferential:
    """The v4 dispatch loop vs the frozen v3 alternation, whole-Scan."""

    @given(arbitrary_text)
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_text_matches_frozen_v3_scanner(self, text):
        assert_same_scan_as_v3(text)

    @given(sql_ish_text)
    @settings(max_examples=400, deadline=None)
    def test_sql_shaped_text_matches_frozen_v3_scanner(self, text):
        assert_same_scan_as_v3(text)

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_corpus_matches_frozen_v3_scanner(self, text):
        assert_same_scan_as_v3(text)



class TestPackageSurface:
    """``repro.sqlparser`` exports the scanner's own front-end objects."""

    def test_sqlparser_reexports_scanner(self):
        import repro.sqlparser as package
        from repro.sqlparser import scanner

        assert package.tokenize is scanner.tokenize
        assert package.fingerprint_statement is scanner.fingerprint_statement
        assert package.StatementFingerprint is scanner.StatementFingerprint
        text = "SELECT a FROM t WHERE x = 1"
        assert package.tokenize(text) == scan(text).tokens
        assert package.fingerprint_statement(text) == scan(text).fingerprint
