"""Property-based tests: dedup and mining invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.antipatterns import minimal_period
from repro.log import LogRecord, QueryLog, delete_duplicates
from repro.log.dedup import normalize_statement_text
from repro.patterns import MinerConfig, mine
from repro.pipeline import parse_log

statements = st.sampled_from(
    [
        "SELECT a FROM t WHERE id = 1",
        "SELECT a FROM t WHERE id = 2",
        "SELECT b FROM t WHERE id = 1",
        "SELECT c FROM u",
    ]
)
users = st.sampled_from(["u1", "u2", None])

log_entries = st.lists(
    st.tuples(
        statements,
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        users,
    ),
    max_size=40,
)
thresholds = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def build_log(entries):
    return QueryLog(
        LogRecord(seq=i, sql=sql, timestamp=ts, user=user)
        for i, (sql, ts, user) in enumerate(entries)
    )


class TestDedupProperties:
    @given(log_entries, thresholds)
    @settings(max_examples=200, deadline=None)
    def test_dedup_is_idempotent(self, entries, threshold):
        log = build_log(entries)
        once = delete_duplicates(log, threshold)
        twice = delete_duplicates(once.log, threshold)
        assert twice.removed == 0
        assert twice.log == once.log

    @given(log_entries, thresholds)
    @settings(max_examples=200, deadline=None)
    def test_kept_is_subsequence_of_original(self, entries, threshold):
        log = build_log(entries)
        result = delete_duplicates(log, threshold)
        original_seqs = [record.seq for record in log]
        kept_seqs = [record.seq for record in result.log]
        iterator = iter(original_seqs)
        assert all(seq in iterator for seq in kept_seqs)  # subsequence

    @given(log_entries, thresholds)
    @settings(max_examples=200, deadline=None)
    def test_no_kept_duplicates_within_threshold(self, entries, threshold):
        log = build_log(entries)
        result = delete_duplicates(log, threshold)
        last = {}
        for record in result.log:
            key = (record.user_key(), normalize_statement_text(record.sql))
            previous = last.get(key)
            if previous is not None:
                assert record.timestamp - previous > threshold
            last[key] = record.timestamp

    @given(log_entries, thresholds)
    @settings(max_examples=100, deadline=None)
    def test_counts_add_up(self, entries, threshold):
        log = build_log(entries)
        result = delete_duplicates(log, threshold)
        assert result.kept + result.removed == len(log)

    @given(log_entries, thresholds, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_input_order_is_irrelevant(self, entries, threshold, rng):
        # delete_duplicates must sort by timestamp itself: feeding the
        # records shuffled (as raw iterables bypass QueryLog's sort)
        # must remove exactly the same duplicates
        records = [
            LogRecord(seq=i, sql=sql, timestamp=ts, user=user)
            for i, (sql, ts, user) in enumerate(entries)
        ]
        shuffled = list(records)
        rng.shuffle(shuffled)
        ordered = delete_duplicates(QueryLog(records), threshold)
        unordered = delete_duplicates(shuffled, threshold)
        assert unordered.log == ordered.log
        assert unordered.removed == ordered.removed

    def test_out_of_order_burst_regression(self):
        # the exact shape that used to under-remove: a sub-threshold
        # burst delivered newest-first slipped past the sliding window
        records = [
            LogRecord(seq=i, sql="SELECT a FROM t WHERE id = 1",
                      timestamp=ts, user="u1")
            for i, ts in enumerate([2.0, 1.0, 0.0])
        ]
        result = delete_duplicates(records, threshold=1.0)
        assert result.removed == 2
        assert [r.timestamp for r in result.log] == [0.0]


#: Every character ``str.split`` splits on: ``\t``–``\r``, ``\x1c``–``\x1f``,
#: the space, and Unicode's spaces and line and paragraph separators.
SEPARATORS = (
    "\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)

#: Text mixing SQL, single and doubled spaces, every separator and any
#: other character.
mixed_texts = st.lists(
    st.one_of(
        st.sampled_from(list(SEPARATORS)),
        st.sampled_from(["SELECT", "a", "'x y'", " ", "  ", "=", "1"]),
        st.characters(),
    ),
    max_size=30,
).map("".join)

#: Printable text whose only whitespace is the ASCII space: the texts
#: the shortcut may return unchanged.
printable_texts = st.lists(
    st.one_of(
        st.sampled_from(["SELECT", "a", "'x y'", " ", "  ", "=", "1"]),
        st.characters(
            blacklist_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zs", "Zl", "Zp")
        ),
    ),
    max_size=30,
).map("".join)


class TestNormalizeProperties:
    def test_separators_are_every_split_character(self):
        splitting = [
            char
            for char in map(chr, range(0x110000))
            if len(("a" + char + "a").split()) == 2
        ]
        assert "".join(splitting) == SEPARATORS

    @given(mixed_texts)
    @settings(max_examples=1000, deadline=None)
    def test_is_the_split_join(self, text):
        assert normalize_statement_text(text) == " ".join(text.split())

    @given(printable_texts)
    @settings(max_examples=500, deadline=None)
    def test_normal_printable_text_comes_back_as_itself(self, text):
        assert text.isprintable()
        normal = normalize_statement_text(text)
        assert normal == " ".join(text.split())
        if normal == text:
            assert normal is text


class TestMinerProperties:
    @given(log_entries)
    @settings(max_examples=100, deadline=None)
    def test_instances_partition_parsed_queries(self, entries):
        queries = parse_log(build_log(entries)).queries
        result = mine(queries)
        covered = sorted(
            query.record.seq
            for instance in result.instances
            for query in instance.queries
        )
        assert covered == sorted(q.record.seq for q in queries)

    @given(log_entries)
    @settings(max_examples=100, deadline=None)
    def test_instances_are_time_ordered_within(self, entries):
        queries = parse_log(build_log(entries)).queries
        for instance in mine(queries).instances:
            times = [q.timestamp for q in instance.queries]
            assert times == sorted(times)

    @given(log_entries)
    @settings(max_examples=100, deadline=None)
    def test_instances_are_single_user(self, entries):
        queries = parse_log(build_log(entries)).queries
        for instance in mine(queries).instances:
            assert len({q.user for q in instance.queries}) == 1


class TestMinimalPeriodProperties:
    units = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=4)

    @given(unit=units, repeats=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_period_reconstructs_sequence(self, unit, repeats):
        sequence = unit * repeats
        period = minimal_period(sequence)
        assert len(sequence) % len(period) == 0
        times = len(sequence) // len(period)
        assert list(period) * times == sequence

    @given(unit=units, repeats=st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_period_is_no_longer_than_unit(self, unit, repeats):
        period = minimal_period(unit * repeats)
        assert len(period) <= len(unit)
