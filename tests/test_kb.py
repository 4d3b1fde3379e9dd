import random

import pytest
from hypothesis import given, strategies as st

from trc_toolkit.errors import (
    EmptyContext,
    InvertedInterval,
    MalformedTimeExpression,
    NoNeighbor,
    SubjectMismatch,
    UnknownMonth,
    UnparsableSentence,
    YearOutOfRange,
)
from trc_toolkit.kb import (
    TimePoint,
    neighbor_fact,
    parse_fact_context,
    parse_time_point,
)

from conftest import PELIKAN_CONTEXT
from synthkb import make_timelines


class TestParseTimePoint:
    def test_table_example(self):
        assert parse_time_point("January 1949") == TimePoint(1949, 1)

    def test_brodrick_example(self):
        assert parse_time_point("November 1885") == TimePoint(1885, 11)

    def test_misspelled_month(self):
        with pytest.raises(UnknownMonth):
            parse_time_point("Januray 1949")

    def test_case_and_whitespace_insensitive(self):
        assert parse_time_point("  juLY   2001 ") == TimePoint(2001, 7)

    def test_year_out_of_range(self):
        with pytest.raises(YearOutOfRange):
            parse_time_point("January 500")
        with pytest.raises(YearOutOfRange):
            parse_time_point("January 2200")

    def test_day_level_rejected(self):
        with pytest.raises(MalformedTimeExpression):
            parse_time_point("January 5 1949")

    def test_garbage(self):
        with pytest.raises(MalformedTimeExpression):
            parse_time_point("sometime soon")


class TestParseFactContext:
    def test_pelikan_context(self):
        timeline = parse_fact_context(PELIKAN_CONTEXT, "Jaroslav Pelikan", "employer")
        assert len(timeline) == 2
        assert timeline.facts[0].object == "Valparaiso University"
        assert timeline.facts[1].object == "Concordia Seminary"
        assert timeline.facts[0].start == TimePoint(1946, 1)
        assert timeline.facts[1].end == TimePoint(1953, 1)

    def test_empty_context(self):
        with pytest.raises(EmptyContext):
            parse_fact_context("", "X", "employer")

    def test_single_fact(self):
        timeline = parse_fact_context(
            "A B worked for C Corp from March 1990 to May 1995.", "A B", "employer")
        assert len(timeline) == 1

    def test_ongoing_fact(self):
        timeline = parse_fact_context(
            "A B worked for C Corp from March 1990.", "A B", "employer")
        assert timeline.facts[0].end is None

    def test_object_with_commas_and_digits(self):
        obj = "Member of the 23rd Parliament, United Kingdom"
        text = f"St John held {obj} from November 1885 to July 1886."
        timeline = parse_fact_context(text, "St John", "position_held")
        assert timeline.facts[0].object == obj

    def test_subject_mismatch(self):
        with pytest.raises(SubjectMismatch):
            parse_fact_context(
                "Someone Else worked for C Corp from March 1990 to May 1995.",
                "A B", "employer")

    def test_unparsable_sentence_carries_index(self):
        text = ("A B worked for C Corp from March 1990 to May 1995. "
                "A B joined D Corp from March 1996 to May 1999.")
        with pytest.raises(UnparsableSentence) as exc:
            parse_fact_context(text, "A B", "employer")
        assert exc.value.index == 1

    def test_inverted_interval(self):
        with pytest.raises(InvertedInterval):
            parse_fact_context("A B worked for C Corp from January 1950 to January 1940.",
                               "A B", "employer")

    def test_unsorted_input_gets_sorted(self):
        text = ("A B worked for Later Corp from March 1996 to May 1999. "
                "A B worked for Early Corp from March 1990 to May 1995.")
        timeline = parse_fact_context(text, "A B", "employer")
        assert [f.object for f in timeline.facts] == ["Early Corp", "Later Corp"]


class TestRoundTrip:
    def test_render_parse_round_trip_1000_random_timelines(self):
        for timeline in make_timelines(1000, seed=42):
            parsed = parse_fact_context(timeline.render(), timeline.subject,
                                        timeline.relation)
            assert parsed == timeline


class TestNeighborFact:
    @pytest.fixture
    def pelikan_timeline(self):
        return parse_fact_context(PELIKAN_CONTEXT, "Jaroslav Pelikan", "employer")

    def test_before_concordia_is_valparaiso(self, pelikan_timeline):
        fact = neighbor_fact(pelikan_timeline, 1, "before")
        assert fact.object == "Valparaiso University"

    def test_first_fact_has_no_before(self, pelikan_timeline):
        with pytest.raises(NoNeighbor):
            neighbor_fact(pelikan_timeline, 0, "before")

    def test_last_fact_has_no_after(self, pelikan_timeline):
        with pytest.raises(NoNeighbor):
            neighbor_fact(pelikan_timeline, 1, "after")

    def test_ongoing_anchor_has_no_after(self):
        timeline = parse_fact_context(
            "A B worked for C Corp from March 1990 to May 1995. "
            "A B worked for D Corp from June 1995.", "A B", "employer")
        with pytest.raises(NoNeighbor):
            neighbor_fact(timeline, 1, "after")

    def test_before_after_inverse(self):
        rng = random.Random(7)
        for timeline in make_timelines(50, seed=3, allow_ongoing=False):
            i = rng.randrange(1, len(timeline.facts))
            previous = neighbor_fact(timeline, i, "before")
            j = timeline.facts.index(previous)
            assert neighbor_fact(timeline, j, "after") == timeline.facts[i]


years = st.integers(min_value=634, max_value=2100)
months = st.integers(min_value=1, max_value=12)
time_points = st.builds(TimePoint, years, months)


class TestTimePointOrdering:
    @given(time_points, time_points)
    def test_antisymmetric(self, a, b):
        if a <= b and b <= a:
            assert a == b

    @given(time_points, time_points, time_points)
    def test_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @given(time_points, time_points)
    def test_total(self, a, b):
        assert a <= b or b <= a
