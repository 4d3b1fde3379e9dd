"""The ten knowledge-base relations, and timelines of their dated facts.

`RELATIONS` gives each relation the verb phrase of its fact sentences and the
entity type of its objects. Fact contexts arrive as plain sentences like

    Jaroslav Pelikan worked for Concordia Seminary from January 1949 to January 1953.

This module parses them into chronologically ordered timelines and answers the
adjacency lookups ("right before" / "right after") the query builder relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    EmptyContext,
    InvertedInterval,
    MalformedRecord,
    MalformedTimeExpression,
    NoNeighbor,
    SubjectMismatch,
    UnknownMonth,
    UnparsableSentence,
    YearOutOfRange,
)


@dataclass(frozen=True)
class RelationSpec:
    relation: str
    phrase: str            # declarative verb phrase used in fact sentences
    entity_type: str


# Adding a relation means adding one entry here, no code changes elsewhere.
_SPECS = [
    RelationSpec("member_of_sports_team", "played for", "team"),
    RelationSpec("position_held", "held", "position"),
    RelationSpec("employer", "worked for", "employer"),
    RelationSpec("political_party", "belonged to", "political party"),
    RelationSpec("head_coach", "was coached by", "person"),
    RelationSpec("educated_at", "attended", "school"),
    RelationSpec("chairperson", "was chaired by", "person"),
    RelationSpec("head_of_government", "had head of government", "person"),
    RelationSpec("head_of_state", "had head of state", "person"),
    RelationSpec("owned_by", "was owned by", "person"),
]

RELATIONS: dict[str, RelationSpec] = {s.relation: s for s in _SPECS}


def normalize_relation(relation: str) -> str:
    """Accept both "member of sports team" and "member_of_sports_team" forms."""
    if relation in RELATIONS:   # a name is a fixed point of the rule below
        return relation
    key = relation.strip().lower().replace(" ", "_")
    if key not in RELATIONS:
        raise MalformedRecord(f"unknown relation {relation!r}")
    return key


def relation_spec(relation: str) -> RelationSpec:
    return RELATIONS[normalize_relation(relation)]


MIN_YEAR = 634
MAX_YEAR = 2100

MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4,
    "may": 5, "june": 6, "july": 7, "august": 8,
    "september": 9, "october": 10, "november": 11, "december": 12,
}
MONTH_NAMES = {v: k.capitalize() for k, v in MONTHS.items()}

BEFORE = "before"
AFTER = "after"
DIRECTIONS = (BEFORE, AFTER)


@dataclass(frozen=True, order=True)
class TimePoint:
    """A month-granularity calendar point; ordering is (year, month)."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")
        if not MIN_YEAR <= self.year <= MAX_YEAR:
            raise ValueError(f"year out of range: {self.year}")

    def format(self) -> str:
        return f"{MONTH_NAMES[self.month]} {self.year}"


def parse_time_point(text: str) -> TimePoint:
    """Parse "<MonthName> <Year>" (case-insensitive) into a TimePoint.

    Day-level expressions are rejected rather than truncated.
    """
    parts = text.strip().split()
    if len(parts) != 2:
        raise MalformedTimeExpression(f"expected '<MonthName> <Year>', got {text!r}")
    month_text, year_text = parts
    if not year_text.isdigit():
        raise MalformedTimeExpression(f"non-numeric year in {text!r}")
    month = MONTHS.get(month_text.lower())
    if month is None:
        raise UnknownMonth(f"unknown month name {month_text!r}")
    year = int(year_text)
    if not MIN_YEAR <= year <= MAX_YEAR:
        raise YearOutOfRange(f"year {year} outside [{MIN_YEAR}, {MAX_YEAR}]")
    return TimePoint(year, month)


@dataclass(frozen=True)
class TemporalFact:
    """One dated fact; `end` is absent for ongoing facts."""

    subject: str
    relation: str
    object: str
    start: TimePoint
    end: Optional[TimePoint] = None

    def __post_init__(self):
        if not self.subject.strip() or not self.object.strip():
            raise ValueError("subject and object must be non-empty")
        if self.end is not None and self.end < self.start:
            raise ValueError("fact ends before it starts")

    def sentence(self, with_times: bool = True) -> str:
        """Canonical sentence body (no trailing period)."""
        base = f"{self.subject} {relation_spec(self.relation).phrase} {self.object}"
        if not with_times:
            return base
        out = f"{base} from {self.start.format()}"
        if self.end is not None:
            out += f" to {self.end.format()}"
        return out


def _sort_key(fact: TemporalFact):
    # Absent end times sort last among equal starts; object breaks remaining ties.
    return (fact.start, fact.end is None, fact.end or fact.start, fact.object)


@dataclass(frozen=True)
class Timeline:
    """All facts for one (subject, relation), in chronological order."""

    subject: str
    relation: str
    facts: tuple[TemporalFact, ...] = field(default_factory=tuple)

    @classmethod
    def from_facts(cls, subject: str, relation: str, facts) -> "Timeline":
        facts = tuple(sorted(facts, key=_sort_key))
        for f in facts:
            if f.subject != subject or f.relation != relation:
                raise ValueError("facts must share the timeline's subject and relation")
        return cls(subject, relation, facts)

    def __len__(self) -> int:
        return len(self.facts)

    def index_of_object(self, name: str) -> Optional[int]:
        target = name.strip().lower()
        for i, f in enumerate(self.facts):
            if f.object.lower() == target:
                return i
        return None


_TIME_RX = r"[A-Za-z]+ \d{1,4}"


def parse_fact_context(text: str, subject: str, relation: str) -> Timeline:
    """Parse a fact-context string into a sorted Timeline.

    Object names may contain commas and digits; the from/to clause is matched
    from the end of each sentence so such names survive intact.
    """
    text = " ".join(text.split())
    if not text:
        raise EmptyContext("fact context is empty")

    phrase = relation_spec(relation).phrase
    tail = re.compile(
        rf"\sfrom ({_TIME_RX})(?: to ({_TIME_RX}))?\s*\.?$"
    )
    facts = []
    sentences = [s.strip() for s in re.split(r"(?<=\.)\s+", text) if s.strip()]
    for i, sentence in enumerate(sentences):
        m = tail.search(sentence)
        if m is None:
            raise UnparsableSentence(i, sentence, f"sentence {i}: no from/to clause in {sentence!r}")
        body = sentence[: m.start()]
        sep = f" {phrase} "
        if sep not in body:
            raise UnparsableSentence(i, body, f"sentence {i}: relation phrase {phrase!r} not found in {body!r}")
        sent_subject, obj = body.split(sep, 1)
        if sent_subject.strip() != subject:
            raise SubjectMismatch(
                f"sentence {i}: subject {sent_subject.strip()!r} != declared {subject!r}"
            )
        start = parse_time_point(m.group(1))
        end = parse_time_point(m.group(2)) if m.group(2) else None
        if end is not None and end < start:
            raise InvertedInterval(
                f"sentence {i}: ends {end.format()}, before it starts {start.format()}")
        facts.append(TemporalFact(subject, relation, obj.strip(), start, end))
    return Timeline.from_facts(subject, relation, facts)


def neighbor_fact(timeline: Timeline, anchor_index: int, direction: str) -> TemporalFact:
    """The fact immediately adjacent to the anchor in sorted order."""
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if not 0 <= anchor_index < len(timeline.facts):
        raise IndexError(f"anchor index {anchor_index} out of range")
    if direction == BEFORE:
        if anchor_index == 0:
            raise NoNeighbor("anchor is the earliest fact")
        return timeline.facts[anchor_index - 1]
    anchor = timeline.facts[anchor_index]
    if anchor.end is None:
        raise NoNeighbor("anchor is ongoing; nothing follows it")
    if anchor_index == len(timeline.facts) - 1:
        raise NoNeighbor("anchor is the latest fact")
    return timeline.facts[anchor_index + 1]
