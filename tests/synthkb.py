"""Seeded synthetic knowledge base used across the test suite.

Generates random timelines in the canonical fact-sentence form plus the raw
source records the dataset builder would ingest, so tests have a KB of any
size without shipping real data.
"""

from __future__ import annotations

import random

from trc_toolkit.kb import RELATIONS, TemporalFact, TimePoint, Timeline

FIRST = ["Avery", "Blake", "Casey", "Devon", "Ellis", "Finley", "Harper",
         "Jordan", "Kendall", "Logan", "Morgan", "Noel", "Parker", "Quinn",
         "Reese", "Sawyer"]
LAST = ["Abbott", "Barnes", "Calder", "Dalton", "Emerson", "Foster",
        "Granger", "Holt", "Irving", "Jensen", "Keller", "Lowell",
        "Mercer", "Norwood", "Osborne", "Prescott"]
OBJECT_HEAD = ["Northfield", "Crescent", "Harbour", "Summit", "Ironwood",
               "Lakeside", "Meridian", "Pinnacle", "Riverton", "Stonegate"]
OBJECT_TAIL = ["Institute", "Athletic", "Assembly", "Holdings", "Union",
               "Collective", "College", "Society", "Works", "Council"]

# One question template per relation, with <subject>, <object> and
# <direction> slots.
QUESTIONS = {
    "member_of_sports_team": "Which team did <subject> play for <direction> <object>?",
    "position_held": "Which position did <subject> hold <direction> <object>?",
    "employer": "Which employer did <subject> work for <direction> <object>?",
    "political_party": "Which political party did <subject> belong to <direction> <object>?",
    "head_coach": "Who was the head coach of <subject> <direction> <object>?",
    "educated_at": "Which school was <subject> attending <direction> <object>?",
    "chairperson": "Who was the chair of <subject> <direction> <object>?",
    "head_of_government": "Who was the head of the government of <subject> <direction> <object>?",
    "head_of_state": "Who was the head of the state of <subject> <direction> <object>?",
    "owned_by": "Who was the owner of <subject> <direction> <object>?",
}


def make_timeline(rng: random.Random, index: int, allow_ongoing: bool = True) -> Timeline:
    relation = rng.choice(sorted(RELATIONS))
    subject = f"{rng.choice(FIRST)} {rng.choice(LAST)} {index:03d}"
    n_facts = rng.randint(2, 5)
    facts = []
    year = rng.randint(1850, 1990)
    for j in range(n_facts):
        start = TimePoint(year, rng.randint(1, 12))
        year += rng.randint(1, 4)
        obj = f"{rng.choice(OBJECT_HEAD)} {rng.choice(OBJECT_TAIL)} {index:03d}-{j}"
        ongoing = allow_ongoing and j == n_facts - 1 and rng.random() < 0.2
        end = None if ongoing else TimePoint(year, rng.randint(1, 12))
        facts.append(TemporalFact(subject, relation, obj, start, end))
    return Timeline.from_facts(subject, relation, facts)


def make_timelines(n: int, seed: int, allow_ongoing: bool = True) -> list[Timeline]:
    rng = random.Random(seed)
    return [make_timeline(rng, i, allow_ongoing) for i in range(n)]


def render(timeline: Timeline) -> str:
    """Canonical fact-context text; parse_fact_context round-trips it."""
    return " ".join(f.sentence() + "." for f in timeline.facts)


def make_records(timelines: list[Timeline]) -> list[dict]:
    """One raw source record per (fact, direction), boundary anchors included.

    Boundary anchors have no neighbor and are expected to be skipped by the
    dataset builder.
    """
    records = []
    for ti, timeline in enumerate(timelines):
        template = QUESTIONS[timeline.relation]
        for fi, fact in enumerate(timeline.facts):
            for direction in ("before", "after"):
                question = (template
                            .replace("<subject>", timeline.subject)
                            .replace("<direction>", direction)
                            .replace("<object>", fact.object))
                record = {
                    "id": f"t{ti:03d}-f{fi}-{direction}",
                    "question": question,
                    "subject": timeline.subject,
                    "relation": timeline.relation,
                    "fact_context": render(timeline),
                }
                neighbor = None
                if direction == "before" and fi > 0:
                    neighbor = timeline.facts[fi - 1]
                elif direction == "after" and fi < len(timeline.facts) - 1 and fact.end is not None:
                    neighbor = timeline.facts[fi + 1]
                if neighbor is not None:
                    record["answer"] = neighbor.object
                records.append(record)
    return records


def make_dataset(n_timelines: int, seed: int):
    """(instances, skips) for a fresh synthetic KB."""
    from trc_toolkit.querygen import build_dataset

    timelines = make_timelines(n_timelines, seed)
    return build_dataset(make_records(timelines))
