"""The ten knowledge-base relations: question templates and fact-sentence phrases.

The table is data-driven: adding a relation means adding one entry, no code
changes elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedRecord


@dataclass(frozen=True)
class RelationSpec:
    relation: str
    phrase: str            # declarative verb phrase used in fact sentences
    pattern: str           # question with <subject>, <object>, <direction> slots
    entity_type: str

    def __post_init__(self):
        for slot in ("<subject>", "<object>", "<direction>"):
            if self.pattern.count(slot) != 1:
                raise ValueError(f"pattern must contain {slot} exactly once")


_SPECS = [
    RelationSpec("member_of_sports_team", "played for",
                 "Which team did <subject> play for <direction> <object>?", "team"),
    RelationSpec("position_held", "held",
                 "Which position did <subject> hold <direction> <object>?", "position"),
    RelationSpec("employer", "worked for",
                 "Which employer did <subject> work for <direction> <object>?", "employer"),
    RelationSpec("political_party", "belonged to",
                 "Which political party did <subject> belong to <direction> <object>?", "political party"),
    RelationSpec("head_coach", "was coached by",
                 "Who was the head coach of <subject> <direction> <object>?", "person"),
    RelationSpec("educated_at", "attended",
                 "Which school was <subject> attending <direction> <object>?", "school"),
    RelationSpec("chairperson", "was chaired by",
                 "Who was the chair of <subject> <direction> <object>?", "person"),
    RelationSpec("head_of_government", "had head of government",
                 "Who was the head of the government of <subject> <direction> <object>?", "person"),
    RelationSpec("head_of_state", "had head of state",
                 "Who was the head of the state of <subject> <direction> <object>?", "person"),
    RelationSpec("owned_by", "was owned by",
                 "Who was the owner of <subject> <direction> <object>?", "person"),
]

RELATIONS: dict[str, RelationSpec] = {s.relation: s for s in _SPECS}


def normalize_relation(relation: str) -> str:
    """Accept both "member of sports team" and "member_of_sports_team" forms."""
    key = relation.strip().lower().replace(" ", "_")
    if key not in RELATIONS:
        raise MalformedRecord(f"unknown relation {relation!r}")
    return key


def relation_spec(relation: str) -> RelationSpec:
    return RELATIONS[normalize_relation(relation)]
