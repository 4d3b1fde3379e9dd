"""Paired query construction.

From each raw event-event source record this produces one benchmark instance:
a chronological query (anchored on an event), an absolute query (same wording,
anchored on the event's boundary time), the gold answer, and the two
rationale sentences that connect them.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from . import kb
from .errors import (
    GoldAnswerMismatch,
    MissingToTime,
    NeighborMismatch,
    NoNeighbor,
    ReferenceEventNotFound,
    SampleTooLarge,
    SlotUnresolved,
    ToolkitError,
)
from .kb import AFTER, BEFORE, TemporalFact, Timeline, neighbor_fact, parse_fact_context
from .relations import RelationSpec, normalize_relation, relation_spec

INSTANCE_FIELDS = (
    "id", "language", "relation", "entity_type", "direction",
    "query_absolute", "query_chronological", "answer",
    "pathway_time_oriented", "pathway_event_oriented", "fact_context",
)


@dataclass(frozen=True)
class BenchmarkInstance:
    id: str
    language: str
    relation: str
    entity_type: str
    direction: str
    query_absolute: str
    query_chronological: str
    answer: str
    pathway_time_oriented: str
    pathway_event_oriented: str
    fact_context: str

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in INSTANCE_FIELDS}

    @classmethod
    def from_dict(cls, record: dict) -> "BenchmarkInstance":
        return cls(**{name: record[name] for name in INSTANCE_FIELDS})

    def query(self, reference_kind: str) -> str:
        if reference_kind == "absolute":
            return self.query_absolute
        if reference_kind == "chronological":
            return self.query_chronological
        raise ValueError(f"unknown reference kind {reference_kind!r}")

    def pathway(self, kind: str) -> str:
        if kind == "time":
            return self.pathway_time_oriented
        if kind == "event":
            return self.pathway_event_oriented
        raise ValueError(f"unknown pathway kind {kind!r}")


@dataclass(frozen=True)
class ConsistencyPair:
    query_a: str
    query_b: str
    label: bool
    # Source ids kept for auditing label soundness; not part of the pair itself.
    id_a: str = ""
    id_b: str = ""

    def to_dict(self) -> dict:
        return {
            "query_a": self.query_a, "query_b": self.query_b,
            "label": self.label, "id_a": self.id_a, "id_b": self.id_b,
        }


def make_chronological_query(spec: RelationSpec, subject: str,
                             reference_event: str, direction: str) -> str:
    if direction not in kb.DIRECTIONS:
        raise SlotUnresolved(f"invalid direction {direction!r}")
    if not subject.strip():
        raise SlotUnresolved("empty subject")
    if not reference_event.strip():
        raise SlotUnresolved("empty reference event")
    return (spec.pattern
            .replace("<subject>", subject.strip())
            .replace("<direction>", f"right {direction}")
            .replace("<object>", reference_event.strip()))


_DIRECTION_RX = re.compile(r"\b(right )?(before|after)\b")


def split_reference(query: str) -> tuple[str, str, str]:
    """Split a query at its direction keyword.

    Returns (prefix ending at the keyword incl. trailing space, direction,
    reference span without the trailing '?').
    """
    m = _DIRECTION_RX.search(query)
    if m is None:
        raise SlotUnresolved(f"no before/after keyword in {query!r}")
    reference = query[m.end():].strip()
    if reference.endswith("?"):
        reference = reference[:-1].strip()
    if not reference:
        raise SlotUnresolved(f"empty reference span in {query!r}")
    return query[: m.end()], m.group(2), reference


def reference_span(query: str) -> str:
    return split_reference(query)[2]


def ensure_right_keyword(question: str) -> str:
    """Prefix the direction keyword with "right" if it is not already there."""
    m = _DIRECTION_RX.search(question)
    if m is None:
        raise SlotUnresolved(f"no before/after keyword in {question!r}")
    if m.group(1):
        return question
    return question[: m.start()] + "right " + question[m.start():]


def make_absolute_query(chronological_query: str, timeline: Timeline, direction: str) -> str:
    """Swap the event reference for its boundary time ("January 1949")."""
    prefix, found_direction, reference = split_reference(chronological_query)
    if found_direction != direction:
        raise SlotUnresolved(
            f"query direction {found_direction!r} != requested {direction!r}")
    idx = timeline.index_of_object(reference)
    if idx is None:
        raise ReferenceEventNotFound(f"reference event {reference!r} not in timeline")
    anchor = timeline.facts[idx]
    if direction == BEFORE:
        time = anchor.start
    else:
        if anchor.end is None:
            raise MissingToTime(f"anchor {anchor.object!r} is ongoing")
        time = anchor.end
    suffix = chronological_query[len(prefix):]
    return prefix + suffix.replace(reference, time.format(), 1)


def build_pathways(timeline: Timeline, anchor: TemporalFact,
                   answer_fact: TemporalFact, direction: str) -> tuple[str, str]:
    """The (time-oriented, event-oriented) rationale sentences, lowercased."""
    idx = timeline.index_of_object(anchor.object)
    if idx is None or timeline.facts[idx] != anchor:
        raise NeighborMismatch("anchor fact not found in timeline")
    try:
        expected = neighbor_fact(timeline, idx, direction)
    except NoNeighbor as exc:
        raise NeighborMismatch(str(exc)) from exc
    if expected != answer_fact:
        raise NeighborMismatch(
            f"answer fact {answer_fact.object!r} is not the {direction} neighbor of {anchor.object!r}")

    if direction == BEFORE:
        boundary = anchor.start
    else:
        if anchor.end is None:
            raise MissingToTime(f"anchor {anchor.object!r} is ongoing")
        boundary = anchor.end

    def pathway(reference: str) -> str:
        return (f"because {anchor.sentence()}, and right {direction} {reference}, "
                f"{answer_fact.sentence(with_times=False)}.").lower()

    return pathway(boundary.format()), pathway(anchor.object)


def build_instance(record: dict, language: str = "en") -> BenchmarkInstance:
    """Run the full construction pipeline on one raw source record.

    Expects keys: question, subject, relation, fact_context; optional id,
    answer, language. Raises toolkit errors with the instance id attached.
    """
    instance_id = str(record.get("id") or _derive_id(record))
    try:
        return _build_instance(record, instance_id, record.get("language", language))
    except ToolkitError as exc:
        exc.instance_id = instance_id
        raise


def _derive_id(record: dict) -> str:
    payload = "\x00".join(str(record.get(k, "")) for k in ("subject", "relation", "question"))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def _build_instance(record: dict, instance_id: str, language: str) -> BenchmarkInstance:
    relation = normalize_relation(record["relation"])
    subject = record["subject"].strip()
    timeline = parse_fact_context(record["fact_context"], subject, relation)

    query_chronological = ensure_right_keyword(record["question"].strip())
    _, direction, reference = split_reference(query_chronological)

    anchor_idx = timeline.index_of_object(reference)
    if anchor_idx is None:
        raise ReferenceEventNotFound(f"reference event {reference!r} not in fact context")
    anchor = timeline.facts[anchor_idx]
    answer_fact = neighbor_fact(timeline, anchor_idx, direction)

    answer = str(record.get("answer") or answer_fact.object).strip()
    if answer.lower() != answer_fact.object.lower():
        raise GoldAnswerMismatch(
            f"gold answer {answer!r} does not match {direction} neighbor {answer_fact.object!r}")

    query_absolute = make_absolute_query(query_chronological, timeline, direction)
    pathway_time, pathway_event = build_pathways(timeline, anchor, answer_fact, direction)

    return BenchmarkInstance(
        id=instance_id,
        language=language,
        relation=relation,
        entity_type=relation_spec(relation).entity_type,
        direction=direction,
        query_absolute=query_absolute,
        query_chronological=query_chronological,
        answer=answer,
        pathway_time_oriented=pathway_time,
        pathway_event_oriented=pathway_event,
        fact_context=" ".join(record["fact_context"].split()),
    )


def build_dataset(records: Iterable[dict], language: str = "en",
                  ) -> tuple[list[BenchmarkInstance], list[dict]]:
    """Build every record, skipping (not failing) the unbuildable ones.

    Returns (instances in source order, skip log entries {id, reason}).
    """
    instances: list[BenchmarkInstance] = []
    skips: list[dict] = []
    for record in records:
        try:
            instances.append(build_instance(record, language=language))
        except (ToolkitError, KeyError) as exc:
            skips.append({
                "id": getattr(exc, "instance_id", str(record.get("id", ""))),
                "reason": f"{type(exc).__name__}: {exc}",
            })
    return instances, skips


def build_consistency_pairs(instances: list[BenchmarkInstance], n: int,
                            seed: int) -> list[ConsistencyPair]:
    """n positive pairs plus n antagonist pairs, seeded and deterministic."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > len(instances):
        raise SampleTooLarge(f"asked for {n} of {len(instances)} instances")
    if n > 0 and len(instances) < 2:
        raise SampleTooLarge("antagonist pairs need at least two instances")
    rng = random.Random(seed)
    sampled = rng.sample(instances, n)
    pairs: list[ConsistencyPair] = []
    for inst in sampled:
        pairs.append(ConsistencyPair(
            inst.query_absolute, inst.query_chronological, True, inst.id, inst.id))
        other = inst
        while other.id == inst.id:
            other = rng.choice(instances)
        pairs.append(ConsistencyPair(
            inst.query_absolute, other.query_chronological, False, inst.id, other.id))
    return pairs


def subsample(instances: list[BenchmarkInstance], n: int, seed: int) -> list[BenchmarkInstance]:
    """Seeded, order-preserving subsample (for small closed-model sweeps)."""
    if n > len(instances):
        raise SampleTooLarge(f"asked for {n} of {len(instances)} instances")
    chosen = set(random.Random(seed).sample(range(len(instances)), n))
    return [inst for i, inst in enumerate(instances) if i in chosen]
