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
from typing import Iterable

from . import kb
from .errors import (
    GoldAnswerMismatch,
    ReferenceEventNotFound,
    SampleTooLarge,
    SlotUnresolved,
    ToolkitError,
)
from .kb import BEFORE, TemporalFact, neighbor_fact, parse_fact_context
from .manifest import JsonRecord
from .relations import RelationSpec, normalize_relation, relation_spec


@dataclass(frozen=True)
class BenchmarkInstance(JsonRecord):
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
class ConsistencyPair(JsonRecord):
    query_a: str
    query_b: str
    label: bool
    # Source ids kept for auditing label soundness; not part of the pair itself.
    id_a: str = ""
    id_b: str = ""


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


def _direction_match(query: str) -> re.Match:
    m = _DIRECTION_RX.search(query)
    if m is None:
        raise SlotUnresolved(f"no before/after keyword in {query!r}")
    return m


def _reference_after(query: str, end: int) -> str:
    """The reference span after the direction keyword, without the trailing '?'."""
    reference = query[end:].strip()
    if reference.endswith("?"):
        reference = reference[:-1].strip()
    if not reference:
        raise SlotUnresolved(f"empty reference span in {query!r}")
    return reference


def split_reference(query: str) -> tuple[str, str, str]:
    """Split a query at its direction keyword.

    Returns (prefix ending at the keyword incl. trailing space, direction,
    reference span without the trailing '?').
    """
    m = _direction_match(query)
    return query[: m.end()], m.group(2), _reference_after(query, m.end())


def reference_span(query: str) -> str:
    return split_reference(query)[2]


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


def _pathway(anchor: TemporalFact, direction: str, reference: str,
             answer_fact: TemporalFact) -> str:
    """One rationale sentence, lowercased: the anchor fact, then its neighbour."""
    return (f"because {anchor.sentence()}, and right {direction} {reference}, "
            f"{answer_fact.sentence(with_times=False)}.").lower()


def _build_instance(record: dict, instance_id: str, language: str) -> BenchmarkInstance:
    relation = normalize_relation(record["relation"])
    subject = record["subject"].strip()
    timeline = parse_fact_context(record["fact_context"], subject, relation)

    # The chronological query always reads "right before/after <event>".
    question = record["question"].strip()
    m = _direction_match(question)
    direction = m.group(2)
    prefix = question[: m.start()] + ("" if m.group(1) else "right ") + m.group(0)
    suffix = question[m.end():]
    query_chronological = prefix + suffix
    reference = _reference_after(query_chronological, len(prefix))

    anchor_idx = timeline.index_of_object(reference)
    if anchor_idx is None:
        raise ReferenceEventNotFound(f"reference event {reference!r} not in fact context")
    anchor = timeline.facts[anchor_idx]
    # Raises NoNeighbor for an ongoing anchor with "after", so `anchor.end`
    # below is set whenever the direction is "after".
    answer_fact = neighbor_fact(timeline, anchor_idx, direction)

    answer = str(record.get("answer") or answer_fact.object).strip()
    if answer.lower() != answer_fact.object.lower():
        raise GoldAnswerMismatch(
            f"gold answer {answer!r} does not match {direction} neighbor {answer_fact.object!r}")

    # The absolute query swaps the event for its boundary time ("January 1949").
    boundary = (anchor.start if direction == BEFORE else anchor.end).format()
    return BenchmarkInstance(
        id=instance_id,
        language=language,
        relation=relation,
        entity_type=relation_spec(relation).entity_type,
        direction=direction,
        query_absolute=prefix + suffix.replace(reference, boundary, 1),
        query_chronological=query_chronological,
        answer=answer,
        pathway_time_oriented=_pathway(anchor, direction, boundary, answer_fact),
        pathway_event_oriented=_pathway(anchor, direction, anchor.object, answer_fact),
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
    if n > 0 and len({inst.id for inst in instances}) < 2:
        raise SampleTooLarge("antagonist pairs need at least two distinct instance ids")
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
