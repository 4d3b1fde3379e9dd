"""Paired query construction.

From each raw event-event source record this produces one benchmark instance:
a chronological query (anchored on an event), an absolute query (same wording,
anchored on the event's boundary time), the gold answer, and the two
rationale sentences that connect them. A source row is read as a
`SourceRecord`, so a field of the wrong JSON type is a MalformedRecord.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DuplicateInstanceId,
    GoldAnswerMismatch,
    ReferenceEventNotFound,
    SampleTooLarge,
    SlotUnresolved,
    ToolkitError,
)
from .kb import BEFORE, neighbor_fact, normalize_relation, parse_fact_context, relation_spec
from .manifest import JsonRecord, read_jsonl, row_line


# The two references of an instance, each with its own query and pathway field.
REFERENCE_KINDS = ("absolute", "chronological")


def check_reference_kind(kind: str) -> None:
    if kind not in REFERENCE_KINDS:
        raise ValueError(f"unknown reference kind {kind!r}")


@dataclass
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
        check_reference_kind(reference_kind)
        return self.query_absolute if reference_kind == "absolute" else self.query_chronological

    def pathway(self, reference_kind: str) -> str:
        """The rationale aligned with a reference: an absolute query's names the
        anchor event, a chronological query's the boundary time."""
        check_reference_kind(reference_kind)
        return (self.pathway_event_oriented if reference_kind == "absolute"
                else self.pathway_time_oriented)


@dataclass
class ConsistencyPair(JsonRecord):
    query_a: str
    query_b: str
    label: bool
    # Source ids kept for auditing label soundness; not part of the pair itself.
    id_a: str = ""
    id_b: str = ""


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


@dataclass
class SourceRecord(JsonRecord):
    """One raw source row. A null or empty id or answer is derived, and a
    numeric id (0 too) becomes a string; an absent language is the batch's."""
    question: str
    subject: str
    relation: str
    fact_context: str
    language: str = None   # absent: the batch's; an explicit null is refused
    answer: str | None = None
    id: str | float | None = None


def build_instance(record: dict, language: str = "en", *,
                   _timelines: dict | None = None) -> BenchmarkInstance:
    """Run the full construction pipeline on one raw source row.

    The row is read as a `SourceRecord` (MalformedRecord). Past that, every
    toolkit error carries the instance id. `_timelines` is `build_dataset`'s
    memo of the fact contexts it parsed, each with its normalised text.
    """
    source = SourceRecord.from_dict(record)
    instance_id = _derive_id(source) if source.id in (None, "") else str(source.id)
    language = language if source.language is None else source.language
    try:
        return _build_instance(source, instance_id, language,
                               {} if _timelines is None else _timelines)
    except ToolkitError as exc:
        exc.instance_id = instance_id
        raise


def _derive_id(source: SourceRecord) -> str:
    payload = "\x00".join((source.subject, source.relation, source.question))
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


def _pathway(anchor: str, direction: str, reference: str, neighbour: str) -> str:
    """One rationale sentence, lowercased: the anchor fact's sentence, then its
    neighbour's (without times)."""
    return f"because {anchor}, and right {direction} {reference}, {neighbour}.".lower()


def _build_instance(source: SourceRecord, instance_id: str, language: str,
                    timelines: dict) -> BenchmarkInstance:
    relation = normalize_relation(source.relation)
    subject = source.subject.strip()
    key = (source.fact_context, subject, relation)
    if key not in timelines:   # a context that fails to parse is not kept
        timelines[key] = parse_fact_context(*key), " ".join(source.fact_context.split())
    timeline, fact_context = timelines[key]

    # The chronological query always reads "right before/after <event>".
    question = source.question.strip()
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

    answer = (source.answer or answer_fact.object).strip()
    if answer.lower() != answer_fact.object.lower():
        raise GoldAnswerMismatch(
            f"gold answer {answer!r} does not match {direction} neighbor {answer_fact.object!r}")

    # The absolute query swaps the event for its boundary time ("January 1949").
    boundary = (anchor.start if direction == BEFORE else anchor.end).format()
    anchor_text, neighbour_text = anchor.sentence(), answer_fact.sentence(with_times=False)
    return BenchmarkInstance(
        id=instance_id,
        language=language,
        relation=relation,
        entity_type=relation_spec(relation).entity_type,
        direction=direction,
        query_absolute=prefix + suffix.replace(reference, boundary, 1),
        query_chronological=query_chronological,
        answer=answer,
        pathway_time_oriented=_pathway(anchor_text, direction, boundary, neighbour_text),
        pathway_event_oriented=_pathway(anchor_text, direction, anchor.object, neighbour_text),
        fact_context=fact_context,
    )


def build_dataset(records: Iterable[dict], language: str = "en",
                  ) -> tuple[list[BenchmarkInstance], list[dict]]:
    """Build every record, skipping (not failing) the unbuildable ones.

    A record whose id an earlier record already built is skipped too, so
    every instance id in the output is unique. Each distinct (fact context,
    subject, relation) is parsed once per call; the timelines are dropped
    when it returns.

    Returns (instances in source order, skip log entries {id, reason}).
    """
    instances: list[BenchmarkInstance] = []
    skips: list[dict] = []
    built: set[str] = set()
    timelines: dict = {}
    for record in records:
        try:
            instance = build_instance(record, language=language, _timelines=timelines)
            if instance.id in built:
                raise DuplicateInstanceId(instance.id)
        except ToolkitError as exc:
            # a row that did not convert has no instance id: log the id it
            # holds, where a null id is no id, as everywhere
            row_id = record.get("id") if type(record) is dict else None
            row_id = "" if row_id is None else str(row_id)
            skips.append({"id": getattr(exc, "instance_id", row_id),
                          "reason": f"{type(exc).__name__}: {exc}"})
            continue
        built.add(instance.id)
        instances.append(instance)
    return instances, skips


def read_dataset(path: str, *, across_languages: bool = False) -> list[BenchmarkInstance]:
    """The instances of a dataset file. A repeated (id, language) is refused,
    naming its line, since a command would prompt, export or sample it twice.
    With `across_languages`, so is one id in two languages: `evaluate` needs
    that, as a response names no language."""
    instances: list[BenchmarkInstance] = []
    languages: dict[str, set[str]] = {}   # each id's languages so far
    for inst in read_jsonl(path, BenchmarkInstance):
        held = languages.setdefault(inst.id, set())
        if inst.language in held or (across_languages and held):
            scope = f" in language {inst.language!r}" if inst.language in held else ""
            raise DuplicateInstanceId(inst.id, f"{path}:{row_line(path, len(instances))}: "
                                      f"dataset repeats instance id {inst.id!r}{scope}")
        held.add(inst.language)
        instances.append(inst)
    return instances


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
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > len(instances):
        raise SampleTooLarge(f"asked for {n} of {len(instances)} instances")
    chosen = set(random.Random(seed).sample(range(len(instances)), n))
    return [inst for i, inst in enumerate(instances) if i in chosen]
