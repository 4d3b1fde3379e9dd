import dataclasses
import hashlib
import json
import random
import re
import threading

import pytest

from trc_toolkit.errors import (
    ReferenceEventNotFound,
    SampleTooLarge,
    SlotUnresolved,
)
from trc_toolkit.querygen import (
    BenchmarkInstance,
    build_consistency_pairs,
    build_dataset,
    build_instance,
    make_chronological_query,
    reference_span,
)
from trc_toolkit.relations import RELATIONS, RelationSpec, relation_spec
from trc_toolkit.report import ENTITY_ORDER

from conftest import (
    PELIKAN_PATHWAY_EVENT,
    PELIKAN_PATHWAY_TIME,
    PELIKAN_QUERY_ABSOLUTE,
    PELIKAN_QUERY_CHRONOLOGICAL,
)
from synthkb import make_dataset, make_records, make_timelines


SYNTH_AFTER_CONTEXT = (
    "Avery Holt worked for Northfield Institute from April 1995 to June 1998. "
    "Avery Holt worked for Crescent Union from July 1998 to March 2001. "
    "Avery Holt worked for Summit College from April 2001 to May 2004."
)


@pytest.fixture
def holt_record():
    return {
        "id": "holt-1",
        "question": "Which employer did Avery Holt work for after Crescent Union?",
        "subject": "Avery Holt",
        "relation": "employer",
        "fact_context": SYNTH_AFTER_CONTEXT,
        "answer": "Summit College",
    }


class TestRelationSpec:
    @pytest.mark.parametrize("pattern", [
        "Which team did play for <direction> <object>?",
        "Which team did <subject> play for <object>?",
        "Which team did <subject> play for <direction> <direction> <object>?",
    ])
    def test_each_slot_exactly_once(self, pattern):
        with pytest.raises(ValueError):
            RelationSpec("r", "played for", pattern, "team")

    def test_entity_order_covers_every_relation(self):
        assert set(ENTITY_ORDER) == {spec.entity_type for spec in RELATIONS.values()}


class TestMakeChronologicalQuery:
    def test_pelikan(self):
        query = make_chronological_query(
            relation_spec("employer"), "Jaroslav Pelikan",
            "Concordia Seminary", "before")
        assert query == PELIKAN_QUERY_CHRONOLOGICAL

    def test_brodrick(self):
        query = make_chronological_query(
            relation_spec("position_held"),
            "St John Brodrick, 1st Earl of Midleton",
            "Member of the 23rd Parliament of the United Kingdom", "before")
        assert query == ("Which position did St John Brodrick, 1st Earl of Midleton "
                         "hold right before Member of the 23rd Parliament of the "
                         "United Kingdom?")

    def test_empty_reference_event(self):
        with pytest.raises(SlotUnresolved):
            make_chronological_query(relation_spec("employer"), "X", "  ", "before")


class TestMakeAbsoluteQuery:
    """The absolute query of a built instance: the event swapped for its boundary time."""

    def test_pelikan(self, pelikan_record):
        # a question that already reads "right before" is not prefixed twice
        record = dict(pelikan_record, question=PELIKAN_QUERY_CHRONOLOGICAL)
        inst = build_instance(record)
        assert inst.query_absolute == PELIKAN_QUERY_ABSOLUTE
        assert inst.query_chronological == PELIKAN_QUERY_CHRONOLOGICAL

    def test_after_uses_to_time(self, holt_record):
        # hand application of the from/to selection rule on a 3-fact timeline:
        # direction "after" anchored on Crescent Union picks its end, March 2001
        inst = build_instance(holt_record)
        assert inst.query_absolute == \
            "Which employer did Avery Holt work for right after March 2001?"
        assert inst.query_chronological == \
            "Which employer did Avery Holt work for right after Crescent Union?"

    def test_reference_event_not_found(self, pelikan_record):
        record = dict(pelikan_record, question=(
            "Which employer did Jaroslav Pelikan work for right before Yale?"))
        with pytest.raises(ReferenceEventNotFound) as info:
            build_instance(record)
        assert info.value.instance_id == "pelikan-1"


class TestBuildPathways:
    """The two rationale sentences of a built instance."""

    def test_pelikan_table_strings(self, pelikan_record):
        inst = build_instance(pelikan_record)
        assert inst.pathway_time_oriented == PELIKAN_PATHWAY_TIME
        assert inst.pathway_event_oriented == PELIKAN_PATHWAY_EVENT

    def test_after_direction_uses_anchor_end(self, holt_record):
        # hand application of the pathway rule on the middle fact, direction
        # after: the time-oriented pathway names the time the absolute query does
        inst = build_instance(holt_record)
        assert inst.pathway_time_oriented == (
            "because avery holt worked for crescent union from july 1998 to "
            "march 2001, and right after march 2001, avery holt worked for "
            "summit college.")
        assert inst.pathway_event_oriented == (
            "because avery holt worked for crescent union from july 1998 to "
            "march 2001, and right after crescent union, avery holt worked for "
            "summit college.")
        assert f"right after {reference_span(inst.query_absolute).lower()}," in \
            inst.pathway_time_oriented


class TestBuildInstance:
    def test_pelikan_all_fields(self, pelikan_record):
        inst = build_instance(pelikan_record)
        assert inst.query_absolute == PELIKAN_QUERY_ABSOLUTE
        assert inst.query_chronological == PELIKAN_QUERY_CHRONOLOGICAL
        assert inst.answer == "Valparaiso University"
        assert inst.pathway_time_oriented == PELIKAN_PATHWAY_TIME
        assert inst.pathway_event_oriented == PELIKAN_PATHWAY_EVENT
        assert inst.entity_type == "employer"
        assert inst.direction == "before"

    def test_deterministic(self, pelikan_record):
        assert build_instance(pelikan_record) == build_instance(pelikan_record)

    def test_record_round_trip(self, pelikan_instance):
        record = pelikan_instance.to_dict()
        assert BenchmarkInstance.from_dict(dict(record, extra="ignored")) == pelikan_instance
        del record["answer"]
        with pytest.raises(KeyError):
            BenchmarkInstance.from_dict(record)

    def test_earliest_anchor_skipped_in_batch(self, pelikan_record):
        record = dict(pelikan_record)
        record["question"] = ("Which employer did Jaroslav Pelikan work for "
                              "before Valparaiso University?")
        del record["answer"]
        instances, skips = build_dataset([record])
        assert instances == []
        assert len(skips) == 1
        assert "NoNeighbor" in skips[0]["reason"]
        assert skips[0]["id"] == "pelikan-1"


class TestDatasetProperties:
    def test_reference_span_deletion_yields_identical_residuals(self, synthetic_dataset):
        for inst in synthetic_dataset:
            span_c = reference_span(inst.query_chronological)
            span_a = reference_span(inst.query_absolute)
            assert inst.query_chronological.replace(span_c, "", 1) == \
                inst.query_absolute.replace(span_a, "", 1)

    def test_pathways_contain_answer(self, synthetic_dataset):
        for inst in synthetic_dataset:
            assert inst.answer.lower() in inst.pathway_time_oriented
            assert inst.answer.lower() in inst.pathway_event_oriented

    def test_direction_keyword_prefixed_by_right(self, synthetic_dataset):
        for inst in synthetic_dataset:
            assert f"right {inst.direction}" in inst.query_absolute
            assert f"right {inst.direction}" in inst.query_chronological

    def test_build_is_deterministic_by_digest(self):
        records = make_records(make_timelines(40, seed=5))

        def digest():
            instances, _ = build_dataset(records)
            payload = "\n".join(json.dumps(i.to_dict(), sort_keys=True)
                                for i in instances)
            return hashlib.sha256(payload.encode()).hexdigest()

        assert digest() == digest()


class TestConsistencyPairs:
    def test_counts_and_labels(self, synthetic_dataset):
        pairs = build_consistency_pairs(synthetic_dataset, 50, seed=1)
        assert len(pairs) == 100
        assert sum(p.label for p in pairs) == 50

    def test_label_soundness(self, synthetic_dataset):
        by_id = {inst.id: inst for inst in synthetic_dataset}
        for pair in build_consistency_pairs(synthetic_dataset, 80, seed=2):
            if pair.label:
                assert pair.id_a == pair.id_b
                inst = by_id[pair.id_a]
                assert pair.query_a == inst.query_absolute
                assert pair.query_b == inst.query_chronological
            else:
                assert pair.id_a != pair.id_b
                assert pair.query_a == by_id[pair.id_a].query_absolute
                assert pair.query_b == by_id[pair.id_b].query_chronological

    def test_n_zero(self, synthetic_dataset):
        assert build_consistency_pairs(synthetic_dataset, 0, seed=0) == []

    def test_antagonist_with_two_instances_is_the_other_one(self, synthetic_dataset):
        two = synthetic_dataset[:2]
        pairs = build_consistency_pairs(two, 1, seed=9)
        negative = [p for p in pairs if not p.label][0]
        assert {negative.id_a, negative.id_b} == {two[0].id, two[1].id}

    def test_deterministic(self, synthetic_dataset):
        a = build_consistency_pairs(synthetic_dataset, 30, seed=4)
        b = build_consistency_pairs(synthetic_dataset, 30, seed=4)
        assert a == b

    def test_sample_too_large(self, synthetic_dataset):
        with pytest.raises(SampleTooLarge):
            build_consistency_pairs(synthetic_dataset, len(synthetic_dataset) + 1, seed=0)

    def test_one_distinct_id_raises_instead_of_hanging(self, synthetic_dataset):
        same = [dataclasses.replace(inst, id="same") for inst in synthetic_dataset[:5]]
        raised = []

        def pair():
            try:
                build_consistency_pairs(same, 1, 0)
            except SampleTooLarge as exc:
                raised.append(exc)

        worker = threading.Thread(target=pair, daemon=True)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive(), "no antagonist can be drawn from one id"
        assert len(raised) == 1


class TestSyntheticBatch:
    def test_boundary_records_are_skipped_not_errored(self):
        instances, skips = make_dataset(20, seed=8)
        assert instances and skips
        reasons = {s["reason"].split(":")[0] for s in skips}
        assert reasons <= {"NoNeighbor"}

    def test_inverted_interval_is_skipped_not_fatal(self, pelikan_record):
        inverted = dict(pelikan_record, id="inverted", fact_context=(
            "Jaroslav Pelikan worked for Valparaiso University from January 1950 to January 1940. "
            "Jaroslav Pelikan worked for Concordia Seminary from January 1949 to January 1953."))
        instances, skips = build_dataset([pelikan_record, inverted])
        assert [inst.id for inst in instances] == ["pelikan-1"]
        assert [s["id"] for s in skips] == ["inverted"]
        assert skips[0]["reason"].startswith("InvertedInterval: sentence 0:")


def _perturbed_records(n_timelines: int, seed: int) -> list[dict]:
    """synthkb records with every kind of unbuildable or irregular source mixed in.

    Ongoing anchors come from synthkb itself; every eleventh record is left
    as generated.
    """
    records = make_records(make_timelines(n_timelines, seed=seed))
    rng = random.Random(seed)
    for k, record in enumerate(records):
        question = record["question"]
        reference = reference_span(question)
        kind = k % 11
        if kind == 1 and "answer" in record:
            record["answer"] = rng.choice(["Nobody", record["subject"]])
        elif kind == 2:
            record["question"] = question.replace(reference, "Yale University")
        elif kind == 3:
            record["question"] = re.sub(r"\b(before|after)\b",
                                        lambda m: m.group(1).upper(), question)
        elif kind == 4:
            record["question"] = re.sub(r" (before|after)\b", "", question)
        elif kind == 5:
            record["question"] = question[:question.rindex(reference)].rstrip() + "?"
        elif kind == 6:
            record["question"] = re.sub(r"\b(before|after)\b", r"right \1", question)
        elif kind == 7:
            record["relation"] = "spouse"
        elif kind == 8:
            record["question"] = "  " + question.replace(reference, reference.lower()) + " "
            if "answer" in record:
                record["answer"] = record["answer"].lower()
        elif kind == 9:
            del record["id"]
            record.pop("answer", None)
        elif kind == 10:
            del record["fact_context"]
    return records


# sha256 of the instances (one JSON line each, field order kept) and of the
# skip log that build_dataset makes from _perturbed_records(60, seed=3).
PERTURBED_BUILD_DIGESTS = {
    "instances": "d93bffd1b499e6419120b556b2d984340c3a8d51941e1b4df77dd5cf70deebef",
    "skips": "bdc327539e356803203c1cb0a088396369cce970a1f37fe1b7b96be97453e59b",
}


def test_perturbed_batch_golden():
    instances, skips = build_dataset(_perturbed_records(60, seed=3))
    reasons = [s["reason"] for s in skips]
    assert {r.split(":")[0] for r in reasons} == {
        "GoldAnswerMismatch", "ReferenceEventNotFound", "SlotUnresolved",
        "NoNeighbor", "KeyError"}
    assert any("ongoing" in r for r in reasons)
    assert any("empty reference span" in r for r in reasons)
    assert any("no before/after keyword" in r for r in reasons)
    observed = {
        "instances": "\n".join(json.dumps(i.to_dict()) for i in instances),
        "skips": "\n".join(json.dumps(s) for s in skips),
    }
    observed = {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in observed.items()}
    assert observed == PERTURBED_BUILD_DIGESTS
