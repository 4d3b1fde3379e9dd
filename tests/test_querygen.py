import hashlib
import json

import pytest

from trc_toolkit.errors import (
    NeighborMismatch,
    ReferenceEventNotFound,
    SampleTooLarge,
    SlotUnresolved,
)
from trc_toolkit.kb import parse_fact_context
from trc_toolkit.querygen import (
    build_consistency_pairs,
    build_dataset,
    build_instance,
    build_pathways,
    make_absolute_query,
    make_chronological_query,
    reference_span,
)
from trc_toolkit.relations import RELATIONS, RelationSpec, relation_spec
from trc_toolkit.report import ENTITY_ORDER

from conftest import (
    PELIKAN_CONTEXT,
    PELIKAN_PATHWAY_EVENT,
    PELIKAN_PATHWAY_TIME,
    PELIKAN_QUERY_ABSOLUTE,
    PELIKAN_QUERY_CHRONOLOGICAL,
)
from synthkb import make_dataset, make_records, make_timelines


@pytest.fixture
def pelikan_timeline():
    return parse_fact_context(PELIKAN_CONTEXT, "Jaroslav Pelikan", "employer")


SYNTH_AFTER_CONTEXT = (
    "Avery Holt worked for Northfield Institute from April 1995 to June 1998. "
    "Avery Holt worked for Crescent Union from July 1998 to March 2001. "
    "Avery Holt worked for Summit College from April 2001 to May 2004."
)


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
    def test_pelikan(self, pelikan_timeline):
        query = make_absolute_query(PELIKAN_QUERY_CHRONOLOGICAL, pelikan_timeline, "before")
        assert query == PELIKAN_QUERY_ABSOLUTE

    def test_after_uses_to_time(self):
        # hand application of the from/to selection rule on a 3-fact timeline:
        # direction "after" anchored on Crescent Union picks its end, March 2001
        timeline = parse_fact_context(SYNTH_AFTER_CONTEXT, "Avery Holt", "employer")
        query = make_absolute_query(
            "Which employer did Avery Holt work for right after Crescent Union?",
            timeline, "after")
        assert query == "Which employer did Avery Holt work for right after March 2001?"

    def test_reference_event_not_found(self, pelikan_timeline):
        with pytest.raises(ReferenceEventNotFound):
            make_absolute_query(
                "Which employer did Jaroslav Pelikan work for right before Yale?",
                pelikan_timeline, "before")


class TestBuildPathways:
    def test_pelikan_table_strings(self, pelikan_timeline):
        anchor = pelikan_timeline.facts[1]
        answer = pelikan_timeline.facts[0]
        time_oriented, event_oriented = build_pathways(
            pelikan_timeline, anchor, answer, "before")
        assert time_oriented == PELIKAN_PATHWAY_TIME
        assert event_oriented == PELIKAN_PATHWAY_EVENT

    def test_after_direction_uses_anchor_end(self):
        # hand application of the pathway rule on the middle fact, direction after
        timeline = parse_fact_context(SYNTH_AFTER_CONTEXT, "Avery Holt", "employer")
        time_oriented, event_oriented = build_pathways(
            timeline, timeline.facts[1], timeline.facts[2], "after")
        assert time_oriented == (
            "because avery holt worked for crescent union from july 1998 to "
            "march 2001, and right after march 2001, avery holt worked for "
            "summit college.")
        assert "right after crescent union" in event_oriented

    def test_neighbor_mismatch(self, pelikan_timeline):
        with pytest.raises(NeighborMismatch):
            build_pathways(pelikan_timeline, pelikan_timeline.facts[0],
                           pelikan_timeline.facts[1], "before")


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


class TestSyntheticBatch:
    def test_boundary_records_are_skipped_not_errored(self):
        instances, skips = make_dataset(20, seed=8)
        assert instances and skips
        reasons = {s["reason"].split(":")[0] for s in skips}
        assert reasons <= {"NoNeighbor"}
