"""Pinned `build_report` + `format_text_report` output for the edge cases:
correlations that cannot be computed, an empty language breakdown, and an
`eval.json` read back from disk."""

import json

from trc_toolkit.manifest import write_json
from trc_toolkit.metrics import EvalReport, ResponsePair, evaluate
from trc_toolkit.querygen import BenchmarkInstance
from trc_toolkit.report import build_report, format_text_report


def _instances(*entity_types):
    return [BenchmarkInstance(f"i{k}", "en", "employer", entity, "before",
                              "q abs?", "q chron?", "a", "p time", "p event", "ctx")
            for k, entity in enumerate(entity_types)]


def _report(per_entity, per_language=None):
    return EvalReport(em_ctr=50.0, em_atr=75.0, f1_ctr=60.5, f1_atr=80.25,
                      dev_em=25.0, dev_f1=19.75, trc=40.0, trcf=25.0,
                      m=sum(count for _, _, count in per_entity.values()),
                      per_entity=per_entity, per_language=per_language or {})


SUMMARY = (
    "Summary (m = 4 scored pairs)\n"
    "              EM CTR              EM ATR             EM Dev."
    "              F1 CTR              F1 ATR             F1 Dev."
    "       Temp-Ref-Cons  Temp-Ref-Cons-Fact\n"
    "               50.00               75.00               25.00"
    "               60.50               80.25               19.75"
    "               40.00               25.00\n"
)
ENTITY_HEADER = "entity type          Temp-Ref-Cons  Temp-Ref-Cons-Fact     count\n"


class TestNotComputable:
    def test_one_entity_type(self):
        report = _report({"employer": (40.0, 25.0, 4)}, {"en": (40.0, 25.0, 4)})
        doc = build_report(report, _instances("employer"))
        assert doc["correlations"] == {"entity_count_vs_trc": None}
        assert format_text_report(doc) == (
            SUMMARY + "\nPer entity type\n" + ENTITY_HEADER
            + "employer                     40.00               25.00         4\n"
            "\nPer language\n"
            "language             Temp-Ref-Cons  Temp-Ref-Cons-Fact     count\n"
            "en                           40.00               25.00         4\n"
            "\nCorrelations\n"
            "  entity_count_vs_trc: not computable\n")

    def test_compare_with_one_shared_entity_type(self):
        report = _report({"person": (10.0, 5.0, 1), "employer": (40.0, 25.0, 3)})
        baseline = _report({"employer": (30.0, 12.5, 3), "school": (1.0, 2.0, 1)})
        doc = build_report(report, _instances("person", "employer"), compare=baseline)
        assert doc["correlations"] == {"entity_count_vs_trc": 1.0,
                                       "baseline_trcf_vs_trcf": None}
        assert doc["baseline"] == {"employer": {"trc": 30.0, "trcf": 12.5}}
        assert format_text_report(doc).endswith(
            "\nCorrelations\n"
            "  entity_count_vs_trc: 1.00\n"
            "  baseline_trcf_vs_trcf: not computable\n")

    def test_zero_variance_counts(self):
        report = _report({"team": (10.0, 5.0, 2), "employer": (40.0, 25.0, 2)})
        doc = build_report(report, _instances("team", "employer"), compare=report)
        assert doc["correlations"] == {"entity_count_vs_trc": None,
                                       "baseline_trcf_vs_trcf": 1.0}
        assert format_text_report(doc).endswith(
            "\nCorrelations\n"
            "  entity_count_vs_trc: not computable\n"
            "  baseline_trcf_vs_trcf: 1.00\n")


def test_empty_per_language_has_no_section():
    report = _report({"team": (10.0, 5.0, 1), "employer": (40.0, 25.0, 3)})
    doc = build_report(report, _instances("team", "employer"))
    assert doc["per_language"] == {}
    assert format_text_report(doc) == (
        SUMMARY + "\nPer entity type\n" + ENTITY_HEADER
        + "team                         10.00                5.00         1\n"
        "employer                     40.00               25.00         3\n"
        "\nCorrelations\n"
        "  entity_count_vs_trc: 1.00\n")


def test_eval_json_round_trip_renders_the_same_bytes(synthetic_dataset, tmp_path):
    pairs = [ResponsePair(inst.id, inst.answer if k % 3 else "nobody",
                          inst.answer if k % 5 else "nobody")
             for k, inst in enumerate(synthetic_dataset)]
    report = evaluate(synthetic_dataset, pairs)
    baseline = evaluate(synthetic_dataset, pairs[::2])
    write_json(tmp_path / "eval.json", report.to_dict())
    write_json(tmp_path / "baseline.json", baseline.to_dict())
    read = [EvalReport.from_dict(json.loads((tmp_path / name).read_text(encoding="utf-8")))
            for name in ("eval.json", "baseline.json")]
    write_json(tmp_path / "eval_again.json", read[0].to_dict())
    assert (tmp_path / "eval_again.json").read_bytes() == (tmp_path / "eval.json").read_bytes()
    in_memory = build_report(report, synthetic_dataset, baseline)
    from_disk = build_report(read[0], synthetic_dataset, read[1])
    write_json(tmp_path / "memory.json", in_memory)
    write_json(tmp_path / "disk.json", from_disk)
    assert (tmp_path / "memory.json").read_bytes() == (tmp_path / "disk.json").read_bytes()
    assert format_text_report(in_memory) == format_text_report(from_disk)
    assert len(in_memory["per_entity"]) >= 2 and in_memory["per_language"]
