"""Report documents: summary table, per-entity/per-language breakdowns, and
the error-analysis correlations.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import DatasetMismatch, LengthMismatch, ZeroVariance
from .metrics import EvalReport, pearson
from .querygen import BenchmarkInstance

# Fixed presentation order for entity types; never reordered between runs.
ENTITY_ORDER = ("person", "team", "position", "school", "employer", "political party")

SUMMARY_COLUMNS = ("EM CTR", "EM ATR", "EM Dev.", "F1 CTR", "F1 ATR", "F1 Dev.",
                   "Temp-Ref-Cons", "Temp-Ref-Cons-Fact")


def _entity_rows(report: EvalReport) -> list[dict]:
    rows = []
    ordered = [e for e in ENTITY_ORDER if e in report.per_entity]
    ordered += sorted(set(report.per_entity) - set(ENTITY_ORDER))
    for entity in ordered:
        trc, trcf, count = report.per_entity[entity]
        rows.append({"entity_type": entity, "trc": trc, "trcf": trcf, "count": count})
    return rows


def _safe_pearson(x: Sequence[float], y: Sequence[float]) -> Optional[float]:
    """Pearson r to two decimals; None ("not computable") for fewer than two
    points or zero variance."""
    try:
        return round(pearson(x, y), 2)
    except (LengthMismatch, ZeroVariance):
        return None


def build_report(report: EvalReport, dataset: Sequence[BenchmarkInstance],
                 compare: Optional[EvalReport] = None) -> dict:
    """Assemble the full report document as a JSON-serializable dict."""
    dataset_entities = {inst.entity_type for inst in dataset}
    unknown = sorted(set(report.per_entity) - dataset_entities)
    if unknown:
        raise DatasetMismatch("report covers entity types absent from dataset: "
                              + ", ".join(map(repr, unknown)))

    entity_rows = _entity_rows(report)
    correlations = {"entity_count_vs_trc": _safe_pearson(
        [row["count"] for row in entity_rows], [row["trc"] for row in entity_rows])}

    doc = {
        "summary": report.to_dict(),
        "per_entity": entity_rows,
        "per_language": {
            lang: {"trc": v[0], "trcf": v[1], "count": v[2]}
            for lang, v in sorted(report.per_language.items())
        },
        "correlations": correlations,
    }

    if compare is not None:
        shared = [row["entity_type"] for row in entity_rows
                  if row["entity_type"] in compare.per_entity]
        correlations["baseline_trcf_vs_trcf"] = _safe_pearson(
            [compare.per_entity[e][1] for e in shared],
            [report.per_entity[e][1] for e in shared])
        doc["baseline"] = {
            e: {"trc": compare.per_entity[e][0], "trcf": compare.per_entity[e][1]}
            for e in shared
        }
    return doc


def _table(title: str, key_header: str, rows) -> list[str]:
    """One breakdown table: a (key, {trc, trcf, count}) pair per row."""
    lines = ["", title, key_header.ljust(18) + "Temp-Ref-Cons".rjust(16)
             + "Temp-Ref-Cons-Fact".rjust(20) + "count".rjust(10)]
    for key, row in rows:
        lines.append(key.ljust(18) + f"{row['trc']:.2f}".rjust(16)
                     + f"{row['trcf']:.2f}".rjust(20) + str(row["count"]).rjust(10))
    return lines


def format_text_report(doc: dict) -> str:
    """Fixed-width rendering mirroring the summary-table column layout."""
    summary = doc["summary"]
    values = (summary["em_ctr"], summary["em_atr"], summary["dev_em"],
              summary["f1_ctr"], summary["f1_atr"], summary["dev_f1"],
              summary["trc"], summary["trcf"])
    width = 20
    lines = ["Summary (m = %d scored pairs)" % summary["m"]]
    lines.append("".join(col.rjust(width) for col in SUMMARY_COLUMNS))
    lines.append("".join(f"{v:.2f}".rjust(width) for v in values))

    lines += _table("Per entity type", "entity type",
                    ((row["entity_type"], row) for row in doc["per_entity"]))
    if doc["per_language"]:
        lines += _table("Per language", "language", doc["per_language"].items())

    lines.append("")
    lines.append("Correlations")
    for name, value in doc["correlations"].items():
        rendered = "not computable" if value is None else f"{value:.2f}"
        lines.append(f"  {name}: {rendered}")
    return "\n".join(lines) + "\n"
