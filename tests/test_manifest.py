"""The one record rule: every `JsonRecord` class resolves and round-trips,
and `from_dict` checks each value's JSON type against the annotation."""

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

import trc_toolkit
from trc_toolkit import cli
from trc_toolkit.client import CacheEntry, CompletionRecord
from trc_toolkit.errors import MalformedRecord
from trc_toolkit.manifest import JsonRecord, _fields, encode_json, read_json, read_jsonl
from trc_toolkit.metrics import EvalReport
from trc_toolkit.prompting import PromptRow, SftRecord
from trc_toolkit.querygen import BenchmarkInstance, ConsistencyPair, SourceRecord

# One instance of every record class; a class without one fails the guard.
SAMPLES = {
    BenchmarkInstance: BenchmarkInstance("i0", "en", "employer", "employer", "before",
                                         "q abs?", "q chron?", "a", "p time", "p event",
                                         "ctx"),
    ConsistencyPair: ConsistencyPair("q abs?", "q chron?", True, "i0", "i1"),
    SourceRecord: SourceRecord("q?", "s", "employer", "ctx", "fr", None, 17),
    SftRecord: SftRecord("do it", "q?", "p\na", "cross"),
    PromptRow: PromptRow("i0", "absolute", "Question: q?\nAnswer:"),
    CompletionRecord: CompletionRecord("i0", "absolute", "ab12", "A", "a", "m", 0.25, None),
    CacheEntry: CacheEntry("ab12", "A", 0.25),
    EvalReport: EvalReport(50.0, 75, 60.5, 80.25, 25.0, 19.75, 40.0, 25.0, 4,
                           {"employer": (40.0, 25.0, 4)}, {}),
    cli._Response: cli._Response("i0", "chronological", "a", "HTTP 503"),
}


@pytest.mark.parametrize("cls", JsonRecord.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_record_class_round_trips(cls):
    assert _fields(cls)
    # each row is built once and never hashed, so no class pays for `frozen=True`
    assert not cls.__dataclass_params__.frozen, f"{cls.__name__} is frozen"
    assert cls in SAMPLES, f"no sample for {cls.__name__}"
    text = encode_json(SAMPLES[cls].to_dict())
    assert encode_json(cls.from_dict(json.loads(text)).to_dict()) == text


def test_annotation_without_a_json_type_is_refused():
    @dataclass
    class Tagged:
        tags: set[str]

    with pytest.raises(TypeError, match="Tagged.tags"):
        _fields(Tagged)


@pytest.mark.parametrize("field, value, message", [
    ("latency", True, "field 'latency' is boolean, expected number"),
    ("latency", "0.5", "field 'latency' is string, expected number"),
    ("error", 3, "field 'error' is number, expected string or null"),
])
def test_wrong_json_type_is_refused(field, value, message):
    row = dict(SAMPLES[CompletionRecord].to_dict(), **{field: value})
    with pytest.raises(MalformedRecord) as exc:
        CompletionRecord.from_dict(row)
    assert str(exc.value) == message


def test_int_counts_as_a_number_and_a_float_not_as_an_integer():
    row = SAMPLES[EvalReport].to_dict()
    assert EvalReport.from_dict(dict(row, em_ctr=50)).em_ctr == 50
    with pytest.raises(MalformedRecord, match="field 'm' is number, expected integer"):
        EvalReport.from_dict(dict(row, m=4.5))


def test_missing_field_takes_its_default_or_is_malformed():
    row = SAMPLES[CompletionRecord].to_dict()
    del row["error"]
    assert CompletionRecord.from_dict(row).error is None
    del row["answer"]
    with pytest.raises(MalformedRecord) as exc:
        CompletionRecord.from_dict(row)
    assert str(exc.value) == "field 'answer' is missing"


def test_non_utf8_line_is_malformed_or_skipped(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "caf\xe9"}\n{"a": 3}\n')
    message = f"^{re.escape(str(path))}:2: 'utf-8' codec can't decode byte 0xe9"
    with pytest.raises(MalformedRecord, match=message):
        list(read_jsonl(path))
    assert list(read_jsonl(path, skip_undecodable=True)) == [{"a": 1}, {"a": 3}]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_json_constant_is_malformed_or_skipped(tmp_path, constant):
    path = tmp_path / "rows.jsonl"
    path.write_text(f'{{"a": 1}}\n{{"a": [2, {constant}]}}\n{{"a": 3}}\n')
    with pytest.raises(MalformedRecord, match=f"^{re.escape(str(path))}:2: "
                                              f"{re.escape(constant)} is not a JSON value$"):
        list(read_jsonl(path))
    assert list(read_jsonl(path, skip_undecodable=True)) == [{"a": 1}, {"a": 3}]
    doc = tmp_path / "doc.json"
    doc.write_text(f'{{"prompt_hash": "k", "raw_completion": "x", "latency": {constant}}}')
    with pytest.raises(MalformedRecord, match=f"^{re.escape(str(doc))}: "):
        read_json(doc, CacheEntry)


def test_lf_and_crlf_lines_read_alike(tmp_path):
    rows = [{"a": "é"}, {"b": [1, 2]}]
    for newline in ("\n", "\r\n"):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(newline.join(map(json.dumps, rows)).encode("utf-8") + newline.encode())
        assert list(read_jsonl(path)) == rows


def _decodes_and_key_error_catches(source: str) -> set[tuple[str | None, str]]:
    """(enclosing function, "json.loads" or "except KeyError") for each one in `source`."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "loads"
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            found.add((function, "json.loads"))
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.add((function, "from json import"))
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(name, ast.Name) and name.id == "KeyError" for name in caught):
                found.add((function, "except KeyError"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_the_record_rule_decodes_and_key_error_is_no_input_signal():
    """Outside manifest.py, only the endpoint body parse decodes JSON or catches KeyError."""
    package = Path(trc_toolkit.__file__).parent
    found = {(path.name, function, what)
             for path in sorted(package.glob("*.py"))
             for function, what in _decodes_and_key_error_catches(path.read_text("utf-8"))}
    body_parse = {("client.py", "_request_completion", "json.loads"),
                  ("client.py", "_request_completion", "except KeyError")}
    assert body_parse <= found   # the scan sees what it looks for
    stray = {item for item in found - body_parse
             if item[0] != "manifest.py" or item[2] != "json.loads"}
    assert not stray
