"""The one record rule: every `JsonRecord` class resolves and round-trips,
and `from_dict` checks each value's JSON type against the annotation."""

import ast
import json
import re
import types
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trc_toolkit
from trc_toolkit.client import CacheEntry, CompletionRecord
from trc_toolkit.errors import MalformedRecord
from trc_toolkit.manifest import (_JSON_TYPES, JsonRecord, _fields, encode_json, json_type,
                                  read_json, read_jsonl, read_lines, row_line)
from trc_toolkit.metrics import EvalReport, Response
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
    Response: Response("i0", "chronological", "a", "HTTP 503"),
}


@pytest.mark.parametrize("cls", JsonRecord.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_record_class_round_trips(cls):
    assert _fields(cls)
    # each row is built once and never hashed, so no class pays for `frozen=True`
    assert not cls.__dataclass_params__.frozen, f"{cls.__name__} is frozen"
    assert cls in SAMPLES, f"no sample for {cls.__name__}"
    text = encode_json(SAMPLES[cls].to_dict())
    assert encode_json(cls.from_dict(json.loads(text)).to_dict()) == text


def test_row_line_counts_the_blank_lines_read_jsonl_skips(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"a": 2}\r\n\u3000\n{"a": 3}\n', encoding="utf-8")
    assert [row["a"] for row in read_jsonl(path)] == [1, 2, 3]
    assert [row_line(path, index) for index in range(3)] == [1, 4, 6]


def test_annotation_without_a_json_type_is_refused():
    @dataclass
    class Tagged:
        tags: set[str]

    with pytest.raises(TypeError, match="Tagged.tags"):
        _fields(Tagged)


@pytest.mark.parametrize("init", [dict(init=False, default=""), dict(kw_only=True)],
                         ids=["init-false", "kw-only"])
def test_a_field_that_init_cannot_take_in_order_is_refused(init):
    @dataclass
    class Derived(JsonRecord):
        text: str
        note: str = field(**init)

    with pytest.raises(TypeError, match="Derived.note"):
        _fields(Derived)


def _reference_table(cls) -> dict:
    """The converter's reference: name -> (accepted types, JSON names, default),
    resolved as the record rule resolves annotations."""
    hints, out = get_type_hints(cls), {}
    for f in fields(cls):
        hint = hints[f.name]
        members = get_args(hint) if get_origin(hint) in (Union, types.UnionType) else (hint,)
        accepted, names = [], []
        for member in members:
            base = get_origin(member) or member
            accepted += [base, int] if base is float else [base]
            names.append("integer" if base is int else _JSON_TYPES[base])
        out[f.name] = tuple(accepted), " or ".join(dict.fromkeys(names)), f.default
    return out


def _reference_from_dict(cls, record):
    """The generic loop `from_dict` replaced: a keyword per field."""
    if type(record) is not dict:
        raise MalformedRecord(f"row is {json_type(record)}, expected object")
    values = {}
    for name, (accepted, expected, default) in _reference_table(cls).items():
        if name not in record:
            if default is MISSING:
                raise MalformedRecord(f"field {name!r} is missing")
            values[name] = default
        elif type(value := record[name]) not in accepted:
            raise MalformedRecord(f"field {name!r} is {json_type(value)}, expected {expected}")
        else:
            values[name] = value
    return cls(**values)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
# A value of each accepted Python type. A string is a reference kind half the
# time, and a dict holds breakdown-like rows half the time, so that rows of
# `PromptRow`, `Response` and `EvalReport` convert too.
TYPED = {str: st.sampled_from(["absolute", "chronological"]) | st.text(max_size=8),
         int: st.integers(), bool: st.booleans(), type(None): st.none(),
         float: st.floats(allow_nan=False, allow_infinity=False),
         list: st.lists(JSON_VALUES, max_size=3),
         dict: st.dictionaries(st.text(max_size=4),
                               st.tuples(st.floats(0, 100), st.floats(0, 100),
                                         st.integers(0, 9)).map(list) | JSON_VALUES,
                               max_size=2)}


@st.composite
def _rows(draw, cls):
    """A well-typed row of `cls`, with up to two fields dropped or given any JSON
    value, and extra keys; or, one time in ten, any JSON value at all."""
    if not draw(st.integers(0, 9)):
        return draw(JSON_VALUES)
    table = _reference_table(cls)
    row = {name: draw(st.one_of(*[TYPED[t] for t in dict.fromkeys(accepted)]))
           for name, (accepted, _, _) in table.items()}
    for name in draw(st.lists(st.sampled_from(list(table)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del row[name]
        else:
            row[name] = draw(JSON_VALUES)
    return {**draw(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2)), **row}


def _outcome(convert, cls, row):
    try:
        return "record", convert(cls, row)
    except (MalformedRecord, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("cls", JsonRecord.__subclasses__(), ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_from_dict_matches_the_keyword_loop(cls, data):
    """Equal record or identical error text, whatever the row."""
    row = data.draw(_rows(cls))
    assert _outcome(lambda cls, row: cls.from_dict(row), cls, row) == \
        _outcome(_reference_from_dict, cls, row)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
    | st.floats() | st.sampled_from([1e308, -1.7976931348623157e308, 5e-324])
    | st.text(st.characters(exclude_categories=())),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(exclude_categories=())), inner, max_size=4),
    max_leaves=12))
def test_encode_json_writes_what_a_one_shot_encoder_writes(value):
    assert encode_json(value) == json.JSONEncoder(ensure_ascii=False).encode(value)


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


@pytest.mark.parametrize("constant, refused", [
    pytest.param(constant, f"{constant} is not a JSON value", id=constant)
    for constant in ("NaN", "Infinity", "-Infinity")
] + [  # a number that reads as ±inf would be written back as Infinity
    pytest.param(number, f"number {number} is out of range", id=number)
    for number in ("1e400", "-1e999", "1.5e309")
] + [
    pytest.param("-" + "9" * 309, "number of 309 digits is out of range", id="309-digit-integer"),
])
def test_non_json_constant_is_malformed_or_skipped(tmp_path, constant, refused):
    path = tmp_path / "rows.jsonl"
    path.write_text(f'{{"a": 1}}\n{{"a": [2, {constant}]}}\n{{"a": 3}}\n')
    with pytest.raises(MalformedRecord, match=f"^{re.escape(str(path))}:2: "
                                              f"{re.escape(refused)}$"):
        list(read_jsonl(path))
    assert list(read_jsonl(path, skip_undecodable=True)) == [{"a": 1}, {"a": 3}]
    doc = tmp_path / "doc.json"
    doc.write_text(f'{{"prompt_hash": "k", "raw_completion": "x", "latency": {constant}}}')
    with pytest.raises(MalformedRecord, match=f"^{re.escape(str(doc))}: {re.escape(refused)}$"):
        read_json(doc, CacheEntry)


def test_lf_and_crlf_lines_read_alike(tmp_path):
    rows = [{"a": "é"}, {"b": [1, 2]}]
    for newline in ("\n", "\r\n"):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(newline.join(map(json.dumps, rows)).encode("utf-8") + newline.encode())
        assert list(read_jsonl(path)) == rows


@pytest.mark.parametrize("text, lines", [
    ("", []), ("\n", [""]), ("a", ["a"]), ("a\n", ["a"]), ("a\n\n", ["a", ""]),
    ("a\r\nb\rc", ["a", "b", "c"]), ("a\x0cb\u2028c\x85d\n", ["a\x0cb\u2028c\x85d"]),
], ids=["empty", "newline", "unterminated", "terminated", "blank-last", "crlf-and-cr",
        "separators"])
def test_lines_end_at_line_ends_only(tmp_path, text, lines):
    path = tmp_path / "text.txt"
    path.write_bytes(text.encode("utf-8"))
    assert read_lines(path) == lines


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
    body_parse = {("transport.py", "request_completion", "json.loads"),
                  ("transport.py", "request_completion", "except KeyError")}
    assert body_parse <= found   # the scan sees what it looks for
    stray = {item for item in found - body_parse
             if item[0] != "manifest.py" or item[2] != "json.loads"}
    assert not stray


def _encoder_builds(source: str) -> set[tuple[str | None, str]]:
    """(enclosing function, called name) for each call in `source` that builds
    a JSON encoder: `json.dumps`, `JSONEncoder(...)` or `c_make_encoder(...)`."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            called = node.func.attr if isinstance(node.func, ast.Attribute) else \
                getattr(node.func, "id", None)
            if called in ("dumps", "JSONEncoder", "c_make_encoder"):
                found.add((function, called))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_per_row_path_builds_a_json_encoder():
    """Rows go through `encode_json` and request bodies through the frame cache;
    only whole documents (and the two builders) may call `json.dumps`."""
    package = Path(trc_toolkit.__file__).parent
    found = {(path.name, function, called)
             for path in sorted(package.glob("*.py"))
             for function, called in _encoder_builds(path.read_text("utf-8"))}
    assert found == {
        ("client.py", "_body_frame", "dumps"),        # once per settings
        ("manifest.py", "_row_encoder", "JSONEncoder"),   # once, at import
        ("manifest.py", "_row_encoder", "c_make_encoder"),
        ("manifest.py", "write_json", "dumps"),       # one document per file
        ("manifest.py", "write_manifest", "dumps"),
        ("cli.py", "mt_agree", "dumps"),              # the one line it echoes
    }


# Modules of the HTTP and TLS stack; `urllib.parse` is not one of them.
NETWORK_MODULES = ["http.client", "ssl", "email", "socket", "select", "base64",
                   "urllib.request"]


def _network_imports(source: str) -> set[str]:
    """Each module of NETWORK_MODULES, or a submodule, that `source` imports anywhere."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name for name in names for module in NETWORK_MODULES
                  if name == module or name.startswith(module + ".")}
    return found


def test_only_transport_imports_the_network_stack():
    """A command that sends nothing must not load sockets or TLS (see transport.py)."""
    package = Path(trc_toolkit.__file__).parent
    found = {path.name: _network_imports(path.read_text("utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {"http.client", "ssl", "select", "base64", "urllib.request"} <= found["transport.py"]
    assert {name: modules for name, modules in found.items()
            if modules and name != "transport.py"} == {}
