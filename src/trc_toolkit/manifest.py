"""JSON and JSONL I/O helpers, the one record rule, and per-run manifests.

Every row read from a file is checked against its `JsonRecord` annotations.
Every CLI invocation writes one manifest beside its primary output so a run
can be audited and reproduced: content digests of inputs and config, the seed,
and the toolkit version.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import types
from dataclasses import MISSING, fields
from datetime import datetime, timezone
from functools import cache
from json.encoder import c_make_encoder, encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Union, get_args, get_origin, get_type_hints

from .errors import MalformedRecord


def _row_encoder():
    """`JSONEncoder(ensure_ascii=False).encode` builds a C encoder on every call.
    This builds one, with the arguments that a one-shot `encode` passes, less the
    cycle check (a row is a tree). Without the `_json` accelerator it is that
    `encode`, whose text is the same."""
    if c_make_encoder is None:
        return json.JSONEncoder(ensure_ascii=False).encode
    options = json.JSONEncoder(ensure_ascii=False, check_circular=False)
    encode = c_make_encoder(None, options.default, encode_basestring, options.indent,
                            options.key_separator, options.item_separator,
                            options.sort_keys, options.skipkeys, options.allow_nan)
    return lambda value: "".join(encode(value, 0))


# Every JSONL row (outputs and the response cache) is written through this one.
encode_json = _row_encoder()


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _finite_int(text: str) -> int:
    if len(text) > 308 and math.isinf(float(text)):  # past the largest double
        raise ValueError(f"number of {len(text.lstrip('-'))} digits is out of range")
    return int(text)


# Built once, like `encode_json`. NaN, Infinity and -Infinity, which `json.loads`
# takes, are not JSON (RFC 8259). A number past the largest double, such as
# 1e400, would read as one of them or fail as it converts. Every read refuses
# all of these.
decode_json = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float,
                               parse_int=_finite_int).decode

_JSON_TYPES = {str: "string", int: "number", float: "number", bool: "boolean",
               type(None): "null", list: "array", dict: "object"}


def json_type(value) -> str:
    """The JSON name of a decoded value's type: string, number, null, ..."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


@cache  # resolved once per class; datasets convert record by record
def _fields(cls) -> tuple[tuple[str, tuple[type, ...], str, object], ...]:
    """Each field's (name, accepted value types, their JSON names, default), in
    field order. A float takes an int too. An annotation without a JSON type, or
    a field that `cls(*values)` cannot fill (init=False, kw_only), raises TypeError."""
    hints, out = get_type_hints(cls), []
    for f in fields(cls):
        if not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: not a positional __init__ field")
        hint = hints[f.name]
        members = get_args(hint) if get_origin(hint) in (Union, types.UnionType) else (hint,)
        accepted, names = [], []
        for member in members:
            base = get_origin(member) or member   # dict[str, ...] is an object
            if base not in _JSON_TYPES:
                raise TypeError(f"{cls.__name__}.{f.name}: {member!r} has no JSON type")
            accepted += [base, int] if base is float else [base]
            names.append("integer" if base is int else _JSON_TYPES[base])
        out.append((f.name, tuple(accepted), " or ".join(dict.fromkeys(names)), f.default))
    return tuple(out)


class JsonRecord:
    """Base for dataclasses stored as one JSON object, keys in field order."""

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name, _, _, _ in _fields(type(self))}

    @classmethod
    def from_dict(cls, record):
        """Ignores extra keys; a missing field takes its default. A missing field with
        none, a row that is not an object or a value of another JSON type: MalformedRecord."""
        if type(record) is not dict:
            raise MalformedRecord(f"row is {json_type(record)}, expected object")
        values = []
        for name, accepted, expected, default in _fields(cls):
            value = record.get(name, MISSING)
            if value is MISSING:
                if default is MISSING:
                    raise MalformedRecord(f"field {name!r} is missing")
                value = default
            elif type(value) not in accepted:
                raise MalformedRecord(f"field {name!r} is {json_type(value)}, expected {expected}")
            values.append(value)
        return cls(*values)


def read_jsonl(path: str | Path, cls: type[JsonRecord] | None = None, *,
               skip_undecodable: bool = False) -> Iterator:
    """Each line's JSON value, or with `cls` its record; an error names the line.
    With `skip_undecodable`, a line that is not UTF-8 JSON is passed over instead."""
    with Path(path).open("rb") as fh:
        for number, line in enumerate(fh, 1):
            try:   # not UTF-8, not JSON, NaN/Infinity or out of range: each is a ValueError
                line = line.decode("utf-8")
                if not line.strip():
                    continue
                row = decode_json(line)
            except ValueError as exc:
                if skip_undecodable:
                    continue
                raise MalformedRecord(f"{path}:{number}: {exc}") from exc
            if cls is not None:
                try:
                    row = cls.from_dict(row)
                except (ValueError, MalformedRecord) as exc:
                    raise MalformedRecord(f"{path}:{number}: {exc}") from exc
            yield row


def row_line(path: str | Path, index: int) -> int:
    """The line number of the row `read_jsonl(path)` yields at `index` (from 0),
    so that a check made on the rows read can name the line."""
    with Path(path).open("rb") as fh:
        rows = (number for number, line in enumerate(fh, 1) if line.decode("utf-8").strip())
        return next(itertools.islice(rows, index, None))


def read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents; a byte that does not decode is a
    MalformedRecord naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"{path}: {exc}") from exc


def read_lines(path: str | Path) -> list[str]:
    """A UTF-8 text file's lines, split at line ends only (LF, CRLF or CR): unlike
    `str.splitlines`, a form feed, U+0085 or U+2028 stays inside its line."""
    text = read_text(path)
    return text.removesuffix("\n").split("\n") if text else []


def read_json(path: str | Path, cls: type[JsonRecord]):
    """The record of a file holding one JSON document; an error names the file."""
    text = read_text(path)
    try:
        return cls.from_dict(decode_json(text))
    except (ValueError, MalformedRecord) as exc:
        raise MalformedRecord(f"{path}: {exc}") from exc


def write_jsonl(path: str | Path, records: Iterable[dict]):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(encode_json(record) + "\n")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_text(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8, creating the parent directories first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_json(path: str | Path, doc) -> None:
    write_text(path, json.dumps(doc, indent=2) + "\n")


def write_manifest(command: str, config: dict, inputs: list[str | Path],
                   outputs: list[str | Path], seed: int = 0) -> Path:
    from . import __version__

    primary = Path(outputs[0])
    path = primary.with_name(primary.name + ".manifest.json")
    write_json(path, {
        "command": command,
        "config_digest": sha256_text(json.dumps(config, sort_keys=True)),
        "input_digests": [sha256_file(p) for p in inputs],
        "output_paths": [str(p) for p in outputs],
        "seed": seed,
        "toolkit_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })
    return path
