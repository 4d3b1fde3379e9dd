"""JSON and JSONL I/O helpers and per-run manifests.

Every CLI invocation writes one manifest beside its primary output so a run
can be audited and reproduced: content digests of inputs and config, the seed,
and the toolkit version.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Iterable, Iterator


@cache  # `fields()` builds a new tuple per call; datasets convert record by record
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


class JsonRecord:
    """Base for dataclasses stored as one JSON object, keys in field order."""

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _field_names(type(self))}

    @classmethod
    def from_dict(cls, record: dict):
        """Ignores extra keys; a missing field raises KeyError."""
        return cls(**{name: record[name] for name in _field_names(cls)})


def read_jsonl(path: str | Path) -> Iterator[dict]:
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def write_jsonl(path: str | Path, records: Iterable[dict]):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_json(path: str | Path, doc) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def write_manifest(command: str, config: dict, inputs: list[str | Path],
                   outputs: list[str | Path], seed: int = 0) -> Path:
    from . import __version__

    primary = Path(outputs[0]) if outputs else Path(f"{command}.out")
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
