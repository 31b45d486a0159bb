"""Artifact I/O: deterministic JSON/CSV writing and schema checking.

JSON artifacts are written with sorted keys and no timestamps so that
identical configurations produce byte-identical files.  A small
validator covering the JSON-schema subset used by the shipped schemas
keeps the published contracts checkable without extra dependencies;
``write_json`` checks every payload against its schema as it writes.
Every write goes through ``write_text``, which makes the directory and
turns a path that cannot be written into a ``UsageError`` (exit codes:
``errors.py``).  It takes a string or an iterable of string chunks; the
writers of the quadratic-size artifacts (``group_to_text``,
``character_table_csv``, ``grid_csv``) are generators of one chunk per
table or grid row, so an artifact is written as it is formatted and never
held whole.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from importlib import resources
from pathlib import Path

from .errors import GroupavgError, UsageError

def write_text(path: Path, text: str | Iterable[str]) -> None:
    """The one write path: make the directory at the first write; a path
    that cannot be written is a usage error.

    ``text`` is a string or an iterable of string chunks, written in turn
    as they come through one open file (default encoding, newlines as
    ``Path.write_text`` writes them), so a generator's artifact is never
    held whole.  An error the chunks raise themselves keeps its own message."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
    except GroupavgError:
        raise
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise UsageError(f"cannot write {str(path)!r}: {exc}") from None


def write_json(path: Path, payload: dict) -> None:
    """Check ``payload`` against the schema its file names, then write it:
    ``<name>.json`` takes ``<name>``, ``*_meta.json`` ``metadata``."""
    name = "metadata" if path.name.endswith("_meta.json") else path.stem
    validate_schema(payload, load_schema(name))
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_schema(name: str) -> dict:
    ref = resources.files("groupavg.schemas").joinpath(f"{name}.schema.json")
    return json.loads(ref.read_text())


def validate_schema(payload, schema, path: str = "$") -> None:
    """Check a payload against the schema subset used by this package.

    Supports: type (including lists), properties/required, items,
    enum, additionalProperties as a schema, minimum.  Raises UsageError
    on the first violation.
    """
    stype = schema.get("type")
    if stype is not None:
        types = stype if isinstance(stype, list) else [stype]
        if not any(_type_ok(payload, t) for t in types):
            raise UsageError(f"{path}: expected type {stype}, got {type(payload).__name__}")
    if "enum" in schema and payload not in schema["enum"]:
        raise UsageError(f"{path}: value {payload!r} not in enum {schema['enum']}")
    if "minimum" in schema and isinstance(payload, (int, float)):
        if payload < schema["minimum"]:
            raise UsageError(f"{path}: {payload} below minimum {schema['minimum']}")
    if isinstance(payload, dict):
        for key in schema.get("required", []):
            if key not in payload:
                raise UsageError(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, value in payload.items():
            if key in props:
                validate_schema(value, props[key], f"{path}.{key}")
            elif isinstance(extra, dict):
                validate_schema(value, extra, f"{path}.{key}")
    if isinstance(payload, list) and "items" in schema:
        for i, item in enumerate(payload):
            validate_schema(item, schema["items"], f"{path}[{i}]")


def _type_ok(value, type_name: str) -> bool:
    if type_name == "object":
        return isinstance(value, dict)
    if type_name == "array":
        return isinstance(value, list)
    if type_name == "string":
        return isinstance(value, str)
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if type_name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if type_name == "boolean":
        return isinstance(value, bool)
    if type_name == "null":
        return value is None
    raise UsageError(f"unknown schema type {type_name!r}")
