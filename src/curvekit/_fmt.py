"""Deterministic numeric formatting shared by CSV, JSON and SVG emitters."""

from __future__ import annotations

import json
import math
from dataclasses import fields


# one number at 17 significant digits, also the field of one-template rows
FIELD = "%.17g"


def fmt(x: float) -> str:
    """Format a float at 17 significant digits (round-trip exact for doubles)."""
    return FIELD % x


class Record:
    """Mixin for frozen dataclass records: list fields, and lists one level
    down, are stored as tuples (hashable, no list shared with the caller).
    as_dict() maps each field, in declaration order, to its JSON shape (tuples
    and lists become new lists, nested records their own as_dict())."""

    def __post_init__(self):
        for f in fields(self):
            seq = getattr(self, f.name)
            if isinstance(seq, (tuple, list)):
                if set(map(type, seq)) <= {tuple, list}:  # pairs, at C speed
                    seq = tuple(map(tuple, seq))
                else:
                    seq = tuple(tuple(v) if isinstance(v, (tuple, list)) else v for v in seq)
                object.__setattr__(self, f.name, seq)

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(value):
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if hasattr(value, "as_dict"):
        return value.as_dict()
    return value


def to_json(obj, indent: int = 0) -> str:
    """Serialize nested dicts/lists of scalars to JSON text.

    stdlib json cannot format floats at a fixed significand width, which the
    output contract requires, so this walks the structure itself. Non-finite
    floats serialize as null. Dict keys keep insertion order.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {to_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(to_json(v, indent + 1) for v in obj)
        return "[" + inner + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")
