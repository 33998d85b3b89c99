"""Append-only NDJSON audit ledger with bit-exact fixed-point encodings.

One JSON object per line, UTF-8, ``\\n`` terminators.  The first line is a
header tagged ``racecert/ledger/v1`` carrying the public run config; every
following line is an event record.  Numeric fixed-point fields serialize as
decimal strings of the *raw* integer (unambiguous and locale independent).
Potential fields mirror the downgrade-log convention and serialize as
4-decimal scaled strings.

In memory a record is a plain dict of decoded values, and
``Ledger.records`` is the one per-node record of a run: the engine appends
to it, the parser rebuilds it, and the validator replays it.  The parser
rejects unknown fields, ill-typed values, numbers not spelled as the writer
spells them and event records that lack a field ``REQUIRED_FIELDS`` names.
"""

from __future__ import annotations

import json
import os

from . import fixedpoint as fp

SCHEMA_TAG = "racecert/ledger/v1"

EVENT_KINDS = {"push", "pop", "leaf_eval", "guard", "budget", "stop"}

GUARD_NAMES = {
    "CountFail",
    "AcyclicityFail",
    "NumClamp",
    "Timeout",
    "BudgetFail",
    "MtauInadmissible",
}

# field -> (lo, hi) for raw-integer decimal-string fields.
RAW_INT_FIELDS: dict[str, tuple[int, int]] = {
    "U": (0, fp.Q0_64_MAX),
    "W": (0, fp.Q0_64_MAX),
    "Nub": (0, (1 << 64) - 1),
    "key_raw": (fp.Q64_64_MIN, fp.Q64_64_MAX),
    "value": (fp.Q64_64_MIN, fp.Q64_64_MAX),
    "incumbent": (fp.Q64_64_MIN, fp.Q64_64_MAX),
    "router_rdp_eps": (fp.Q32_32_MIN, fp.Q32_32_MAX),
    "dkey_pred": (fp.Q32_32_MIN, fp.Q32_32_MAX),
    "dkey_real": (fp.Q32_32_MIN, fp.Q32_32_MAX),
    "eps_train": (fp.Q32_32_MIN, fp.Q32_32_MAX),
    "alpha_selected": (0, (1 << 32) - 1),
    "price_spent": (0, (1 << 64) - 1),
    "price_cap": (0, (1 << 64) - 1),
    "sla_ms": (0, (1 << 32) - 1),
    "tie_token": (0, (1 << 32) - 1),
}

# Scaled 4-decimal strings (Q32.32 resolution underneath).
SCALED_FIELDS = {"phi_before", "phi_after", "delta_phi", "eta"}

STRING_FIELDS = {
    "event",
    "ctx_digest",
    "node_id",
    "parent_id",
    "mode",
    "claim_type",
    "claim_type_before",
    "claim_type_after",
    "privacy_scope",
    "budget_event",
    "model_id",
    "adapter_id",
    "dp_cert_id",
    "delta_train",
    "eps_delta.eps",
    "eps_delta.delta",
    "reason",
}

# field -> how ``_decode`` reads it: a raw-integer field's (lo, hi), or
# ``str``, ``list`` (``guards``) or ``float`` (a scaled decimal).
_FIELD_KIND: dict[str, object] = {
    **dict.fromkeys(STRING_FIELDS, str), **dict.fromkeys(SCALED_FIELDS, float),
    "guards": list, **RAW_INT_FIELDS}
_NUMBER = {False: "integer", True: "decimal"}  # a raw or a scaled field, in errors

# Fields an event record must carry: the stop-rule audit indexes them.  A
# stop record's key_raw is optional (an empty frontier has none), and a
# record without an event (the downgrade-log excerpt) requires nothing.
REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "push": ("ctx_digest", "key_raw"),
    "pop": ("ctx_digest", "key_raw"),
    "leaf_eval": ("ctx_digest", "value", "incumbent"),
}


class MalformedLineError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class SchemaViolationError(MalformedLineError):
    pass


class OverflowOnParseError(MalformedLineError):
    pass


def _encode(rec: dict) -> dict:
    """A record's JSON object: raw fields as decimal strings, scaled fields
    as 4-decimal strings."""
    out: dict = {}
    for key, val in rec.items():
        if key in RAW_INT_FIELDS:
            out[key] = str(val)
        elif key in SCALED_FIELDS:
            out[key] = fp.format_scaled_q32_32(val)
        else:
            out[key] = val
    return out


def _decode(obj: dict, lineno: int) -> dict:
    """The record a JSON object encodes: ints for raw fields, Q32.32 raw
    ints for scaled fields, strings and lists otherwise."""
    rec: dict = {}
    for key, val in obj.items():
        kind = _FIELD_KIND.get(key)
        if kind is str:
            if not isinstance(val, str):
                raise SchemaViolationError(lineno, f"{key} must be a string")
            rec[key] = val
        elif kind is None:
            raise SchemaViolationError(lineno, f"unknown field {key!r}")
        elif kind is list:
            if not isinstance(val, list) or not set(val) <= GUARD_NAMES:
                raise SchemaViolationError(lineno, f"bad guards {val!r}")
            rec[key] = list(val)
        else:  # a number, taken only in the text ``_encode`` writes for it
            if not isinstance(val, str):  # Fraction would take 1, 1.5, true
                raise SchemaViolationError(
                    lineno, f"bad {_NUMBER[kind is float]} in {key}: not a decimal string")
            try:  # a scaled decimal (float), else a raw integer in (lo, hi)
                num = (fp.parse_scaled_q32_32(val) if kind is float
                       else fp.parse_raw(val, *kind))
                if (fp.format_scaled_q32_32(num) if kind is float else str(num)) != val:
                    raise ValueError(f"not canonical decimal: {val!r}")
            except fp.NumClampError as exc:
                raise OverflowOnParseError(lineno, str(exc)) from exc
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedLineError(
                    lineno, f"bad {_NUMBER[kind is float]} in {key}: {exc}")
            rec[key] = num
    event = rec.get("event")
    if event is not None and event not in EVENT_KINDS:
        raise SchemaViolationError(lineno, f"unknown event kind {event!r}")
    missing = [key for key in REQUIRED_FIELDS.get(event, ()) if key not in rec]
    if missing:
        raise SchemaViolationError(lineno, f"{event} record lacks {missing}")
    return rec


_DECODER = json.JSONDecoder()
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False)


def _load(line: str | bytes, lineno: int):
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        return _DECODER.decode(line)
    except UnicodeDecodeError as exc:
        raise MalformedLineError(lineno, f"not UTF-8: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise MalformedLineError(lineno, f"bad JSON: {exc}")


def _dump(obj: dict) -> str:
    return _ENCODER.encode(obj)


class Ledger:
    """Single-writer, append-only event log for one run: a header and a
    list of records, each a plain dict of decoded values."""

    def __init__(self, header: dict):
        header = dict(header)
        header["schema"] = SCHEMA_TAG
        self.header = header
        self.records: list[dict] = []

    def serialize(self) -> str:
        lines = [_dump(self.header)]
        lines.extend(_dump(_encode(r)) for r in self.records)
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.serialize())

    @classmethod
    def parse_text(cls, text: str | bytes) -> "Ledger":
        """Parse a serialized ledger; bytes are decoded line by line, so a
        line that is not UTF-8 is a ``MalformedLineError`` too."""
        lines = text.split(b"\n" if isinstance(text, bytes) else "\n")
        if lines and not lines[-1]:
            lines.pop()
        if not lines:
            raise MalformedLineError(1, "empty ledger")
        header = _load(lines[0], 1)
        if not isinstance(header, dict) or header.get("schema") != SCHEMA_TAG:
            raise SchemaViolationError(1, "missing or wrong schema tag")
        ledger = cls(header)
        for i, line in enumerate(lines[1:], start=2):
            obj = _load(line, i)
            if not isinstance(obj, dict):
                raise MalformedLineError(i, "record is not an object")
            ledger.records.append(_decode(obj, i))
        return ledger

    @classmethod
    def parse(cls, path: str) -> "Ledger":
        with open(path, "rb") as fh:
            return cls.parse_text(fh.read())


def make_uuid7(unix_ms: int, rand_a: int, rand_b: int) -> str:
    """Assemble a UUIDv7 from an explicit timestamp and random bits.

    ``Uuid7Source`` feeds it a counter clock and seeded stream bits, so a
    node id is a pure function of the run and its replay mints the same.
    """
    unix_ms &= (1 << 48) - 1
    rand_a &= (1 << 12) - 1
    rand_b &= (1 << 62) - 1
    # The five groups of unix_ms | 0x7 | rand_a | 0b10 | rand_b (128 bits).
    return "%08x-%04x-%04x-%04x-%012x" % (
        unix_ms >> 16, unix_ms & 0xFFFF, 0x7000 | rand_a,
        0x8000 | rand_b >> 48, rand_b & 0xFFFFFFFFFFFF)


class Uuid7Source:
    """Seeded UUIDv7 generator: a counter clock and the run's stream."""

    def __init__(self, stream):
        self.stream = stream
        self.counter = 0

    def next(self, digest: bytes = b"") -> str:
        self.counter += 1
        bits = self.stream.raw(digest, "uuid", counter=self.counter)
        return make_uuid7(self.counter, bits >> 52, bits & ((1 << 52) - 1))
