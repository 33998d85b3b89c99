"""Append-only NDJSON audit ledger with bit-exact fixed-point encodings.

One JSON object per line, UTF-8, ``\\n`` terminators.  The first line is a
header tagged ``racecert/ledger/v2`` carrying the public run config; every
following line is an event record.  ``FIELDS`` declares each record
field's layout once: a number serializes as the decimal string of its *raw*
integer (unambiguous and locale independent), or as a 4-decimal scaled
string for the potentials, which mirror the downgrade-log convention.

The record writer reads ``FIELDS`` too: it spells each line itself, byte for
byte what ``json`` would write with sorted keys and no spaces, and refuses a
value the parser would refuse.  The header and the parser keep ``json``.

In memory a record is a plain dict of decoded values, and
``Ledger.records`` is the one per-node record of a run: the engine appends
to it, the parser rebuilds it, and the validator replays it.  The parser
rejects unknown fields, ill-typed values, numbers not spelled as the writer
spells them and event records that lack a field ``REQUIRED_FIELDS`` names.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple

from . import fixedpoint as fp

SCHEMA_TAG = "racecert/ledger/v2"

EVENT_KINDS = {"push", "pop", "leaf_eval", "guard", "budget", "stop"}

GUARD_NAMES = {
    "CountFail",
    "AcyclicityFail",
    "NumClamp",
    "Timeout",
    "BudgetFail",
    "MtauInadmissible",
}


# A number field's layout: a raw integer standing for raw * 2**-frac_bits,
# spelled as that decimal, or when ``scaled`` as its value to 4 decimals.  A
# raw field takes [lo, hi] and clamps to its ends; a scaled one clamps to whole
# values, as Q32_32_MAX is spelled 2147483648.0000, which overflows on read.
Layout = namedtuple("Layout", "name frac_bits lo hi scaled", defaults=(False,))
_U64 = Layout("u64", 0, 0, (1 << 64) - 1)
_Q32_32 = Layout("Q32.32", 32, fp.Q32_32_MIN, fp.Q32_32_MAX)

# Every record field and how it is logged: a number's ``Layout``, ``str`` or
# ``list`` (``guards``); writer, parser and engine read it.  ``U`` and ``W``
# are draws, encoded by the race's own Q0.64 rule, not by ``encode``.
FIELDS: dict[str, object] = {
    **dict.fromkeys((
        "event", "ctx_digest", "mode", "claim_type",
        "claim_type_before", "claim_type_after",
        "budget_event", "model_id", "adapter_id", "dp_cert_id", "delta_train",
        "eps_delta.eps", "eps_delta.delta", "reason"), str),
    "guards": list,
    **dict.fromkeys(("U", "W"), Layout("Q0.64", 64, 0, fp.Q0_64_MAX)),
    **dict.fromkeys(("Nub", "price_spent", "price_cap"), _U64),
    **dict.fromkeys(("sla_ms", "tie_token"), Layout("u32", 0, 0, (1 << 32) - 1)),
    **dict.fromkeys(("key_raw", "value", "incumbent"),
                    Layout("Q64.64", 64, fp.Q64_64_MIN, fp.Q64_64_MAX)),
    **dict.fromkeys(("router_rdp_eps", "dkey_pred", "dkey_real", "eps_train",
                     "alpha_selected"), _Q32_32),
    **dict.fromkeys(("phi_before", "phi_after", "delta_phi", "eta"),
                    _Q32_32._replace(hi=2147483647 << 32, scaled=True)),
}


def encode(field: str, value: float) -> int:
    """The raw integer ``field`` logs for ``value`` (a float, to 4 decimals first
    when scaled, or an integer field's int); ``NumClampError`` if it does not fit."""
    _, frac_bits, lo, hi, scaled = FIELDS[field]
    if scaled:
        if not math.isfinite(value):
            raise fp.NumClampError(f"non-finite value {value!r}")
        return fp.parse_scaled_q32_32(f"{value:.4f}")
    if frac_bits:
        return fp.encode(value, frac_bits, lo, hi)
    if not lo <= value <= hi:
        raise fp.NumClampError(f"{value!r} outside [{lo}, {hi}]")
    return value


def check_loggable(obj, **fields: str) -> None:
    """Refuse each setting of ``obj`` that the field logging it cannot hold
    (``price_max="price_cap"``): a ``ValueError`` where it enters, not a clamp."""
    for name, field in fields.items():
        try:
            encode(field, getattr(obj, name))
        except fp.NumClampError as exc:
            raise ValueError(f"{name} cannot be logged as {field}: {exc}") from None


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


def _decode(obj: dict, lineno: int) -> dict:
    """The record a JSON object encodes: each number field's raw int (a
    scaled one's Q32.32 raw), strings and lists as they are."""
    rec: dict = {}
    for key, val in obj.items():
        kind = FIELDS.get(key)
        if kind is str:
            if not isinstance(val, str):
                raise SchemaViolationError(lineno, f"{key} must be a string")
            rec[key] = val
        elif kind is None:
            raise SchemaViolationError(lineno, f"unknown field {key!r}")
        elif kind is list:
            if not isinstance(val, list) or not all(
                    type(g) is str and g in GUARD_NAMES for g in val):
                raise SchemaViolationError(lineno, f"bad guards {val!r}")
            rec[key] = list(val)
        else:  # a number, taken only in the text ``_record_line`` writes for it
            scaled = kind.scaled
            if not isinstance(val, str):  # Fraction would take 1, 1.5, true
                raise SchemaViolationError(lineno, f"bad {('integer', 'decimal')[scaled]}"
                                                   f" in {key}: not a decimal string")
            try:
                num = (fp.parse_scaled_q32_32(val) if scaled
                       else fp.parse_raw(val, kind.lo, kind.hi))
                if (fp.format_scaled_q32_32(num) if scaled else str(num)) != val:
                    raise ValueError(f"not canonical decimal: {val!r}")
            except fp.NumClampError as exc:
                raise OverflowOnParseError(lineno, str(exc)) from exc
            except (ValueError, ZeroDivisionError) as exc:
                raise MalformedLineError(
                    lineno, f"bad {('integer', 'decimal')[scaled]} in {key}: {exc}")
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
        # A line the writer wrote is one value and nothing else: scan it in
        # one step, and leave whitespace, extra data and every error to
        # ``decode``, so what it accepts and each message stay its own.
        try:
            obj, end = _DECODER.scan_once(line, 0)
            if end == len(line):
                return obj
        except (StopIteration, json.JSONDecodeError, RecursionError):
            pass
        return _DECODER.decode(line)
    except UnicodeDecodeError as exc:
        raise MalformedLineError(lineno, f"not UTF-8: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise MalformedLineError(lineno, f"bad JSON: {exc}")


def _dump(obj: dict) -> str:
    return _ENCODER.encode(obj)


# ``json``'s own string quoting under ensure_ascii=False; a non-str raises.
_quote = json.encoder.encode_basestring


def _quote_guards(names: list) -> str:
    if not GUARD_NAMES.issuperset(names):
        raise ValueError(f"bad guards {names!r}")
    return "[" + ",".join(map(_quote, names)) + "]"


def _field_writer(kind):
    """The writer of a ``kind`` value: the text ``_decode`` reads back as it,
    or an error for a value ``_decode`` would refuse."""
    if kind is str:
        return _quote
    if kind is list:
        return _quote_guards
    spell = fp.format_scaled_q32_32 if kind.scaled else str
    lo, hi = kind.lo, kind.hi

    def write(raw: int) -> str:
        if type(raw) is not int or not lo <= raw <= hi:
            raise ValueError(f"cannot log {raw!r} as {kind.name}")
        return '"' + spell(raw) + '"'
    return write


# Each field's ``"name":`` prefix and value writer, read off ``FIELDS``.
_WRITERS = {name: (_quote(name) + ":", _field_writer(kind))
            for name, kind in FIELDS.items()}


def _record_line(rec: dict) -> str:
    """A record's line, byte for byte what ``json`` writes for it with sorted
    keys and no spaces; each number field as its layout's decimal text."""
    parts = []
    for key in sorted(rec):  # the order of json's sort_keys
        prefix, write = _WRITERS[key]
        parts.append(prefix + write(rec[key]))
    return "{" + ",".join(parts) + "}"


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
        lines.extend(map(_record_line, self.records))
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
