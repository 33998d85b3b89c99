"""Ledger round trips, parser strictness, and the downgrade-log excerpt."""

import math
import random

import pytest

from racecert import fixedpoint as fp
from racecert import ledger as lg

EXCERPT = (
    '{"node_id":"3f1a...e2","parent_id":"de2b...90","mode":"Exact",'
    '"claim_type_before":"RunWiseExact","guards":[],'
    '"phi_before":"12.0000","phi_after":"11.2000","delta_phi":"-0.8000",'
    '"eta":"1.0000"}\n'
    '{"node_id":"7a98...bd","parent_id":"3f1a...e2","mode":"Exact",'
    '"claim_type_before":"RunWiseExact","guards":["AcyclicityFail"],'
    '"phi_before":"11.2000","phi_after":"10.5000","delta_phi":"-0.7000",'
    '"eta":"1.0000","claim_type_after":"NoCert","budget_event":"None"}\n'
)


def _header():
    return {"run_uuid": "00000000-0000-7000-8000-000000000000", "mode": "Exact"}


def test_round_trip_bytes():
    led = lg.Ledger(_header())
    led.records.append(
        {
            "event": "push",
            "ctx_digest": "ab" * 32,
            "key_raw": 7 << 64,
            "U": (1 << 63) - 1,
            "guards": [],
        }
    )
    led.records.append({"event": "stop", "incumbent": 3 << 64, "reason": "certified"})
    text = led.serialize()
    assert '"key_raw":"%d"' % (7 << 64) in text
    again = lg.Ledger.parse_text(text)
    assert again.serialize() == text
    assert again.records[0]["key_raw"] == 7 << 64
    assert again.records[1]["reason"] == "certified"


def test_excerpt_records_parse():
    header = dict(_header(), schema=lg.SCHEMA_TAG)
    import json

    text = json.dumps(header) + "\n" + EXCERPT
    led = lg.Ledger.parse_text(text)
    first, second = led.records
    assert first["guards"] == []
    assert first["claim_type_before"] == "RunWiseExact"
    assert math.isclose(fp.decode_q32_32(first["phi_before"]), 12.0)
    assert math.isclose(fp.decode_q32_32(first["phi_after"]), 11.2)
    assert math.isclose(fp.decode_q32_32(first["delta_phi"]), -0.8)
    assert math.isclose(fp.decode_q32_32(first["eta"]), 1.0)
    assert second["guards"] == ["AcyclicityFail"]
    assert second["claim_type_after"] == "NoCert"
    assert second["budget_event"] == "None"
    assert math.isclose(fp.decode_q32_32(second["delta_phi"]), -0.7)
    # Scaled strings survive a serialize cycle verbatim.
    assert '"phi_before":"12.0000"' in led.serialize()


def test_malformed_line_reports_lineno():
    for bad in ("not json at all", "[" * 100_000 + "]" * 100_000):
        text = (
            '{"schema":"racecert/ledger/v1"}\n'
            '{"event":"push","ctx_digest":"ab","key_raw":"0","guards":[]}\n'
            f"{bad}\n"
        )
        with pytest.raises(lg.MalformedLineError) as exc:
            lg.Ledger.parse_text(text)
        assert exc.value.lineno == 3


def test_unknown_field_rejected():
    for field in ("bogus", "_display", "key_tight", "kappa"):
        text = '{"schema":"racecert/ledger/v1"}\n{"event":"push","%s":"x"}\n' % field
        with pytest.raises(lg.SchemaViolationError, match="unknown field"):
            lg.Ledger.parse_text(text)


def test_unknown_event_kind_rejected():
    text = '{"schema":"racecert/ledger/v1"}\n{"event":"teleport"}\n'
    with pytest.raises(lg.SchemaViolationError):
        lg.Ledger.parse_text(text)


def test_event_record_without_required_field_rejected():
    full = {"ctx_digest": '"ab"', "key_raw": '"0"', "value": '"0"',
            "incumbent": '"0"'}
    for event, required in lg.REQUIRED_FIELDS.items():
        for dropped in required:
            body = ",".join(f'"{k}":{full[k]}' for k in required if k != dropped)
            text = ('{"schema":"racecert/ledger/v1"}\n'
                    f'{{"event":"{event}",{body}}}\n')
            with pytest.raises(lg.SchemaViolationError, match="lacks") as exc:
                lg.Ledger.parse_text(text)
            assert exc.value.lineno == 2
        body = ",".join(f'"{k}":{full[k]}' for k in required)
        lg.Ledger.parse_text('{"schema":"racecert/ledger/v1"}\n'
                             f'{{"event":"{event}",{body}}}\n')
    # A stop record's key_raw is optional.
    lg.Ledger.parse_text('{"schema":"racecert/ledger/v1"}\n{"event":"stop"}\n')


def test_raw_field_overflow_on_parse():
    too_big = str(fp.Q64_64_MAX + 1)
    text = '{"schema":"racecert/ledger/v1"}\n{"event":"push","key_raw":"%s"}\n' % too_big
    with pytest.raises(lg.OverflowOnParseError):
        lg.Ledger.parse_text(text)


def test_raw_field_must_be_string():
    text = '{"schema":"racecert/ledger/v1"}\n{"event":"push","key_raw":42}\n'
    with pytest.raises(lg.SchemaViolationError, match="decimal string"):
        lg.Ledger.parse_text(text)


@pytest.mark.parametrize("value", ["null", "[]", "{}", "true", "1", "1.5"])
def test_scaled_field_of_wrong_type_is_malformed(value):
    text = '{"schema":"racecert/ledger/v1"}\n{"eta":%s}\n' % value
    with pytest.raises(lg.MalformedLineError, match="bad decimal in eta"):
        lg.Ledger.parse_text(text)


def test_missing_schema_tag():
    with pytest.raises(lg.SchemaViolationError):
        lg.Ledger.parse_text('{"mode":"Exact"}\n')


def test_empty_file():
    with pytest.raises(lg.MalformedLineError) as exc:
        lg.Ledger.parse_text("")
    assert exc.value.lineno == 1


def test_bad_guard_name_rejected():
    text = '{"schema":"racecert/ledger/v1"}\n{"event":"guard","guards":["Gremlin"]}\n'
    with pytest.raises(lg.SchemaViolationError):
        lg.Ledger.parse_text(text)


def test_uuid7_layout():
    uid = lg.make_uuid7(1, 0, 0)
    assert uid[14] == "7"
    assert uid[19] in "89ab"
    # The source is a pure function of the stream.
    from racecert.race import RngStream

    src1 = lg.Uuid7Source(RngStream(5))
    src2 = lg.Uuid7Source(RngStream(5))
    assert [src1.next(b"\x00" * 32) for _ in range(3)] == [
        src2.next(b"\x00" * 32) for _ in range(3)
    ]


def _uuid7_by_slicing(unix_ms: int, rand_a: int, rand_b: int) -> str:
    """``make_uuid7`` as first written: one 32-hex string, sliced five ways."""
    unix_ms &= (1 << 48) - 1
    rand_a &= (1 << 12) - 1
    rand_b &= (1 << 62) - 1
    value = (unix_ms << 80) | (0x7 << 76) | (rand_a << 64) | (0b10 << 62) | rand_b
    hx = f"{value:032x}"
    return f"{hx[0:8]}-{hx[8:12]}-{hx[12:16]}-{hx[16:20]}-{hx[20:32]}"


def test_uuid7_matches_the_sliced_formatter():
    rng = random.Random(7)
    cases = [(0, 0, 0), ((1 << 48) - 1, (1 << 12) - 1, (1 << 62) - 1),
             (1 << 48, 1 << 12, 1 << 62), ((1 << 70) - 1, (1 << 20) - 1,
                                           (1 << 64) - 1)]
    cases += [(rng.getrandbits(rng.choice((8, 48, 60))),
               rng.getrandbits(rng.choice((12, 16))),
               rng.getrandbits(rng.choice((52, 62, 70))))
              for _ in range(20_000)]
    for args in cases:
        assert lg.make_uuid7(*args) == _uuid7_by_slicing(*args)


def test_save_and_parse(tmp_path):
    led = lg.Ledger(_header())
    led.records.append({"event": "stop", "reason": "certified"})
    path = str(tmp_path / "run.ndjson")
    led.save(path)
    assert lg.Ledger.parse(path).serialize() == led.serialize()
