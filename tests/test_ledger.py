"""Ledger round trips, writer equivalence with ``json``, parser strictness,
and the downgrade-log excerpt."""

import json
import math

import pytest

from racecert import fixedpoint as fp
from racecert import ledger as lg
from racecert.bounds import MtauConfig, PhiConfig
from racecert.budget import (BudgetRuntime, BudgetState, ModelCatalogEntry,
                             default_catalog)
from racecert.generators import suite_a
from racecert.prefix_dag import compile_dag
from racecert.search import Mode, RunConfig, run

EXCERPT = (
    '{"ctx_digest":"3f1a...e2","mode":"Exact",'
    '"claim_type_before":"RunWiseExact","guards":[],'
    '"phi_before":"12.0000","phi_after":"11.2000","delta_phi":"-0.8000",'
    '"eta":"1.0000"}\n'
    '{"ctx_digest":"7a98...bd","mode":"Exact",'
    '"claim_type_before":"RunWiseExact","guards":["AcyclicityFail"],'
    '"phi_before":"11.2000","phi_after":"10.5000","delta_phi":"-0.7000",'
    '"eta":"1.0000","claim_type_after":"NoCert","budget_event":"None"}\n'
)


HEAD = '{"schema":"%s"}\n' % lg.SCHEMA_TAG  # a header line the parser takes


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
        text = (HEAD + '{"event":"push","ctx_digest":"ab","key_raw":"0","guards":[]}\n'
                f"{bad}\n")
        with pytest.raises(lg.MalformedLineError) as exc:
            lg.Ledger.parse_text(text)
        assert exc.value.lineno == 3


def test_unknown_field_rejected():
    for field in ("bogus", "_display", "key_tight", "kappa"):
        text = HEAD + '{"event":"push","%s":"x"}\n' % field
        with pytest.raises(lg.SchemaViolationError, match="unknown field"):
            lg.Ledger.parse_text(text)


def test_unknown_event_kind_rejected():
    text = HEAD + '{"event":"teleport"}\n'
    with pytest.raises(lg.SchemaViolationError):
        lg.Ledger.parse_text(text)


def test_event_record_without_required_field_rejected():
    full = {"ctx_digest": '"ab"', "key_raw": '"0"', "value": '"0"',
            "incumbent": '"0"'}
    for event, required in lg.REQUIRED_FIELDS.items():
        for dropped in required:
            body = ",".join(f'"{k}":{full[k]}' for k in required if k != dropped)
            text = HEAD + f'{{"event":"{event}",{body}}}\n'
            with pytest.raises(lg.SchemaViolationError, match="lacks") as exc:
                lg.Ledger.parse_text(text)
            assert exc.value.lineno == 2
        body = ",".join(f'"{k}":{full[k]}' for k in required)
        lg.Ledger.parse_text(HEAD + f'{{"event":"{event}",{body}}}\n')
    # A stop record's key_raw is optional.
    lg.Ledger.parse_text(HEAD + '{"event":"stop"}\n')


def test_raw_field_overflow_on_parse():
    too_big = str(fp.Q64_64_MAX + 1)
    text = HEAD + '{"event":"push","key_raw":"%s"}\n' % too_big
    with pytest.raises(lg.OverflowOnParseError):
        lg.Ledger.parse_text(text)


def test_raw_field_must_be_string():
    text = HEAD + '{"event":"push","key_raw":42}\n'
    with pytest.raises(lg.SchemaViolationError, match="decimal string"):
        lg.Ledger.parse_text(text)


@pytest.mark.parametrize("value", ["null", "[]", "{}", "true", "1", "1.5"])
def test_scaled_field_of_wrong_type_is_malformed(value):
    text = HEAD + '{"eta":%s}\n' % value
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
    text = HEAD + '{"event":"guard","guards":["Gremlin"]}\n'
    with pytest.raises(lg.SchemaViolationError):
        lg.Ledger.parse_text(text)


def test_save_and_parse(tmp_path):
    led = lg.Ledger(_header())
    led.records.append({"event": "stop", "reason": "certified"})
    path = str(tmp_path / "run.ndjson")
    led.save(path)
    assert lg.Ledger.parse(path).serialize() == led.serialize()


def _json_line(rec: dict) -> str:
    """Reference record writer: each number field turned into its layout's
    decimal text, then one compact, key-sorted ``json`` dump."""
    obj = {}
    for key, val in rec.items():
        kind = lg.FIELDS[key]
        if kind is str or kind is list:
            obj[key] = val
        else:
            obj[key] = fp.format_scaled_q32_32(val) if kind.scaled else str(val)
    return lg._dump(obj)


# A private entry, picked first on the model_id tie, so the budget records
# log alpha_selected, router_rdp_eps and eps_delta.*.
_PRIVATE = BudgetRuntime(
    [*default_catalog(), ModelCatalogEntry("m-dp", "adp-d", "dpc-d", 2.0, 1e-6,
                                           1, 10, eps_m=0.1)],
    BudgetState(eps_max=10.0, delta=1e-6, price_max=100, slo_ms=1000))


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("phi", [None, PhiConfig(step_cap=2, alpha=0.5, eta=0.5)],
                         ids=["no-phi", "phi"])
@pytest.mark.parametrize("budget", [None, _PRIVATE], ids=["no-budget", "private"])
def test_writer_matches_json_on_run_records(mode, phi, budget):
    seen = set()
    for seed in range(3):
        graph, _ = compile_dag(suite_a(3, 3, seed))
        result = run(graph, mode, RunConfig(mtau=MtauConfig(), seed=seed,
                                            n_ub_factor=2.0, phi=phi,
                                            budget=budget))
        led = result.ledger
        lines = led.serialize().split("\n")[:-1]
        assert lines == [lg._dump(led.header)] + [_json_line(r) for r in led.records]
        seen.update(field for rec in led.records for field in rec)
    if phi is not None and mode is not Mode.FALLBACK:  # Fallback logs no phi
        assert {"phi_before", "delta_phi", "eta"} <= seen
    if budget is not None:
        assert {"alpha_selected", "router_rdp_eps", "eps_delta.eps"} <= seen


_AWKWARD = ('"quote\\ back\\slash" ' + "".join(map(chr, range(32)))
            + "\x7f \u2028\u2029 é 漢字 \U0001f600")


def test_writer_matches_json_on_awkward_records():
    ends = {name: kind for name, kind in lg.FIELDS.items()
            if kind is not str and kind is not list}
    records = [
        # No event: the parser reads only the declared event kinds.
        {name: _AWKWARD + name for name, kind in lg.FIELDS.items()
         if kind is str and name != "event"},
        {"event": "guard", "guards": ["NumClamp", "Timeout", "BudgetFail"],
         "reason": ""},
        {"guards": []},
        {name: kind.lo for name, kind in ends.items()},
        {name: kind.hi for name, kind in ends.items()},
        {name: 0 for name in ends},
    ]
    led = lg.Ledger(_header())
    led.records.extend(records)
    text = led.serialize()
    assert text.split("\n")[1:-1] == [_json_line(r) for r in records]
    assert lg.Ledger.parse_text(text).records == records


@pytest.mark.parametrize("rec, error", [
    ({"event": 5}, TypeError),
    ({"reason": None}, TypeError),
    ({"ctx_digest": b"ab"}, TypeError),
    ({"guards": ["Gremlin"]}, ValueError),
    ({"guards": [1]}, ValueError),
    ({"key_raw": 1.0}, ValueError),
    ({"tie_token": True}, ValueError),
    ({"Nub": -1}, ValueError),
    ({"U": fp.Q0_64_MAX + 1}, ValueError),
    ({"eta": "1.0000"}, ValueError),
    ({"bogus": "x"}, KeyError)],
    ids=["int-event", "none-reason", "bytes-id", "bad-guard", "int-guard",
         "float-raw", "bool-raw", "negative-u64", "q0_64-overflow", "text-scaled",
         "unknown-field"])
def test_writer_refuses_what_the_parser_would(rec, error):
    # Writing it would leave a ledger that no parse reads back.
    led = lg.Ledger(_header())
    led.records.append(rec)
    with pytest.raises(error):
        led.serialize()


_RECORD = '{"event":"stop","reason":"x"}'


@pytest.mark.parametrize("line", [" " + _RECORD, _RECORD + " \t", "\t" + _RECORD],
                         ids=["leading", "trailing", "leading-tab"])
def test_record_line_with_outer_whitespace_is_accepted(line):
    text = HEAD + line + "\n"
    for form in (text, text.encode()):
        assert lg.Ledger.parse_text(form).records == [{"event": "stop", "reason": "x"}]


def _deep_message() -> str:
    try:
        json.loads("[" * 100_000 + "]" * 100_000)
    except RecursionError as exc:
        return str(exc)
    raise AssertionError("nesting did not recurse too deep")


@pytest.mark.parametrize("line, message", [
    (_RECORD.encode() * 2, "bad JSON: Extra data: line 1 column 30 (char 29)"),
    (b"\xef\xbb\xbf" + _RECORD.encode(),
     "bad JSON: Expecting value: line 1 column 1 (char 0)"),
    (b'{"event":"stop","reason":"\xff"}',
     "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 26: "
     "invalid start byte"),
    (b"[" * 100_000 + b"]" * 100_000, None)],
    ids=["two-objects", "bom", "invalid-utf8", "too-deep"])
def test_malformed_record_line_keeps_its_message(line, message):
    message = message or f"bad JSON: {_deep_message()}"
    head = HEAD.encode()
    forms = [head + line + b"\n"]
    if b"\xff" not in line:
        forms.append(forms[0].decode("utf-8"))
    for text in forms:
        with pytest.raises(lg.MalformedLineError) as exc:
            lg.Ledger.parse_text(text)
        assert str(exc.value) == f"line 2: {message}"
        assert exc.value.lineno == 2
