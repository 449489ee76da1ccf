"""Serve wire protocol: codec round-trips, validation, canned responses."""

import pytest

from repro.faults.models import FAULT_KINDS
from repro.serve import protocol
from repro.serve.protocol import (
    CampaignRequest,
    EvalRequest,
    EvalResponse,
    ProtocolError,
    error_response,
    ok_response,
    shed_response,
    timeout_response,
)


def test_request_round_trip():
    request = EvalRequest(workload="mcf", backend="paraverser-full",
                          instructions=4000, seed=11, fault_trials=3,
                          timeout_s=2.5, request_id="r1")
    wire = protocol.request_to_wire(request)
    line = protocol.encode_message(wire)
    assert line.endswith(b"\n")
    decoded = protocol.request_from_wire(protocol.decode_message(line))
    assert decoded == request


def test_request_round_trip_checkers_spec():
    request = EvalRequest(workload="bwaves", checkers="2xA510@2.0",
                          mode="opportunistic", hash_mode=True)
    decoded = protocol.request_from_wire(protocol.request_to_wire(request))
    assert decoded == request
    assert decoded.checkers == "2xA510@2.0"


def test_response_round_trip():
    response = EvalResponse(protocol.STATUS_OK, "r7",
                            result={"slowdown_percent": 1.25})
    decoded = protocol.response_from_wire(protocol.response_to_wire(response))
    assert decoded == response
    assert decoded.ok


def test_response_error_round_trip():
    response = error_response(EvalRequest(workload="mcf", backend="x",
                                          request_id="r9"), "boom")
    decoded = protocol.response_from_wire(protocol.response_to_wire(response))
    assert decoded.status == protocol.STATUS_ERROR
    assert decoded.request_id == "r9"
    assert decoded.error == "boom"
    assert not decoded.ok


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError):
        protocol.decode_message(b"not json\n")
    with pytest.raises(ProtocolError):
        protocol.decode_message(b"[1, 2, 3]\n")
    with pytest.raises(ProtocolError):
        protocol.decode_message(b"\xff\xfe\n")


def test_decode_rejects_oversized():
    huge = b"x" * (protocol.MAX_LINE_BYTES + 1)
    with pytest.raises(ProtocolError):
        protocol.decode_message(huge)


def test_request_validation():
    with pytest.raises(ProtocolError):
        EvalRequest(workload="").validate()
    # neither backend nor checkers
    with pytest.raises(ProtocolError):
        EvalRequest(workload="mcf").validate()
    # both
    with pytest.raises(ProtocolError):
        EvalRequest(workload="mcf", backend="a",
                    checkers="1xA510@2.0").validate()
    with pytest.raises(ProtocolError):
        EvalRequest(workload="mcf", backend="a",
                    instructions=0).validate()
    with pytest.raises(ProtocolError):
        EvalRequest(workload="mcf", backend="a",
                    fault_trials=-1).validate()
    with pytest.raises(ProtocolError):
        EvalRequest(workload="mcf", backend="a", timeout_s=0.0).validate()


def test_from_wire_rejects_bad_envelopes():
    good = protocol.request_to_wire(
        EvalRequest(workload="mcf", backend="b"))
    with pytest.raises(ProtocolError):
        protocol.request_from_wire({**good, "op": "launch-missiles"})
    with pytest.raises(ProtocolError):
        protocol.request_from_wire({**good, "v": 999})
    with pytest.raises(ProtocolError):
        protocol.response_from_wire({"status": "maybe"})


def test_sim_key_ignores_delivery_metadata():
    base = EvalRequest(workload="mcf", backend="b", request_id="r1",
                       timeout_s=1.0)
    twin = EvalRequest(workload="mcf", backend="b", request_id="r2",
                       timeout_s=9.0)
    other = EvalRequest(workload="mcf", backend="b", seed=8)
    assert base.sim_key() == twin.sim_key()
    assert base.sim_key() != other.sim_key()


def test_trace_key_groups_by_functional_run():
    a = EvalRequest(workload="mcf", backend="paraverser-full",
                    instructions=4000)
    b = EvalRequest(workload="mcf", checkers="1xA510@2.0",
                    instructions=4000)
    c = EvalRequest(workload="mcf", backend="paraverser-full",
                    instructions=8000)
    assert a.trace_key() == b.trace_key()
    assert a.trace_key() != c.trace_key()


def test_canned_responses_echo_request_id():
    request = EvalRequest(workload="mcf", backend="b", request_id="r3")
    assert ok_response(request, {"x": 1}).request_id == "r3"
    assert shed_response(request, 4).status == protocol.STATUS_SHED
    assert timeout_response(request).status == protocol.STATUS_TIMEOUT
    assert "saturated" in shed_response(request, 4).error


def test_campaign_round_trip():
    request = CampaignRequest(workload="mcf", checkers="2xA510@2.0",
                              mode="full", instructions=8000, seed=11,
                              trials=50, fault_kinds=("stuck_at",),
                              timeout_s=30.0, request_id="c1")
    wire = protocol.campaign_to_wire(request)
    line = protocol.encode_message(wire)
    decoded = protocol.campaign_from_wire(protocol.decode_message(line))
    assert decoded == request
    assert isinstance(decoded.fault_kinds, tuple)


def test_campaign_wire_accepts_json_lists():
    # JSON has no tuples; a list on the wire must land back as a tuple.
    wire = protocol.campaign_to_wire(CampaignRequest(workload="mcf"))
    wire["fault_kinds"] = list(wire["fault_kinds"])
    decoded = protocol.campaign_from_wire(wire)
    assert decoded.fault_kinds == FAULT_KINDS


def test_campaign_validation():
    with pytest.raises(ProtocolError):
        CampaignRequest(workload="").validate()
    with pytest.raises(ProtocolError):
        CampaignRequest(workload="mcf", checkers="").validate()
    with pytest.raises(ProtocolError):
        CampaignRequest(workload="mcf", trials=0).validate()
    with pytest.raises(ProtocolError):
        CampaignRequest(workload="mcf", instructions=0).validate()
    with pytest.raises(ProtocolError):
        CampaignRequest(workload="mcf", fault_kinds=()).validate()
    with pytest.raises(ProtocolError):
        CampaignRequest(workload="mcf",
                        fault_kinds=("cosmic_ray",)).validate()
    with pytest.raises(ProtocolError):
        CampaignRequest(workload="mcf", timeout_s=0.0).validate()


def test_campaign_from_wire_rejects_bad_envelopes():
    good = protocol.campaign_to_wire(CampaignRequest(workload="mcf"))
    with pytest.raises(ProtocolError):
        protocol.campaign_from_wire({**good, "op": "eval"})
    with pytest.raises(ProtocolError):
        protocol.campaign_from_wire({**good, "v": 999})
    with pytest.raises(ProtocolError):
        protocol.campaign_from_wire({**good, "fault_kinds": "stuck_at"})


def test_campaign_sim_key_ignores_delivery_metadata():
    base = CampaignRequest(workload="mcf", request_id="c1", timeout_s=5.0)
    twin = CampaignRequest(workload="mcf", request_id="c2", timeout_s=9.0)
    other = CampaignRequest(workload="mcf", trials=99)
    assert base.sim_key() == twin.sim_key()
    assert base.sim_key() != other.sim_key()
    assert base.sim_spec()["op"] == protocol.OP_CAMPAIGN


def test_campaign_trace_key_matches_eval_requests():
    # Campaigns must batch with evals of the same functional run.
    campaign = CampaignRequest(workload="mcf", instructions=4000, seed=7)
    evaluation = EvalRequest(workload="mcf", checkers="1xA510@2.0",
                             instructions=4000, seed=7)
    assert campaign.trace_key() == evaluation.trace_key()


#: Payloads the front door must refuse before admission, one bad field
#: each: campaign specs, and evals with a bad pool spec or mode.
BAD_WIRE_PAYLOADS = [
    {"op": "campaign", "workload": "nosuch"},
    {"op": "campaign", "workload": "mcf", "checkers": "9xZ9@1"},
    {"op": "campaign", "workload": "mcf", "mode": "bogus"},
    {"op": "campaign", "workload": "mcf", "scheme": "nope"},
    {"op": "campaign", "workload": "mcf", "fault_kinds": ["transient"]},
    {"op": "campaign", "workload": "mcf", "trials": -3},
    {"op": "campaign", "workload": "mcf",
     "checkers": "99999999999999xA510@1.0"},
    {"op": "eval", "workload": "mcf", "checkers": "9xZ9@1"},
    {"op": "eval", "workload": "mcf", "checkers": "A510"},
    {"op": "eval", "workload": "mcf", "checkers": "99999999999999xA510@1.0"},
    {"op": "eval", "workload": "mcf", "checkers": "1xA510@1.0",
     "mode": "bogus"},
    {"op": "eval", "workload": "mcf", "backend": "paraverser-full",
     "mode": "bogus"},
]


@pytest.mark.parametrize("payload", BAD_WIRE_PAYLOADS)
def test_bad_payloads_fail_decoding_with_one_line(payload):
    decode = (protocol.campaign_from_wire if payload["op"] == "campaign"
              else protocol.request_from_wire)
    with pytest.raises(ProtocolError) as caught:
        decode(dict(payload, v=protocol.PROTOCOL_VERSION))
    assert "\n" not in str(caught.value)


def test_eval_validation_parses_checkers_and_mode():
    with pytest.raises(ProtocolError, match="unknown core class"):
        EvalRequest(workload="mcf", checkers="1xM1@3.0").validate()
    with pytest.raises(ProtocolError, match="bad checker spec"):
        EvalRequest(workload="mcf", checkers="A510").validate()
    with pytest.raises(ProtocolError, match="bogus"):
        EvalRequest(workload="mcf", checkers="1xA510@1.0",
                    mode="bogus").validate()
    EvalRequest(workload="mcf", checkers="2xX2@1.5,1xA510@2.0",
                mode="sampling").validate()

