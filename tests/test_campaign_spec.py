"""The campaign spec boundary: one type, validated at construction.

``CampaignSpec`` is built by the CLI, the pool payloads and the wire
(``CampaignRequest`` extends it).  Every out-of-range field must fail
when the spec is constructed — a one-line ``ValueError`` naming the
field — before any trace or campaign context exists, and every entry
point must resolve the same scheme-derived default fault mix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults.engine as engine
from repro.cli import main
from repro.cpu.presets import parse_checkers
from repro.faults.engine import CampaignOutcome, CampaignSpec, run_campaign
from repro.faults.models import ALL_FAULT_KINDS, FAULT_STUCK_AT
from repro.faults.scenarios import CAMPAIGN_SCHEMES, default_fault_kinds
from repro.serve.protocol import (
    CampaignRequest,
    ProtocolError,
    campaign_from_wire,
    campaign_to_wire,
)
from repro.workloads.profiles import ALL_PROFILES

MODES = ("full", "opportunistic", "sampling")

#: The invalid specs the engine used to accept (or reject only after a
#: context build).
BAD_FIELDS = [
    ("workload", "nosuch"),
    ("checkers", "9xZ9@1"),
    ("mode", "bogus"),
    ("scheme", "nope"),
    ("fault_kinds", ("transient",)),
    ("trials", -3),
]


def _bad_checkers(text):
    try:
        parse_checkers(text)
    except ValueError:
        return True
    return False


#: One out-of-range value per field.
BAD_VALUES = st.one_of(
    st.tuples(st.just("workload"),
              st.text(max_size=12).filter(lambda w: w not in ALL_PROFILES)),
    st.tuples(st.just("checkers"), st.text(max_size=12).filter(_bad_checkers)),
    st.tuples(st.just("mode"),
              st.text(max_size=12).filter(lambda m: m not in MODES)),
    st.tuples(st.just("scheme"),
              st.text(max_size=12).filter(
                  lambda s: s not in CAMPAIGN_SCHEMES)),
    st.tuples(st.just("fault_kinds"), st.one_of(
        st.just(()),
        st.lists(st.text(max_size=12), min_size=1, max_size=3).filter(
            lambda ks: any(k not in ALL_FAULT_KINDS for k in ks)))),
    st.tuples(st.just("instructions"), st.integers(max_value=0)),
    st.tuples(st.just("trials"), st.integers(max_value=0)),
    st.tuples(st.just("trial_offset"), st.integers(max_value=-1)),
    st.tuples(st.just("hash_mode"), st.integers()),
    st.tuples(st.just("seed"), st.floats(allow_nan=False)),
)


@pytest.fixture
def no_context_builds(monkeypatch):
    """Fail the test if anything tries to build a trace or context."""
    def forbidden(*args, **kwargs):
        raise AssertionError("context built for an invalid spec")

    monkeypatch.setattr(engine, "build_campaign_context", forbidden)
    monkeypatch.setattr("repro.harness.parallel.worker_cache", forbidden)


@settings(max_examples=150, deadline=None)
@given(BAD_VALUES)
def test_any_out_of_range_field_raises_naming_it(bad):
    field, value = bad
    with pytest.raises(ValueError) as caught:
        CampaignSpec(**{"workload": "mcf", field: value})
    message = str(caught.value)
    assert "\n" not in message
    assert field in message or field.replace("_", " ") in message


@pytest.mark.parametrize("field,value", BAD_FIELDS)
def test_invalid_spec_raises_before_any_context(field, value,
                                                no_context_builds):
    with pytest.raises(ValueError):
        CampaignSpec(**{"workload": "mcf", field: value})
    with pytest.raises(ProtocolError):
        CampaignRequest(**{"workload": "mcf", field: value})


def test_valid_spec_keeps_its_key():
    # Pinned: shard records and the benchmark's references key on it.
    assert CampaignSpec(workload="mcf").key() == "17eb08a1eb578e32"


@pytest.mark.parametrize("scheme", CAMPAIGN_SCHEMES)
def test_cli_engine_and_wire_share_the_default_fault_kinds(scheme,
                                                           monkeypatch,
                                                           capsys):
    seen = []

    def fake_run(self, spec, on_record=None):
        seen.append(spec)
        return CampaignOutcome(spec=spec)

    monkeypatch.setattr(engine.CampaignRunner, "run", fake_run)
    assert main(["campaign", "-w", "mcf", "--backend", scheme,
                 "-j", "1", "--json"]) == 0
    capsys.readouterr()

    wire = campaign_to_wire(CampaignRequest(workload="mcf", scheme=scheme))
    del wire["fault_kinds"]
    expected = default_fault_kinds(scheme)
    assert seen[0].fault_kinds == expected
    assert CampaignSpec(workload="mcf", scheme=scheme).fault_kinds \
        == expected
    assert CampaignRequest(workload="mcf", scheme=scheme).fault_kinds \
        == expected
    assert campaign_from_wire(wire).fault_kinds == expected


def test_ithica_wire_default_is_the_defect_screen():
    assert CampaignRequest(workload="mcf", scheme="ithica-sdc").fault_kinds \
        == ("defect",)


@pytest.mark.parametrize("argv", [
    ["campaign", "-w", "mcf", "-t", "-3"],
    ["campaign", "-w", "mcf", "-c", "9xZ9@1"],
    ["campaign", "-w", "nosuch"],
    ["scenarios", "-w", "mcf", "--schemes", "paraverser,nope"],
    ["scenarios", "-w", "mcf", "-t", "0"],
    ["inject", "-w", "mcf", "-t", "-3"],
])
def test_cli_rejects_bad_specs_with_one_line(argv, capsys,
                                             no_context_builds):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"{argv[0]}: ")


def test_inject_prints_the_engine_records(capsys):
    assert main(["inject", "-w", "exchange2", "-t", "5", "-n", "6000"]) == 0
    out = capsys.readouterr().out
    printed = [line for line in out.splitlines() if line.startswith("  ")]
    outcome = run_campaign(CampaignSpec(workload="exchange2",
                                        instructions=6000, trials=5,
                                        fault_kinds=(FAULT_STUCK_AT,)),
                           jobs=1)
    expected = []
    for record in outcome.records:
        status = ("DETECTED" if record.detected
                  else "masked" if record.masked else "missed")
        expected.append(f"  {record.fault:55s} {status}")
    assert printed == expected
