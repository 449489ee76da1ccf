"""Campaign scenarios from related work: DME, ITHICA SDC, MEEK."""

import json
import logging

import pytest

from repro.faults.engine import (
    CampaignOutcome,
    CampaignSpec,
    load_completed,
    run_campaign,
)
from repro.faults.models import (
    ALL_FAULT_KINDS,
    FAULT_DEFECT,
    FAULT_KINDS,
    DefectFault,
    random_defect_fault,
)
from repro.faults.scenarios import (
    CAMPAIGN_SCHEMES,
    DecorrelatedSurface,
    decorrelation_mask,
    default_fault_kinds,
    make_campaign,
)
from repro.isa.instructions import FUKind


def small_spec(scheme="paraverser", **overrides):
    params = dict(workload="mcf", checkers="1xA510@1.0",
                  mode="opportunistic", hash_mode=False,
                  instructions=20000, seed=7, trials=6,
                  fault_kinds=FAULT_KINDS, scheme=scheme)
    params.update(overrides)
    return CampaignSpec(**params)


def sim_row(outcome):
    """The deterministic part of ``to_row`` (host runtime keys dropped)."""
    row = outcome.to_row()
    for key in ("elapsed_s", "jobs", "trace_source", "resumed_trials",
                "trace_cache"):
        row.pop(key, None)
    return row


# -- DefectFault (ITHICA SDC model) -----------------------------------------

def make_defect(**overrides):
    params = dict(fus=(FUKind.INT_ALU,), trigger_mask=0xF0,
                  trigger_value=0x30, corruption=1 << 5, latch_after=1)
    params.update(overrides)
    return DefectFault(**params)


def test_defect_triggers_only_on_matching_pattern():
    fault = make_defect()
    assert fault.apply(FUKind.INT_ALU, 0, 0x131) == 0x131 ^ (1 << 5)
    assert fault.apply(FUKind.INT_ALU, 0, 0x141) == 0x141  # pattern miss
    assert fault.apply(FUKind.FP, 0, 0x131) == 0x131  # other FU class


def test_defect_hits_every_unit_instance():
    fault = make_defect()
    assert fault.apply(FUKind.INT_ALU, 0, 0x30) != 0x30
    assert fault.apply(FUKind.INT_ALU, 3, 0x30) != 0x30


def test_defect_latch_after_wear_in():
    fault = make_defect(latch_after=3)
    assert fault.apply(FUKind.INT_ALU, 0, 0x30) == 0x30
    assert fault.apply(FUKind.INT_ALU, 0, 0x30) == 0x30
    assert fault.apply(FUKind.INT_ALU, 0, 0x30) == 0x30 ^ (1 << 5)


def test_defect_addresses_only_gate():
    fault = make_defect(fus=(FUKind.LOAD,), addresses_only=True)
    assert fault.apply(FUKind.LOAD, 0, 0x30, is_address=False) == 0x30
    assert fault.apply(FUKind.LOAD, 0, 0x30, is_address=True) != 0x30


def test_defect_fresh_resets_persistent_state():
    """The match counter must never leak between replay passes."""
    fault = make_defect(latch_after=2)
    fault.apply(FUKind.INT_ALU, 0, 0x30)
    assert fault.matches == 1
    clean = fault.fresh()
    assert clean.matches == 0
    # A fresh copy needs wear-in again; the stale one is already primed.
    assert clean.apply(FUKind.INT_ALU, 0, 0x30) == 0x30
    assert fault.apply(FUKind.INT_ALU, 0, 0x30) == 0x30 ^ (1 << 5)


def test_defect_two_passes_identical_after_fresh():
    """Replaying twice from fresh() is bit-identical (no state leak)."""
    fault = make_defect(latch_after=2)
    values = [0x30, 0x31, 0x42, 0x35, 0x30]

    def one_pass(surface):
        return [surface.apply(FUKind.INT_ALU, 0, v) for v in values]

    assert one_pass(fault.fresh()) == one_pass(fault.fresh())


def test_random_defect_fault_is_deterministic():
    import random
    fu_counts = {FUKind.INT_ALU: 2, FUKind.FP: 1,
                 FUKind.LOAD: 1, FUKind.STORE: 1}
    a = random_defect_fault(random.Random(99), fu_counts)
    b = random_defect_fault(random.Random(99), fu_counts)
    assert a == b
    assert a.trigger_value == a.trigger_value & a.trigger_mask


def test_defect_kind_registered():
    assert FAULT_DEFECT in ALL_FAULT_KINDS
    assert FAULT_DEFECT not in FAULT_KINDS  # default mix is unchanged
    assert default_fault_kinds("ithica-sdc") == (FAULT_DEFECT,)
    assert default_fault_kinds("paraverser") == FAULT_KINDS


# -- decorrelation (DME) -----------------------------------------------------

def test_decorrelation_mask_identity_and_determinism():
    assert decorrelation_mask(7, 0) == 0
    mask = decorrelation_mask(7, 1)
    assert mask != 0
    assert mask == decorrelation_mask(7, 1)
    assert mask < (1 << 40)
    assert decorrelation_mask(7, 2) != mask
    assert decorrelation_mask(8, 1) != mask


class _Identity:
    def apply(self, fu, unit, value, is_address=False):
        return value

    def describe(self):
        return "identity"


def test_decorrelated_surface_is_transparent_when_inner_is_clean():
    surface = DecorrelatedSurface(_Identity(), 0xABC)
    # XOR in, XOR out: a clean inner fault leaves addresses untouched.
    assert surface.apply(FUKind.LOAD, 0, 0x1234, is_address=True) == 0x1234
    assert surface.apply(FUKind.INT_ALU, 0, 55) == 55


def test_decorrelated_surface_remaps_address_seen_by_inner():
    seen = []

    class Recorder:
        def apply(self, fu, unit, value, is_address=False):
            seen.append((value, is_address))
            return value

    surface = DecorrelatedSurface(Recorder(), 0xABC)
    surface.apply(FUKind.LOAD, 0, 0x1234, is_address=True)
    surface.apply(FUKind.INT_ALU, 0, 0x1234, is_address=False)
    assert seen[0] == (0x1234 ^ 0xABC, True)   # address remapped
    assert seen[1] == (0x1234, False)          # data untouched


def test_decorrelated_surface_delegates_checkpoint_hook():
    class WithHook(_Identity):
        def corrupt_checkpoint(self, checkpoint, segment):
            return ("corrupted", segment)

    surface = DecorrelatedSurface(WithHook(), 0x1)
    assert surface.corrupt_checkpoint(None, 3) == ("corrupted", 3)
    plain = DecorrelatedSurface(_Identity(), 0x1)
    assert getattr(plain, "corrupt_checkpoint", None) is None


# -- campaign schemes --------------------------------------------------------

def detected_trials(outcome):
    return {r.trial for r in outcome.records if r.detected}


def latency_by_trial(outcome):
    return {r.trial: r.detection_instruction
            for r in outcome.records if r.detected}


def test_unknown_scheme_raises():
    with pytest.raises(ValueError, match="unknown campaign scheme"):
        make_campaign("bogus", None, [], None)
    assert set(CAMPAIGN_SCHEMES) == {
        "paraverser", "dme", "ithica-sdc", "meek-ro"}


def test_spec_scheme_roundtrip_and_key():
    spec = small_spec("dme")
    again = CampaignSpec.from_json(spec.to_json())
    assert again.scheme == "dme"
    assert spec.key() != small_spec("paraverser").key()
    # Pre-scheme payloads (old shards/clients) default to paraverser.
    payload = small_spec().to_json()
    del payload["scheme"]
    assert CampaignSpec.from_json(payload).scheme == "paraverser"


def test_dme_detects_superset_of_paraverser():
    base = run_campaign(small_spec("paraverser"), jobs=1)
    dme = run_campaign(small_spec("dme"), jobs=1)
    assert detected_trials(dme) >= detected_trials(base)


def test_dme_bit_identical_across_worker_counts():
    serial = run_campaign(small_spec("dme"), jobs=1)
    pooled = run_campaign(small_spec("dme"), jobs=2, chunk=2)
    assert sim_row(serial) == sim_row(pooled)


def test_meek_latency_coarser_and_detections_subset():
    base = run_campaign(small_spec("paraverser"), jobs=1)
    meek = run_campaign(small_spec("meek-ro"), jobs=1)
    assert detected_trials(meek) <= detected_trials(base)
    base_latency = latency_by_trial(base)
    for trial, latency in latency_by_trial(meek).items():
        assert latency >= base_latency[trial]


def test_meek_escapes_count_as_missed_not_masked():
    base = run_campaign(small_spec("paraverser"), jobs=1)
    meek = run_campaign(small_spec("meek-ro"), jobs=1)
    # Same trials, same faults: maskedness is a property of the fault,
    # not the observer — reduced observability converts detections into
    # misses (SDC escapes), never into masks.
    assert meek.masked == base.masked
    assert meek.missed >= base.missed
    assert meek.to_row()["sdc_escape_rate"] == meek.missed / meek.injected


def test_ithica_campaign_runs_defect_kind():
    spec = small_spec("ithica-sdc", fault_kinds=(FAULT_DEFECT,))
    outcome = run_campaign(spec, jobs=1)
    assert outcome.injected == spec.trials
    assert all(r.kind == FAULT_DEFECT for r in outcome.records)


# -- zero-denominator guards (satellite) -------------------------------------

def test_zero_trial_campaign_rates_are_zero_with_warning(caplog):
    # A spec must ask for >= 1 trial; an outcome holding no records is
    # the zero-trial aggregate.
    outcome = CampaignOutcome(spec=small_spec())
    with caplog.at_level(logging.WARNING, logger="repro.faults.engine"):
        assert outcome.detection_rate_all == 0.0
        assert outcome.detection_rate_effective == 0.0
    assert "0 trials injected" in caplog.text
    assert outcome.sdc_escape_rate == 0.0
    assert outcome.max_detection_latency == 0


def test_all_masked_campaign_effective_rate_zero(caplog):
    from repro.faults.engine import TrialRecord
    records = [TrialRecord(trial=t, kind="stuck_at", fault="f",
                           detected=False, masked=True) for t in range(3)]
    outcome = CampaignOutcome(spec=small_spec(trials=3), records=records)
    with caplog.at_level(logging.WARNING, logger="repro.faults.engine"):
        assert outcome.detection_rate_effective == 0.0
    assert "no effective faults" in caplog.text


def test_campaign_result_zero_denominator(caplog):
    from repro.faults.campaign import CampaignResult
    result = CampaignResult(workload="mcf")
    with caplog.at_level(logging.WARNING, logger="repro.faults.campaign"):
        assert result.detection_rate_all == 0.0
        assert result.detection_rate_effective == 0.0
    assert result.sdc_escape_rate == 0.0


# -- resume dedupe (satellite) -----------------------------------------------

def test_resume_ignores_duplicate_trial_records(tmp_path, caplog):
    spec = small_spec(trials=4)
    first = run_campaign(spec, jobs=1, campaign_dir=tmp_path)
    shards = sorted(tmp_path.glob("shard-*.jsonl"))
    assert shards
    # A crash between write and fsync can replay lines, and a killed
    # worker's trials may be re-run into another shard: duplicate every
    # record into a second shard file.
    (tmp_path / "shard-999.jsonl").write_text(
        shards[0].read_text(), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="repro.faults.engine"):
        completed = load_completed(tmp_path, spec)
    assert sorted(completed) == [0, 1, 2, 3]
    assert "duplicate trial record" in caplog.text
    resumed = run_campaign(spec, jobs=1, campaign_dir=tmp_path, resume=True)
    assert resumed.injected == spec.trials  # not double-counted
    assert resumed.resumed_trials == spec.trials
    assert sim_row(resumed) == sim_row(first)


def test_resume_duplicates_keep_first_record(tmp_path):
    spec = small_spec(trials=2)
    run_campaign(spec, jobs=1, campaign_dir=tmp_path)
    shard = sorted(tmp_path.glob("shard-*.jsonl"))[0]
    lines = [json.loads(line) for line in shard.read_text().splitlines()]
    forged = dict(lines[0], detected=not lines[0]["detected"])
    with shard.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(forged, sort_keys=True) + "\n")
    completed = load_completed(tmp_path, spec)
    assert completed[lines[0]["trial"]].detected == lines[0]["detected"]


# -- registry / serve wiring -------------------------------------------------

def test_scenario_backends_registered_with_fleet_strategies():
    from repro.detect import backend_names, get_backend
    names = backend_names()
    for name in ("dme", "ithica-sdc", "meek-ro"):
        assert name in names
        assert get_backend(name).fleet_strategy() is not None


def test_campaign_request_scheme_roundtrip():
    from repro.serve.protocol import (
        CampaignRequest,
        ProtocolError,
        campaign_from_wire,
        campaign_to_wire,
    )
    request = CampaignRequest(workload="mcf", trials=2, scheme="meek-ro")
    again = campaign_from_wire(campaign_to_wire(request))
    assert again.scheme == "meek-ro"
    assert again.sim_spec()["scheme"] == "meek-ro"
    # Pre-scheme clients omit the field entirely.
    payload = campaign_to_wire(CampaignRequest(workload="mcf", trials=2))
    del payload["scheme"]
    assert campaign_from_wire(payload).scheme == "paraverser"
    with pytest.raises(ProtocolError, match="scheme"):
        CampaignRequest(workload="mcf", trials=2, scheme="bogus").validate()
