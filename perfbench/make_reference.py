"""Regenerate ``reference.json``: digests of every output the benchmark
can ask for, computed in-process by the plain serial paths.

Usage::

    python3 perfbench/make_reference.py

The references pin today's simulated behaviour: a change that alters any
simulated output makes the benchmark report failed operations, so run
this only for a change that is meant to alter simulated results, and say
so in its description.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import REFERENCE, SRC, scrub_program_env  # noqa: E402


def run_refs() -> dict:
    import wl_run

    return {wl_run.reference_key(p, c, s):
            wl_run.result_digest(wl_run.simulate(p, c, s))
            for p, c in wl_run.COMBOS for s in wl_run.POOL}


def campaign_refs() -> dict:
    import wl_campaign
    from repro.faults.engine import run_campaign

    out = {}
    for scheme, workload in wl_campaign.CAMPAIGNS:
        for window in wl_campaign.POOL:
            outcome = run_campaign(
                wl_campaign.make_spec(scheme, workload, window), jobs=1)
            out[wl_campaign.reference_key(scheme, workload, window)] = [
                wl_campaign.trial_digest(r) for r in outcome.records]
    return out


def eval_refs() -> dict:
    import wl_eval
    from repro.serve.workers import evaluate_spec

    out = {}
    for seed in wl_eval.POOL:
        for profile, scheme in wl_eval.KEYS:
            spec = wl_eval.eval_request(profile, scheme, seed).sim_spec()
            out[wl_eval.eval_key(profile, scheme, seed)] = \
                wl_eval.row_digest(evaluate_spec(spec))
        for profile in wl_eval.PROFILES:
            spec = wl_eval.campaign_request(profile, seed).sim_spec()
            out[wl_eval.campaign_key(profile, seed)] = \
                wl_eval.row_digest(evaluate_spec(spec))
    return out


def fleet_refs() -> dict:
    import wl_fleet

    return {wl_fleet.reference_key(c, s):
            wl_fleet.result_digest(wl_fleet.run_cell(c, s))
            for c in wl_fleet.CELLS for s in wl_fleet.POOL}


BUILDERS = {"run": run_refs, "campaign": campaign_refs, "eval": eval_refs,
            "fleet": fleet_refs}


def main() -> int:
    scrub_program_env()
    sys.path.insert(0, str(SRC))
    table = {}
    for name, build in BUILDERS.items():
        entries = build()
        table.update(entries)
        print(f"{name}: {len(entries)} entries", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
