"""Fast checks of the benchmark's own definitions (no program runs)."""

from __future__ import annotations

import json

import common
import metrics
import wl_campaign
import wl_eval
import wl_fleet
import wl_run


def test_benchmark_json_is_generated_from_the_metric_tables():
    on_disk = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_json()


def test_every_per_layer_metric_names_what_it_moves():
    end_to_end = {name for name, *_ in metrics.END_TO_END}
    workloads = {name for name, _ in metrics.WORKLOADS}
    for name, _unit, _better, moves, workload in metrics.PER_LAYER:
        assert moves in end_to_end | {"-"}, name
        assert workload in workloads | {"-"}, name


def test_reference_covers_every_input_a_seed_can_draw():
    table = common.load_reference()
    wanted = [wl_run.reference_key(p, c, s)
              for p, c in wl_run.COMBOS for s in wl_run.POOL]
    wanted += [wl_campaign.reference_key(scheme, w, s)
               for scheme, w in wl_campaign.CAMPAIGNS
               for s in wl_campaign.POOL]
    wanted += [wl_eval.eval_key(p, scheme, s)
               for p, scheme in wl_eval.KEYS for s in wl_eval.POOL]
    wanted += [wl_eval.campaign_key(p, s)
               for p in wl_eval.PROFILES for s in wl_eval.POOL]
    wanted += [wl_fleet.reference_key(c, s)
               for c in wl_fleet.CELLS for s in wl_fleet.POOL]
    assert [key for key in wanted if key not in table] == []
    for scheme, w in wl_campaign.CAMPAIGNS:
        for s in wl_campaign.POOL:
            key = wl_campaign.reference_key(scheme, w, s)
            assert len(table[key]) == wl_campaign.TRIALS


def test_seed_streams_are_stable_and_distinct():
    a = common.rng_for("run", 1).random()
    assert a == common.rng_for("run", 1).random()
    assert a != common.rng_for("run", 2).random()
    assert a != common.rng_for("fleet", 1).random()


def test_draw_uses_the_whole_pool_before_repeating():
    rng = common.rng_for("t", 0)
    drawn = common.draw(rng, list(range(5)), 12)
    assert sorted(drawn[:5]) == list(range(5))
    assert sorted(drawn[5:10]) == list(range(5))
    assert len(drawn) == 12


def test_quantile_is_nearest_rank():
    values = [float(v) for v in range(1, 11)]
    assert common.quantile(values, 0.0) == 1.0
    assert common.quantile(values, 1.0) == 10.0
    assert common.quantile(values, 0.5) == 5.0
    assert common.median(values) == 5.5
