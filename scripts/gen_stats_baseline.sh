#!/bin/sh
# Regenerate the committed stats baseline the CI regression gate
# compares against (see .github/workflows/ci.yml).  Run from the repo
# root after an intentional change to simulated statistics.
set -e
PYTHONPATH=src python -m repro.cli run -w mcf -n 20000 \
  --stats-json tests/golden/stats_smoke.json
# Campaign coverage baseline: trial outcomes are a pure function of
# (spec, trial), so these leaves are deterministic across hosts and
# worker counts; faults.runtime.* is wall-clock and masked in CI.
PYTHONPATH=src python -m repro.cli campaign -w mcf -t 10 -n 20000 -j 1 \
  --stats-json tests/golden/campaign_smoke.json
# Scenario-matrix baseline: one campaign per detection scheme
# (paraverser, dme, ithica-sdc, meek-ro) under faults.<scheme>.*; same
# purity argument as above, so CI regenerates with -j 2 and demands
# bit-identity with faults.*runtime* masked.
PYTHONPATH=src python -m repro.cli scenarios -w mcf -t 8 -n 20000 -j 1 \
  --stats-json tests/golden/scenarios_smoke.json
# Fleet traffic baseline: every leaf is a pure function of the config
# matrix (sha256 per-request RNG streams, rep-order merge), so CI can
# regenerate it with -j 2 and demand bit-identity; fleet.runtime.* is
# wall-clock and masked in CI.
PYTHONPATH=src python -m repro.cli fleet --policies shortest,jbsq2 \
  --modes full,opportunistic --loads 0.7,0.92 \
  --duration 0.5 --reps 2 -j 1 \
  --stats-json tests/golden/fleet_smoke.json
# Control-plane baseline: the diurnal bench's three arms (always-full,
# always-opportunistic, closed-loop threshold controller).  Every
# control.*/power.* leaf is a pure function of the config — controllers
# are rebuilt per rep from the JSON spec and epoch records merge in rep
# order — so CI regenerates the tree with -j 2 and demands bit-identity.
PYTHONPATH=src python -m repro.cli control --servers 4 --load 0.7 \
  --duration 1.0 --epoch-s 0.1 --reps 2 -j 1 \
  --stats-json tests/golden/control_smoke.json
# Router baseline: the smoke script's fixed serial traffic against 3
# spawned shards yields a deterministic router.* tree (sha256 ring
# placement, exact-integer campaign merge); router.runtime.* is
# wall-clock and masked in CI.  The smoke verifies result bit-identity
# before writing the golden.
PYTHONPATH=src python scripts/router_smoke.py --write-golden \
  --skip-kill-leg
