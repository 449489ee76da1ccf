"""Tests for the measured-window machinery in the system simulator."""

import pytest

from repro.core.system import (
    BASELINE_GRID,
    ParaVerserConfig,
    ParaVerserSystem,
    warm_addresses,
)
from repro.cpu.config import CoreInstance
from repro.cpu.presets import A510, X2
from repro.cpu.timing import TimingResult
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.pipeline.timing import grid_time_at
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile


def fake_baseline(boundaries_ns, instructions):
    return TimingResult(
        label="t", instructions=instructions,
        cycles=boundaries_ns[-1] * 3.0, freq_ghz=3.0,
        boundary_cycles=[t * 3.0 for t in boundaries_ns],
    )


class TestGridInterpolation:
    def test_exact_grid_point(self):
        baseline = fake_baseline([10.0, 20.0, 30.0], 3 * BASELINE_GRID)
        assert grid_time_at(baseline, BASELINE_GRID) == pytest.approx(10.0)
        assert grid_time_at(baseline, 2 * BASELINE_GRID) == pytest.approx(20.0)

    def test_interpolates_between_points(self):
        baseline = fake_baseline([10.0, 20.0], 2 * BASELINE_GRID)
        halfway = BASELINE_GRID + BASELINE_GRID // 2
        assert grid_time_at(baseline, halfway) == pytest.approx(15.0)

    def test_below_first_point(self):
        baseline = fake_baseline([10.0, 20.0], 2 * BASELINE_GRID)
        quarter = BASELINE_GRID // 4
        assert grid_time_at(baseline, quarter) == pytest.approx(2.5)

    def test_no_grid_falls_back_to_linear(self):
        baseline = TimingResult(label="t", instructions=1000,
                                cycles=3000.0, freq_ghz=3.0)
        assert grid_time_at(baseline, 500) == pytest.approx(500.0)

    def test_monotone_in_instruction_index(self):
        baseline = fake_baseline([5.0, 11.0, 30.0, 31.0], 4 * BASELINE_GRID)
        previous = 0.0
        for instr in range(0, 4 * BASELINE_GRID, 157):
            value = grid_time_at(baseline, instr)
            assert value >= previous
            previous = value


class TestWarmAddresses:
    def test_includes_memory_image(self):
        program = Program("t", [Instruction(Opcode.HALT)],
                          memory_image={0x100: 1, 0x200: 2})
        assert {0x100, 0x200} <= set(warm_addresses(program))

    def test_includes_declared_ranges(self):
        program = Program(
            "t", [Instruction(Opcode.HALT)],
            metadata={"warm_ranges": [(0x1000, 256)]},
        )
        addresses = list(warm_addresses(program))
        assert 0x1000 in addresses
        assert 0x1000 + 192 in addresses
        assert 0x1000 + 256 not in addresses


class TestWindowBehaviour:
    def run_with(self, warmup_fraction):
        program = build_program(get_profile("exchange2"), seed=11)
        config = ParaVerserConfig(
            main=CoreInstance(X2, 3.0),
            checkers=[CoreInstance(A510, 2.0)] * 2,
            seed=11, timeout_instructions=500,
            warmup_fraction=warmup_fraction,
        )
        return ParaVerserSystem(config).run(program,
                                            max_instructions=15_000)

    def test_window_drops_cold_prefix(self):
        full = self.run_with(0.0)
        windowed = self.run_with(0.3)
        assert windowed.baseline_time_ns < full.baseline_time_ns
        assert windowed.checked_time_ns < full.checked_time_ns

    def test_windowed_slowdown_not_wilder(self):
        # The window exists to *stabilise* slowdowns, not to change signs.
        full = self.run_with(0.0)
        windowed = self.run_with(0.3)
        assert abs(windowed.slowdown - 1.0) <= abs(full.slowdown - 1.0) + 0.02

    def test_same_window_across_segment_sizes(self):
        """Configs with very different segment sizes must agree on the
        baseline, or cross-config comparisons are meaningless."""
        program = build_program(get_profile("exchange2"), seed=11)

        def run(timeout):
            config = ParaVerserConfig(
                main=CoreInstance(X2, 3.0),
                checkers=[CoreInstance(X2, 3.0)],
                seed=11, timeout_instructions=timeout,
            )
            return ParaVerserSystem(config).run(program,
                                                max_instructions=15_000)

        # Windows stay instruction-aligned within each configuration, so
        # cross-config comparisons remain meaningful: shorter checkpoints
        # cost (weakly) more, never produce sign flips, and the paper's
        # 5000-instruction default is the cheapest.
        results = {timeout: run(timeout) for timeout in (5000, 2500, 1250)}
        assert results[5000].slowdown <= results[2500].slowdown + 0.005
        assert results[2500].slowdown <= results[1250].slowdown + 0.005
        for result in results.values():
            assert result.slowdown >= 0.99
