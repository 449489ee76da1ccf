"""Stage-graph declaration, the serial walk, and one body per stage.

The run graph names the seven stages of a checked run and walks them in
declared order.  These tests pin the graph's declared shape, the
construction-time wiring checks, the walk's failure modes, and that
``ParaVerserSystem.run`` (the graph) and the split-phase
``prepare → estimate_traffic → noc_adjustment → finalize`` path give
equal results and equal stats trees.
"""

import fnmatch

import pytest

from repro.core.system import CheckMode, ParaVerserSystem
from repro.cpu.presets import parse_checkers
from repro.harness.runner import make_config
from repro.pipeline.graph import RUN_GRAPH, StageGraph, StageNode
from repro.pipeline.noc import noc_adjustment
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

BUDGET = 6000
SEED = 7


def _nop(system, artifacts):
    return {}


def _node(name, inputs, outputs):
    return StageNode(name, tuple(inputs), tuple(outputs), _nop)


# -- graph declaration -------------------------------------------------------

class TestRunGraph:
    def test_declares_seven_stages(self):
        assert len(RUN_GRAPH) == 7
        assert [node.name for node in RUN_GRAPH.nodes] == [
            "build", "trace", "timing", "noc", "schedule", "check",
            "report"]

    def test_request_is_the_only_external_input(self):
        assert RUN_GRAPH.external_inputs == ("request",)

    def test_result_is_produced_by_report(self):
        assert RUN_GRAPH.producers["result"] == "report"

    def test_check_is_independent_of_noc_and_schedule(self):
        """Verify replay needs the functional segments, no timing."""
        check = next(n for n in RUN_GRAPH.nodes if n.name == "check")
        assert "noc_terms" not in check.inputs
        assert "scheduled" not in check.inputs
        assert "prepared" not in check.inputs

    def test_initially_only_build_is_ready(self):
        external = set(RUN_GRAPH.external_inputs)
        ready = [node.name for node in RUN_GRAPH.nodes
                 if set(node.inputs) <= external]
        assert ready == ["build"]


class TestStageGraphValidation:
    def test_duplicate_stage_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate stage names"):
            StageGraph([_node("a", [], ["x"]), _node("a", [], ["y"])])

    def test_duplicate_producer_rejected(self):
        with pytest.raises(ValueError, match="produced by both"):
            StageGraph([_node("a", [], ["x"]), _node("b", [], ["x"])])

    def test_cycle_rejected(self):
        for nodes in ([_node("a", ["y"], ["x"]), _node("b", ["x"], ["y"])],
                      [_node("a", ["x"], ["x"])]):  # a self-loop
            with pytest.raises(ValueError, match="before its producer"):
                StageGraph(nodes)

    def test_input_declared_after_its_consumer_rejected(self):
        with pytest.raises(ValueError, match="'b' consumes 'y' before"):
            StageGraph([_node("a", ["ext"], ["x"]),
                        _node("b", ["x", "y"], ["z"]),
                        _node("c", ["x"], ["y"])])


# -- the serial walk ---------------------------------------------------------

class _FakeStats:
    def group(self, *args, **kwargs):
        return self

    def scalar(self, *args, **kwargs):
        pass

    def count(self, *args, **kwargs):
        pass


class _FakeCtx:
    stats = _FakeStats()


class _FakeSystem:
    ctx = _FakeCtx()


class TestStageGraphRun:
    def test_runs_nodes_in_declared_order(self):
        calls = []

        def stage(name, value):
            def fn(system, artifacts):
                calls.append(name)
                return {name.upper(): value(artifacts)}
            return fn

        graph = StageGraph([
            StageNode("a", ("ext",), ("A",), stage("a", lambda s: s["ext"])),
            StageNode("b", ("A",), ("B",), stage("b", lambda s: s["A"] + 1)),
            StageNode("c", ("ext",), ("C",), stage("c", lambda s: 10)),
        ])
        artifacts = graph.run(_FakeSystem(), {"ext": 1})
        assert calls == ["a", "b", "c"]
        assert (artifacts["A"], artifacts["B"], artifacts["C"]) == (1, 2, 10)

    def test_missing_output_raises(self):
        graph = StageGraph([_node("a", [], ["x"])])  # _nop returns {}
        with pytest.raises(RuntimeError, match="did not produce"):
            graph.run(_FakeSystem(), {})

    def test_missing_external_input_raises(self):
        graph = StageGraph([_node("a", ["never"], ["x"])])
        with pytest.raises(ValueError, match="missing inputs"):
            graph.run(_FakeSystem(), {})


# -- one body per stage ------------------------------------------------------

@pytest.fixture(scope="module")
def program():
    return build_program(get_profile("xz"), seed=SEED)


def test_executor_stats_published(program):
    config = make_config(parse_checkers("2xA510@2.0"))
    result = ParaVerserSystem(config).run(program, max_instructions=BUDGET)
    flat = result.stats.flatten()
    assert flat["pipeline.executor.stages_run"] == 7
    assert flat["pipeline.executor.wall_time_ms"] > 0.0
    assert sorted(k for k in flat if k.startswith("pipeline.executor.")) \
        == ["pipeline.executor.stages_run", "pipeline.executor.wall_time_ms"]
    for stage in ("build", "trace", "timing", "noc", "schedule", "check",
                  "report"):
        assert f"pipeline.{stage}.wall_time_ms" in flat


def _simulated_leaves(result):
    return {key: value for key, value in result.stats.flatten().items()
            if not fnmatch.fnmatchcase(key, "pipeline.*")}


@pytest.mark.parametrize("mode", [CheckMode.FULL, CheckMode.OPPORTUNISTIC])
def test_run_equals_split_phase(mode):
    """The graph walk and the split-phase API share every stage body."""
    program = build_program(get_profile("mcf"), seed=SEED)
    config = make_config(parse_checkers("4xA510@2.0"), mode)
    walked = ParaVerserSystem(config).run(program, max_instructions=20_000)

    system = ParaVerserSystem(config)
    prepared = system.prepare(program, max_instructions=20_000)
    traffic = system.estimate_traffic(prepared)
    extra_llc, push_latency = noc_adjustment(system.ctx, traffic)
    split = system.finalize(prepared, extra_llc, push_latency)

    assert split == walked
    assert split.verify_results and split.schedule
    leaves = _simulated_leaves(walked)
    assert len(leaves) > 100
    assert _simulated_leaves(split) == leaves
