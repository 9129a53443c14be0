"""The compile path split into its layers, timed or counted from outside.

``split_map`` performs exactly what ``QuantumMapper.map`` followed by
the suite runner's record building performs, one public call per layer:

    decompose   compiler.decompose.decompose_circuit on the input
    place       the mapper's placement pass   (compiler.placement)
    route       the mapper's router           (compiler.routing)
    lower       decompose_circuit on the routed circuit (inserted SWAPs)
    report.*    metrics.overhead, metrics.fidelity, core.metrics

so its records must pickle to the same bytes as the suite runner's.
A ``Stopwatch`` adds a perf_counter pair per layer call; a ``Counter``
enables one cProfile per layer, only around that layer's call.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import defaultdict
from typing import Callable, Dict, NamedTuple

LAYERS = (
    "decompose", "place", "route", "lower",
    "report.overhead", "report.fidelity", "report.graph",
)


class Stopwatch:
    """Seconds per layer, summed over every call since the last reset."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)

    def __call__(self, layer: str, fn: Callable, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.seconds[layer] += time.perf_counter() - start
        return out


class Counter:
    """Python-level calls per layer, one profiler per layer."""

    def __init__(self) -> None:
        self.profiles = {layer: cProfile.Profile() for layer in LAYERS}

    def __call__(self, layer: str, fn: Callable, *args):
        profile = self.profiles[layer]
        profile.enable()
        try:
            return fn(*args)
        finally:
            profile.disable()

    def calls(self) -> Dict[str, int]:
        out = {}
        for layer, profile in self.profiles.items():
            out[layer] = pstats.Stats(profile).total_calls
        return out


class Compiled(NamedTuple):
    """One circuit's artefacts, for the checker."""

    decomposed: object
    routed: object
    mapped: object
    initial: dict
    final: dict


def split_map(benchmark, device, mapper, layer):
    """Map one suite member layer by layer; returns (record, Compiled)."""
    from repro.circuit import size_parameters
    from repro.compiler.decompose import decompose_circuit
    from repro.core.metrics import circuit_graph_metrics
    from repro.experiments.common import MappingRecord
    from repro.metrics.fidelity import fidelity_report
    from repro.metrics.overhead import overhead_report

    if mapper.optimize_input or mapper.optimize_output:
        raise ValueError("the split covers mappers without peephole passes")
    decomposed = layer("decompose", decompose_circuit, benchmark.circuit, device.gate_set)
    placed = layer("place", mapper.placement.place, decomposed, device)
    routing = layer("route", mapper.router.route, decomposed, device, placed)
    mapped = layer("lower", decompose_circuit, routing.circuit, device.gate_set)
    overhead = layer(
        "report.overhead", overhead_report,
        decomposed, mapped, routing.swap_count, routing.bridge_count,
    )
    fidelity = layer("report.fidelity", fidelity_report, decomposed, mapped, device.calibration)
    graph = layer("report.graph", circuit_graph_metrics, decomposed)
    record = MappingRecord(
        name=benchmark.source,
        family=benchmark.family,
        size=size_parameters(benchmark.circuit),
        metrics=graph,
        gates_before=overhead.gates_before,
        gates_after=overhead.gates_after,
        gate_overhead_percent=overhead.gate_overhead_percent,
        swap_count=routing.swap_count,
        depth_before=overhead.depth_before,
        depth_after=overhead.depth_after,
        fidelity_before=fidelity.fidelity_before,
        fidelity_after=fidelity.fidelity_after,
        log_fidelity_before=fidelity.log_fidelity_before,
        log_fidelity_after=fidelity.log_fidelity_after,
    )
    compiled = Compiled(
        decomposed, routing.circuit, mapped,
        dict(routing.initial_layout), dict(routing.final_layout),
    )
    return record, compiled
