"""Self-tests of the benchmark: planted faults, repeatable counts, the
layer split, the metric list and the no-sources exit.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

from repro.compiler.mapper import sabre_mapper, trivial_mapper  # noqa: E402
from repro.experiments.common import paper_configuration, run_suite  # noqa: E402
from repro.hardware import resolve_device  # noqa: E402
from repro.hardware.drift import DriftPlan  # noqa: E402
from repro.workloads.suite import BenchmarkCircuit  # noqa: E402

DEVICE = paper_configuration()
SUITE = inputs.fig3_suite(5)


def _compile(benchmark, device, mapper):
    return layers.split_map(benchmark, device, mapper, layers.Stopwatch())


def _problems(benchmark, device, record, c, table=None):
    table = table or check.ErrorTable.of(device.calibration)
    return check.check_result(
        benchmark.circuit, c.decomposed, c.routed, c.mapped, c.initial, c.final,
        device, table, record,
    )


@pytest.fixture(scope="module")
def compiled():
    """A small routed suite member with swaps and a simulable register."""
    for benchmark in SUITE:
        record, c = _compile(benchmark, DEVICE, trivial_mapper())
        if record.swap_count and check.statevector_equal(
            benchmark.circuit, c.mapped, c.initial, c.final
        ) is not None:
            return benchmark, record, c
    raise AssertionError("no small routed circuit in the suite")


def test_clean_output_passes(compiled):
    benchmark, record, c = compiled
    assert _problems(benchmark, DEVICE, record, c) == []
    assert check.statevector_equal(benchmark.circuit, c.mapped, c.initial, c.final) is True


def _relabel_one_cz(circuit, device):
    from repro.circuit import Circuit, Gate

    out = Circuit(circuit.num_qubits, name=circuit.name)
    done = False
    for gate in circuit:
        if not done and gate.name == "cz":
            a, b = gate.qubits
            other = next(q for q in device.coupling.neighbors(a) if q != b)
            gate = Gate("cz", (a, other))
            done = True
        out.append(gate)
    assert done
    return out


def test_relabelled_cz_is_caught(compiled):
    benchmark, record, c = compiled
    in_mapped = c._replace(mapped=_relabel_one_cz(c.mapped, DEVICE))
    assert _problems(benchmark, DEVICE, record, in_mapped)
    in_routed = c._replace(routed=_relabel_one_cz(c.routed, DEVICE))
    assert _problems(benchmark, DEVICE, record, in_routed)


def test_dropped_swap_is_caught(compiled):
    from repro.circuit import Circuit

    benchmark, record, c = compiled
    routed = Circuit(c.routed.num_qubits, name=c.routed.name)
    gates = list(c.routed)
    drop = next(i for i, g in enumerate(gates) if g.name == "swap")
    routed.extend(gates[:drop] + gates[drop + 1:])
    assert any("replay" in p or "order" in p or "layout" in p
               for p in _problems(benchmark, DEVICE, record, c._replace(routed=routed)))


def test_perturbed_error_rate_is_caught(compiled):
    benchmark, record, c = compiled
    edge = next(g.qubits for g in c.mapped if g.name == "cz")
    calibration = DEVICE.calibration.with_edge_error(*edge, DEVICE.calibration.two_qubit_error * 1.5)
    faulty, _ = _compile(benchmark, replace(DEVICE, calibration=calibration), trivial_mapper())
    found = _problems(benchmark, DEVICE, faulty, c)
    assert found and all("fidelity" in p for p in found)


def test_drifted_rates_are_recomputed():
    """The service check's fidelity uses each epoch's drifted rates."""
    device = resolve_device("surface17")
    corpus = inputs.service_corpus(3)
    delta = next(d for d in DriftPlan.generate(device, 5, seed=3).updates if d.edges)
    drifted = replace(device, calibration=device.calibration.with_updates(
        edge_errors=delta.edge_errors(), qubit_errors=delta.qubit_errors()))
    table = check.ErrorTable.of(device.calibration)
    touched = {e for e, _ in delta.edges}
    for circuit in corpus:
        bench = BenchmarkCircuit(circuit, "random", circuit.content_hash())
        record, c = _compile(bench, drifted, sabre_mapper())
        if any(tuple(sorted(g.qubits)) in touched for g in c.mapped if g.num_qubits == 2):
            assert _problems(bench, drifted, record, c, table.updated(delta)) == []
            assert _problems(bench, drifted, record, c, table)
            return
    pytest.fail("no corpus circuit uses a drifted edge")


@pytest.mark.parametrize("make", [trivial_mapper, sabre_mapper])
def test_split_reproduces_suite_runner(make):
    suite = SUITE[:12]
    records = run_suite(suite, DEVICE, make())
    mapper = make()
    split = [_compile(b, DEVICE, mapper)[0] for b in suite]
    assert pickle.dumps(split) == pickle.dumps(records)


_COUNT = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import inputs, run
from repro.compiler.mapper import {mapper}
from repro.experiments.common import paper_configuration
device = paper_configuration()
suite = inputs.fig3_suite(2)
{mapper}().map(suite[0].circuit, device)
print(json.dumps(run.fig3_counted_calls(suite, device, {mapper})))
"""


@pytest.mark.parametrize("mapper", ["trivial_mapper", "sabre_mapper"])
def test_counted_pass_repeats_across_hash_seeds(mapper):
    code = _COUNT.format(src=str(ROOT / "src"), here=str(HERE), mapper=mapper)
    counts = []
    for hash_seed in ("0", "4242", "0"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300, check=True)
        counts.append(json.loads(out.stdout.strip().splitlines()[-1]))
    assert counts[0] == counts[1] == counts[2]
    py_calls, per_layer = counts[0]
    assert all(value > 0 for value in per_layer.values())
    assert py_calls > 0


def test_zipf_exponent_fits_target():
    """ZIPF_S is the grid exponent whose round best meets the target share."""
    grid = [k / 20 for k in range(61)]
    best = min(grid, key=lambda s: abs(
        inputs.no_compute_share(inputs.service_stream(s)) - inputs.TARGET_NO_COMPUTE))
    assert best == inputs.ZIPF_S


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig3_trivial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
