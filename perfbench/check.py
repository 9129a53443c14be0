"""Output checker that does not call the program's own verifiers.

Every figure it compares against is recomputed here from the compiled
circuits and from plain data: the coupling edges, the primitive gate
names and an error table built from the calibration's numbers.

* Structure: every gate of the mapped circuit is a primitive, every
  two-qubit gate and every inserted SWAP lies on a coupling edge.
* Routing: replaying the routed circuit through a SWAP-tracked layout
  gives, for every logical qubit, exactly the gate sequence of the
  decomposed input, and ends in the reported final layout.
* Lowering: the mapped circuit's two-qubit gates are the routed
  circuit's, with each SWAP as three gates on the same pair.
* Reports: ``fidelity_after``/``fidelity_before`` are recomputed from the
  error table, ``depth_after`` by an ASAP layer count, gate and swap
  counts by counting.
* Semantics: for at most ``STATEVECTOR_QUBITS`` touched qubits, a numpy
  state vector run of the input and of the mapped circuit (through the
  layouts) agree up to global phase.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

STATEVECTOR_QUBITS = 10
DIRECTIVES = frozenset({"measure", "reset", "barrier"})
Edge = Tuple[int, int]


class ErrorTable:
    """Per-site error rates as plain numbers (the calibration's data)."""

    def __init__(self, single: float, two: float, qubits: Dict[int, float],
                 edges: Dict[Edge, float]) -> None:
        self.single = single
        self.two = two
        self.qubits = dict(qubits)
        self.edges = dict(edges)

    @classmethod
    def of(cls, calibration) -> "ErrorTable":
        return cls(
            calibration.single_qubit_error,
            calibration.two_qubit_error,
            calibration.qubit_errors,
            {tuple(sorted(k)): v for k, v in calibration.edge_errors.items()},
        )

    def updated(self, delta) -> "ErrorTable":
        """A copy with one drift delta's absolute rates written in."""
        table = ErrorTable(self.single, self.two, self.qubits, self.edges)
        for edge, value in delta.edges:
            table.edges[tuple(sorted(edge))] = value
        for qubit, value in delta.qubits:
            table.qubits[qubit] = value
        return table

    def error(self, name: str, qubits: Sequence[int]) -> float:
        if len(qubits) == 1:
            return self.qubits.get(qubits[0], self.single)
        if len(qubits) == 2:
            return self.edges.get(tuple(sorted(qubits)), self.two)
        return min(0.999999, 6.0 * self.two)

    def fidelity(self, circuit) -> float:
        value = 1.0
        for gate in circuit:
            if gate.name not in DIRECTIVES:
                value *= 1.0 - self.error(gate.name, gate.qubits)
        return value


def asap_depth(circuit) -> int:
    """Layer count: a unitary starts after every earlier gate on its
    qubits; directives order later gates but add no layer."""
    level: Dict[int, int] = {}
    for gate in circuit:
        start = max((level.get(q, 0) for q in gate.qubits), default=0)
        for q in gate.qubits:
            level[q] = max(level.get(q, 0), start) if gate.name in DIRECTIVES else start + 1
    return max(level.values(), default=0)


def _key(gate, qubits) -> tuple:
    return (gate.name, tuple(qubits), tuple(gate.params))


def _per_qubit(entries: Iterable[tuple]) -> Dict[int, List[tuple]]:
    sequences: Dict[int, List[tuple]] = {}
    for entry in entries:
        for q in entry[1]:
            sequences.setdefault(q, []).append(entry)
    return sequences


def replay_routed(decomposed, routed, initial: Dict[int, int], final: Dict[int, int],
                  edges: FrozenSet[Edge]) -> List[str]:
    """Routing check: per-logical-qubit gate order through the SWAPs."""
    problems: List[str] = []
    logical_at = {p: v for v, p in initial.items()}
    replayed = []
    for index, gate in enumerate(routed):
        physical = gate.qubits
        if gate.num_qubits == 2 and gate.name not in DIRECTIVES:
            if tuple(sorted(physical)) not in edges:
                problems.append(f"routed gate {index} {gate.name}{physical} is off the coupling graph")
        if gate.name == "swap":
            a, b = physical
            va, vb = logical_at.pop(a, None), logical_at.pop(b, None)
            if va is not None:
                logical_at[b] = va
            if vb is not None:
                logical_at[a] = vb
            continue
        if any(p not in logical_at for p in physical):
            problems.append(f"routed gate {index} {gate.name}{physical} acts on an unmapped qubit")
            continue
        replayed.append(_key(gate, [logical_at[p] for p in physical]))
    want = _per_qubit(_key(g, g.qubits) for g in decomposed)
    got = _per_qubit(replayed)
    for qubit in sorted(set(want) | set(got)):
        if want.get(qubit, []) != got.get(qubit, []):
            problems.append(f"logical qubit {qubit}: gate order differs after replay")
    end = {v: p for p, v in logical_at.items()}
    if end != dict(final):
        problems.append("replayed final layout differs from the reported one")
    return problems


def lowering_pairs(routed, mapped) -> List[str]:
    """Lowering check on the two-qubit skeleton."""
    want: List[Edge] = []
    for gate in routed:
        if gate.num_qubits == 2 and gate.name not in DIRECTIVES:
            want.extend([tuple(sorted(gate.qubits))] * (3 if gate.name == "swap" else 1))
    got = [tuple(sorted(g.qubits)) for g in mapped if g.num_qubits == 2 and g.name not in DIRECTIVES]
    return [] if want == got else ["lowered two-qubit gates differ from the routed circuit"]


def _matrix(gate) -> np.ndarray:
    from repro.circuit.gates import gate_definition

    return np.asarray(gate_definition(gate.name).matrix_fn(tuple(gate.params)), dtype=complex)


def _run(circuit, slot: Dict[int, int], state: np.ndarray) -> np.ndarray:
    """Apply the circuit's unitaries; qubit q lives on tensor axis slot[q]
    and ``qubits[0]`` is the most significant bit of a gate matrix."""
    n = state.ndim
    for gate in circuit:
        if gate.name in DIRECTIVES:
            continue
        k = gate.num_qubits
        axes = [slot[q] for q in gate.qubits]
        tensor = _matrix(gate).reshape((2,) * (2 * k))
        state = np.tensordot(tensor, state, axes=(list(range(k, 2 * k)), axes))
        state = np.moveaxis(state, list(range(k)), axes)
    return state


def statevector_equal(original, mapped, initial: Dict[int, int], final: Dict[int, int],
                      seed: int = 7) -> Optional[bool]:
    """None when the touched register is too wide to simulate."""
    touched = sorted({q for g in mapped for q in g.qubits} | set(initial.values()) | set(final.values()))
    if len(touched) > STATEVECTOR_QUBITS or original.num_qubits > STATEVECTOR_QUBITS:
        return None
    n = original.num_qubits
    if set(initial) != set(range(n)) or set(final) != set(range(n)):
        return False
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi = (psi / np.linalg.norm(psi)).reshape((2,) * n)
    want = _run(original, {q: q for q in range(n)}, psi.copy())
    axis = {p: i for i, p in enumerate(touched)}
    m = len(touched)

    def embed(state, layout):
        # logical qubit v on physical layout[v]; every other touched qubit |0>
        full = np.zeros((2,) * m, dtype=complex)
        order = [axis[layout[v]] for v in range(n)]
        view = np.moveaxis(full, order, list(range(n)))
        view[(Ellipsis,) + (0,) * (m - n)] = state
        return full

    got = _run(mapped, axis, embed(psi, initial))
    expected = embed(want, final)
    overlap = abs(np.vdot(expected.ravel(), got.ravel()))
    return bool(abs(overlap - 1.0) < 1e-8)


def check_result(benchmark_circuit, decomposed, routed, mapped, initial, final,
                 device, table: ErrorTable, record) -> List[str]:
    """Every problem found with one compiled circuit and its record."""
    edges = frozenset(tuple(sorted(e)) for e in device.coupling.edges)
    primitives = frozenset(device.gate_set.gate_names)
    problems: List[str] = []
    if "swap" in primitives:
        problems.append("device has a native SWAP: inserted SWAPs are ambiguous")
    for index, gate in enumerate(mapped):
        if gate.name not in primitives and gate.name not in DIRECTIVES:
            problems.append(f"mapped gate {index} {gate.name} is not a primitive")
        if any(q < 0 or q >= device.num_qubits for q in gate.qubits):
            problems.append(f"mapped gate {index} leaves the device")
        if gate.num_qubits == 2 and gate.name not in DIRECTIVES and tuple(sorted(gate.qubits)) not in edges:
            problems.append(f"mapped gate {index} {gate.name}{gate.qubits} is off the coupling graph")
    problems += replay_routed(decomposed, routed, initial, final, edges)
    problems += lowering_pairs(routed, mapped)
    swaps = sum(1 for g in routed if g.name == "swap")
    unitary = lambda c: sum(1 for g in c if g.name not in DIRECTIVES)  # noqa: E731
    expect = {
        "swap_count": swaps,
        "gates_before": unitary(decomposed),
        "gates_after": unitary(mapped),
        "depth_after": asap_depth(mapped),
        "depth_before": asap_depth(decomposed),
    }
    for field, value in expect.items():
        if getattr(record, field) != value:
            problems.append(f"{field}: record {getattr(record, field)} != recomputed {value}")
    for field, circuit in (("fidelity_after", mapped), ("fidelity_before", decomposed)):
        value = table.fidelity(circuit)
        if not math.isclose(getattr(record, field), value, rel_tol=1e-12, abs_tol=1e-300):
            problems.append(f"{field}: record {getattr(record, field)!r} != recomputed {value!r}")
    if statevector_equal(benchmark_circuit, mapped, initial, final) is False:
        problems.append("state vectors of input and mapped circuit differ")
    return problems
