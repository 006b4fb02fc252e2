"""Rewriting circuits into the native gate set {CNOT, T, Tdg, P, Pdg, V, Vdg}.

H is replaced by the P,V,P sequence. Toffoli uses the standard seven-T
network (six CNOTs, seven T-type gates, one P, two Hadamards), with its two
Hadamards expanded through P,V,P as well.
"""
from __future__ import annotations

from .circuit import Circuit, Gate, GateKind, NATIVE_KINDS, cnot


def _pvp(q: int) -> list[Gate]:
    return [Gate(GateKind.P, (q,)), Gate(GateKind.V, (q,)), Gate(GateKind.P, (q,))]


def toffoli_sequence(c1: int, c2: int, t: int) -> list[Gate]:
    """The Toffoli network over {CNOT, T, Tdg, P, H}, H kept explicit."""
    T, TDG, P, H = GateKind.T, GateKind.TDG, GateKind.P, GateKind.H
    return [
        Gate(H, (t,)),
        cnot(c2, t),
        Gate(TDG, (t,)),
        cnot(c1, t),
        Gate(T, (t,)),
        cnot(c2, t),
        Gate(TDG, (t,)),
        cnot(c1, t),
        Gate(TDG, (c2,)),
        Gate(T, (t,)),
        cnot(c1, c2),
        Gate(H, (t,)),
        Gate(TDG, (c2,)),
        cnot(c1, c2),
        Gate(T, (c1,)),
        Gate(P, (c2,)),
    ]


def decomposition_for(gate: Gate) -> list[Gate]:
    """Native replacement of one gate; a native gate maps to itself."""
    if gate.kind in NATIVE_KINDS:
        return [gate]
    if gate.kind is GateKind.H:
        return _pvp(gate.qubits[0])
    if gate.kind is GateKind.TOFFOLI:
        out: list[Gate] = []
        for g in toffoli_sequence(*gate.qubits):
            out.extend(_pvp(g.qubits[0]) if g.kind is GateKind.H else [g])
        return out
    raise ValueError(f"no decomposition for {gate.kind.value}")


def decompose_gates(circ: Circuit) -> Circuit:
    """Rewrite every gate into the native set, preserving gate order."""
    gates: list[Gate] = []
    for g in circ.gates:
        gates.extend(decomposition_for(g))
    return Circuit(circ.qubit_count, circ.inits, tuple(gates), circ.meas, icm=False)
