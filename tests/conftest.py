"""Shared strategies and helpers for the test suite."""
from __future__ import annotations

from hypothesis import strategies as st

from tqecsynth.circuit import Circuit, Gate, GateKind, InitBasis, MeasBasis
from tqecsynth.geometry import (
    Coord, Defect, Geometry, Injection, LayoutParams, Pin, PinRole, Segment, SegmentKind,
)

# Protocol measurement for injection-initialised rows: |A> rows close in Z
# (the default T-block pattern), |Y> rows in X (the teleport ancilla basis).
PROTOCOL_MEAS = {InitBasis.A: MeasBasis.Z, InitBasis.Y: MeasBasis.X}


@st.composite
def icm_circuits(draw, max_qubits: int = 12, max_cnots: int = 50):
    """Random valid ICM circuits with protocol measurements on injections."""
    n = draw(st.integers(1, max_qubits))
    inits = []
    meas = []
    for _ in range(n):
        init = draw(st.sampled_from(list(InitBasis)))
        inits.append(init)
        if init.is_injection:
            meas.append(PROTOCOL_MEAS[init])
        else:
            meas.append(draw(st.sampled_from(list(MeasBasis))))
    k = draw(st.integers(0, max_cnots)) if n > 1 else 0
    gates = []
    for _ in range(k):
        c = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, n - 2))
        if t >= c:
            t += 1
        gates.append(Gate(GateKind.CNOT, (c, t)))
    return Circuit(n, tuple(inits), tuple(gates), tuple(meas), icm=True)


@st.composite
def gate_circuits(draw, max_qubits: int = 4, max_gates: int = 12):
    """Random measurement-free circuits over the full gate vocabulary."""
    n = draw(st.integers(1, max_qubits))
    singles = [GateKind.T, GateKind.TDG, GateKind.P, GateKind.PDG,
               GateKind.V, GateKind.VDG, GateKind.H]
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        if n >= 3 and draw(st.booleans()) and draw(st.booleans()):
            qs = draw(st.permutations(range(n)))
            gates.append(Gate(GateKind.TOFFOLI, tuple(qs[:3])))
        elif n >= 2 and draw(st.booleans()):
            qs = draw(st.permutations(range(n)))
            gates.append(Gate(GateKind.CNOT, tuple(qs[:2])))
        else:
            q = draw(st.integers(0, n - 1))
            gates.append(Gate(draw(st.sampled_from(singles)), (q,)))
    inits = tuple(InitBasis.OPEN for _ in range(n))
    meas = tuple(MeasBasis.OPEN for _ in range(n))
    return Circuit(n, inits, tuple(gates), meas)


@st.composite
def parity_geometries(draw, min_defects: int = 1, points: bool = False):
    """Single-segment defects of either kind, on and off their parity, some below zero.

    With ``points``, pins and injection vertices are drawn too, anywhere
    in the same range, so they may lie off every segment and widen its box.
    """
    coords = st.lists(st.integers(-3, 7), min_size=3, max_size=3)
    defects = []
    for _ in range(draw(st.integers(min_defects, 6))):
        kind = draw(st.sampled_from(list(SegmentKind)))
        a = draw(coords)
        b = list(a)
        b[draw(st.integers(0, 2))] += draw(st.integers(1, 6)) * draw(st.sampled_from([-1, 1]))
        seg = Segment(kind, Coord(*a), Coord(*b))
        defects.append(Defect(kind, (seg,), closed=False))
    pins: list[Pin] = []
    injections: list[Injection] = []
    if points:
        pins = [Pin(Coord(*draw(coords)), draw(st.sampled_from(list(SegmentKind))), PinRole.IO)
                for _ in range(draw(st.integers(0, 3)))]
        for row in range(draw(st.integers(0, 2))):
            pin = Pin(Coord(*draw(coords)), SegmentKind.PRIMAL, PinRole.INJECTION, InitBasis.A)
            injections.append(Injection(Coord(*draw(coords)), InitBasis.A, (pin, pin), row))
    return Geometry(defects=tuple(defects), pins=tuple(pins), injections=tuple(injections),
                    ioports=(), layout=LayoutParams())


def winding_ray_cast(polygon: list[tuple[int, int]], point: tuple[int, int]) -> bool:
    """Independent even-odd membership test (horizontal ray casting)."""
    px, py = point
    inside = False
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        if (y1 > py) != (y2 > py):
            x_cross = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_cross:
                inside = not inside
    return inside


def defects_of(geometry: Geometry, kind: SegmentKind) -> list[Defect]:
    """The geometry's defects of one kind, in defect order."""
    return [d for d in geometry.defects if d.kind is kind]
