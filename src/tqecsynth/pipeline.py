"""End-to-end synthesis: parse, decompose, ICM, geometry, schedule, connect.

The pipeline keeps every stage deterministic for a fixed (source, config,
seed) triple; all randomness flows from one seeded generator whose
algorithm identifier is recorded in the output metadata.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import analysis
from .circuit import Circuit, InitBasis, parse_circuit, validate_circuit
from .decompose import decompose_gates
from .geometry import (
    Defect, Geometry, SegmentKind, collector_paused, generate_geometry, validate_parity,
)
from .icm import IcmConversion, to_icm
from .matrix import MatrixRep, to_matrix
from .scheduling import (
    MAX_SPARES, BoxDim, BoxInstance, Connection, FailureReport,
    FillConfig, PinPairReq, Schedule, box_layout, connect_pins, default_box_dims,
    place_boxes, simulate_failures, spare_count,
)


class PipelineError(ValueError):
    pass


@dataclass(frozen=True)
class SparePolicy:
    """Spare-box sizing: a binomial tail bound, or explicit per-type counts."""

    kind: str = "binomial"           # "binomial" | "explicit"
    epsilon: float = 0.01
    y_count: int = 0
    a_count: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("binomial", "explicit"):
            raise PipelineError(f"unknown spare policy {self.kind!r}")
        if min(self.y_count, self.a_count) < 0:
            raise PipelineError("explicit spare counts must be non-negative")
        if max(self.y_count, self.a_count) > MAX_SPARES:
            raise PipelineError(f"explicit spare counts must not exceed {MAX_SPARES}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise PipelineError("spare epsilon must lie in [0, 1]")

    def count(self, state: InitBasis, needed: int, success_rate: float) -> int:
        if self.kind == "explicit":
            return self.y_count if state is InitBasis.Y else self.a_count
        return spare_count(needed, success_rate, self.epsilon)


@dataclass(frozen=True)
class PipelineConfig:
    success_rate: float = 1.0
    seed: int = 0
    spares: SparePolicy = field(default_factory=SparePolicy)
    box_dims: dict[InitBasis, BoxDim] = field(default_factory=default_box_dims)
    fill: FillConfig = field(default_factory=FillConfig)
    cube_side: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_rate <= 1.0:
            raise PipelineError("success rate must lie in [0, 1]")
        if type(self.seed) is not int or self.seed < 0:
            raise PipelineError("seed must be a non-negative integer")
        if self.cube_side < 1:
            raise PipelineError("cube side must be at least 1")


@dataclass
class PipelineResult:
    conversion: IcmConversion
    matrix: MatrixRep
    geometry: Geometry
    schedules: list[Schedule]
    failure: FailureReport | None
    connections: list[Connection]
    volume: analysis.VolumeReport
    bbox: analysis.BBox
    config: PipelineConfig

    @cached_property
    def distance(self) -> analysis.DistanceReport:
        """The code-distance report, measured on first read and then kept.

        Only the reports read it, so a run that writes none (``slice``)
        never pays for the segment-pair scan.
        """
        return analysis.min_code_distance(self.geometry)


def _by_state(items: list) -> dict[InitBasis, list]:
    """Group pin pairs or boxes by the state they carry, keeping their order."""
    out: dict[InitBasis, list] = {}
    for item in items:
        out.setdefault(item.state, []).append(item)
    return out


def icm_conversion(source: str) -> tuple[Circuit, IcmConversion]:
    """Parse and validate ``source``, then decompose it into its ICM conversion.

    Raises ParseError, or PipelineError naming every validation diagnostic.
    """
    circ = parse_circuit(source)
    diags = validate_circuit(circ)
    if diags:
        raise PipelineError("; ".join(d.message for d in diags))
    return circ, to_icm(decompose_gates(circ))


@collector_paused()
def run_pipeline(source: str, config: PipelineConfig | None = None) -> PipelineResult:
    """Synthesise a geometry document from circuit source text.

    Raises ParseError/PipelineError on bad input and DistillationExhausted
    when the spare schedule cannot serve every injection. The cyclic
    garbage collector is paused throughout (``geometry.collector_paused``).
    """
    config = config or PipelineConfig()
    _, conv = icm_conversion(source)
    matrix = to_matrix(conv.circuit)

    spares: dict[InitBasis, int] = {}
    for state in (InitBasis.Y, InitBasis.A):
        needed = conv.circuit.inits.count(state)
        if needed:
            spares[state] = config.spares.count(state, needed, config.success_rate)
    layout = box_layout(spares, config.box_dims)
    geometry = generate_geometry(matrix, layout)

    schedules: list[Schedule] = []
    failure: FailureReport | None = None
    connections: list[Connection] = []
    boxes: list[BoxInstance] = []

    if geometry.injections:
        pairs = [
            PinPairReq(inj.state, inj.pins[0].coord.j, inj.pins)
            for inj in geometry.injections
        ]
        schedules = place_boxes(pairs, spares, config.box_dims, layout, config.fill)
        boxes = [b for s in schedules for b in s.boxes]
        rng = np.random.default_rng(config.seed)
        failure = simulate_failures(_by_state(boxes), config.success_rate,
                                    _by_state(pairs), rng, seed=config.seed)
        connections = connect_pins(failure.assignments)

    connection_defects = tuple(
        Defect(SegmentKind.PRIMAL, c.segments, closed=False)
        for c in connections if c.segments
    )
    geometry = replace(
        geometry,
        boxes=tuple(boxes),
        connections=connection_defects,
        pins=geometry.pins + tuple(p for b in boxes for p in b.output_pins),
    )
    # checked once finished, routes included; its span table serves every reader
    parity = validate_parity(geometry)
    if parity:
        raise PipelineError("; ".join(d.message for d in parity))

    bbox = analysis.bounding_box(geometry)
    if min(bbox.lo.as_list()) < 0:
        raise PipelineError("layout produced negative coordinates")

    volume = analysis.bbox_volume(bbox, config.cube_side)

    return PipelineResult(
        conversion=conv,
        matrix=matrix,
        geometry=geometry,
        schedules=schedules,
        failure=failure,
        connections=connections,
        volume=volume,
        bbox=bbox,
        config=config,
    )
