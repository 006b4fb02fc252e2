"""End-to-end synthesis: parse, decompose, ICM, geometry, schedule, connect.

The pipeline keeps every stage deterministic for a fixed (source, config,
seed) triple; all randomness flows from one seeded generator whose
algorithm identifier is recorded in the output metadata.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis
from .circuit import Circuit, InitBasis, parse_circuit, validate_circuit
from .decompose import decompose_gates
from .geometry import (
    Defect, Geometry, LayoutParams, SegmentKind, generate_geometry, validate_parity,
)
from .icm import IcmConversion, to_icm
from .matrix import INIT_A, INIT_Y, MatrixRep, to_matrix
from .scheduling import (
    MAX_SPARES, Assignment, BoxDim, BoxInstance, Connection, FailureReport,
    FillConfig, PinPairReq, Region, Schedule, connect_pins, default_box_dims,
    homogeneous_schedule, schedule_boxes, simulate_failures, spare_count,
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
    layout: LayoutParams = field(default_factory=LayoutParams)
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
    source: str
    circuit: Circuit
    conversion: IcmConversion
    matrix: MatrixRep
    geometry: Geometry
    schedules: list[Schedule]
    failure: FailureReport | None
    assignments: list[Assignment]
    connections: list[Connection]
    distance: analysis.DistanceReport
    volume: analysis.VolumeReport
    bbox: analysis.BBox
    config: PipelineConfig


@dataclass(frozen=True)
class _SparePlan:
    state: InitBasis
    count: int
    row_len: int
    flank: str                       # "low" | "high"


def _spare_plans(matrix: MatrixRep, config: PipelineConfig) -> list[_SparePlan]:
    first_col = matrix.cells[:, 0]
    plans = []
    for state, code, flank in ((InitBasis.Y, INIT_Y, "low"), (InitBasis.A, INIT_A, "high")):
        needed = int((first_col == code).sum())
        count = config.spares.count(state, needed, config.success_rate) if needed else 0
        row_len = math.ceil(math.sqrt(count)) if count else 0
        plans.append(_SparePlan(state, count, row_len, flank))
    return plans


def _effective_layout(layout: LayoutParams, matrix: MatrixRep,
                      config: PipelineConfig, plans: list[_SparePlan]) -> LayoutParams:
    """Push t_in out to fit the box layer, and j_base past the low spare flank."""
    first_col = matrix.cells[:, 0]
    used = [state for state, code in ((InitBasis.A, INIT_A), (InitBasis.Y, INIT_Y))
            if (first_col == code).any()]
    if not used:
        return layout
    t_need = 2 * max(config.box_dims[s].tspan for s in used) + 1
    t_in = max(layout.t_in, t_need)
    j_base = layout.j_base
    for plan in plans:
        if plan.flank == "low" and plan.count:
            j_base += plan.row_len * 2 * config.box_dims[plan.state].jspan
    return replace(layout, t_in=t_in, j_base=j_base)


def run_pipeline(source: str, config: PipelineConfig | None = None) -> PipelineResult:
    """Synthesise a geometry document from circuit source text.

    Raises ParseError/PipelineError on bad input and DistillationExhausted
    when the spare schedule cannot serve every injection.
    """
    config = config or PipelineConfig()
    circ = parse_circuit(source)
    diags = validate_circuit(circ)
    if diags:
        raise PipelineError("; ".join(d.message for d in diags))

    conv = to_icm(decompose_gates(circ))
    matrix = to_matrix(conv.circuit)

    plans = _spare_plans(matrix, config)
    layout = _effective_layout(config.layout, matrix, config, plans)
    geometry = generate_geometry(matrix, layout)
    parity = validate_parity(geometry)
    if parity:
        raise PipelineError("; ".join(d.message for d in parity))

    schedules: list[Schedule] = []
    failure: FailureReport | None = None
    assignments: list[Assignment] = []
    connections: list[Connection] = []
    boxes: list[BoxInstance] = []

    if geometry.injections:
        dims = config.box_dims
        face_t = layout.t_in - 2
        region = Region(fill=config.fill)
        pairs = [
            PinPairReq(inj.state, inj.pins[0].coord.j, inj.pins)
            for inj in geometry.injections
        ]
        hetero = schedule_boxes(pairs, dims, region, face_t)
        schedules.append(hetero)

        pin_js = [p.coord.j for p in geometry.pins]
        j_lo = min(pin_js)
        # the high flank must clear the initial boxes, which extend past
        # their pins along j
        j_hi = max(b.extent("j")[1] for b in hetero.boxes)
        per_state_pairs: dict[InitBasis, list[PinPairReq]] = {}
        for pair in pairs:
            per_state_pairs.setdefault(pair.state, []).append(pair)

        spare_boxes: dict[InitBasis, list[BoxInstance]] = {s: [] for s in dims}
        for plan in plans:
            if not plan.count:
                continue
            pitch = 2 * dims[plan.state].jspan
            sj = j_lo - plan.row_len * pitch if plan.flank == "low" else j_hi + 2
            remaining = plan.count
            while remaining > 0:
                k = min(plan.row_len, remaining)
                row = homogeneous_schedule(k, plan.state, sj, dims,
                                           region=region, face_t=face_t)
                schedules.append(row)
                spare_boxes[plan.state].extend(row.boxes)
                remaining -= k

        boxes = [b for s in schedules for b in s.boxes]
        boxes_by_type: dict[InitBasis, list[BoxInstance]] = {}
        for state in (InitBasis.A, InitBasis.Y):
            initial = [b for b in hetero.boxes if b.state is state]
            queue = initial + spare_boxes.get(state, [])
            if queue:
                boxes_by_type[state] = queue

        rng = np.random.default_rng(config.seed)
        failure = simulate_failures(boxes_by_type, config.success_rate,
                                    per_state_pairs, rng, seed=config.seed)
        assignments = failure.assignments
        connections = connect_pins(assignments)

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

    bbox = analysis.bounding_box(geometry)
    if min(bbox.lo.as_list()) < 0:
        raise PipelineError("layout produced negative coordinates")

    distance = analysis.min_code_distance(geometry)
    volume = analysis.volume_units(geometry, config.cube_side)

    return PipelineResult(
        source=source,
        circuit=circ,
        conversion=conv,
        matrix=matrix,
        geometry=geometry,
        schedules=schedules,
        failure=failure,
        assignments=assignments,
        connections=connections,
        distance=distance,
        volume=volume,
        bbox=bbox,
        config=config,
    )
