"""Code-distance and volume metrics, layer slicing, and the hardware loop.

Distances count unit cells: a ring around a defect of diameter d_f has
length 4*d_f, a chain between defects separated by s cells has length s+1,
and the code distance is the minimum of the two. Volumes are measured in
code-distance-independent volume units of 5^3 cubes, where a cube holds
d^3 primal cells.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Callable, Iterator, NamedTuple, TypeVar

import numpy as np

from .geometry import CapShape, Coord, Geometry, collector_paused
from .spatial import RADIUS, SegmentIndex, collinear_runs

L = TypeVar("L")


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class DistanceReport:
    min_defect_diameter: int            # d_f, cells
    min_separation: int | None          # cells between closest same-kind defects
    ring_length: int
    chain_length: int | None
    code_distance: int

    @staticmethod
    def from_params(d_f: int, separation: int | None) -> "DistanceReport":
        ring = 4 * d_f
        chain = separation + 1 if separation is not None else None
        dist = ring if chain is None else min(ring, chain)
        return DistanceReport(d_f, separation, ring, chain, dist)


def code_distance(d_f: int, separation: int) -> int:
    """min(ring 4*d_f, chain separation+1)."""
    return DistanceReport.from_params(d_f, separation).code_distance


@collector_paused()
def min_code_distance(geometry: Geometry) -> DistanceReport:
    """Measure the closest same-kind defect gap of a geometry.

    Touching same-kind defects (connections joined onto qubit strands) act
    as one logical defect; separation is measured between distinct
    connected components only. The segments' spans, ``geometry.spans``,
    the table the overlap check and ``_stamps`` read too, merge into
    ``spatial.collinear_runs`` in numpy, and the sort-and-sweep index
    (``spatial.SegmentIndex``) holds one box per run, so route legs laid
    over one another are one box. A run's segments lie less than a cell
    apart, so each span's defect merges with its run's up front. The merge
    is exact: with integer coordinates a run's lattice points are its
    segments' points, so the gap from any box to the run is its least gap
    to the run's segments. One query yields, as arrays, every run pair
    within ``spatial.RADIUS`` lattice units: the pairs less than a cell
    apart merge their defects, and the closest of the others in different
    components gives the separation. If no such pair lies that close, the
    radius widens until one is found or it reaches the L1 extent of the
    ``bounding_box``, which no gap exceeds, so the result equals a scan
    over all segment pairs.
    """
    count = len(geometry.defects) + len(geometry.connections)
    if not count:
        raise AnalysisError("geometry has no defects")
    d_f = 1   # _stamps and export_obj draw every defect one cell thick

    parent = list(range(count))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    spans = geometry.spans
    runs, run_of = collinear_runs(spans)
    index = SegmentIndex(runs)
    owner = index.owner
    a, b, gap = index.pairs_within(RADIUS)
    # each span's defect joins its run's, and each pair less than a cell apart joins
    left = np.concatenate((owner[run_of], owner[a[gap <= 1]]))
    right = np.concatenate((spans.defect, owner[b[gap <= 1]]))
    differ = left != right
    for x, y in zip(left[differ].tolist(), right[differ].tolist()):
        parent[find(x)] = find(y)

    root = np.array(parent)
    while not np.array_equal(root[root], root):     # point each defect at its root
        root = root[root]
    # components join same-kind defects only: as many roots as kinds is one component a kind
    if np.count_nonzero(root == np.arange(len(root))) == np.count_nonzero(np.bincount(spans.kind)):
        return DistanceReport.from_params(d_f, None)
    root = root[owner]   # of each box

    def closest(a: np.ndarray, b: np.ndarray, gap: np.ndarray) -> int | None:
        apart = gap[root[a] != root[b]]
        return int(apart.min()) if apart.size else None

    best = closest(a, b, gap)
    if best is None:
        bbox = bounding_box(geometry)
        radius, span = RADIUS, sum(bbox.hi.as_list()) - sum(bbox.lo.as_list())
        while best is None and radius < span:
            radius *= 4
            best = closest(*index.pairs_within(radius))
    return DistanceReport.from_params(d_f, None if best is None else best // 2)


@dataclass(frozen=True)
class BBox:
    lo: Coord
    hi: Coord

    def cells(self) -> tuple[int, int, int]:
        return (
            (self.hi.i - self.lo.i) // 2 + 1,
            (self.hi.j - self.lo.j) // 2 + 1,
            (self.hi.t - self.lo.t) // 2 + 1,
        )


def bounding_box(geometry: Geometry) -> BBox:
    """Extents over segments (``geometry.spans``), injection vertices, pins,
    and box regions, each a row ``(i_lo, i_hi, j_lo, j_hi, t_lo, t_hi)``."""
    points = [inj.vertex for inj in geometry.injections] + [pin.coord for pin in geometry.pins]
    rows = [(p.i, p.i, p.j, p.j, p.t, p.t) for p in points]
    rows += [(*box.extent("i"), *box.extent("j"), *box.extent("t")) for box in geometry.boxes]
    extents = np.concatenate((geometry.spans.boxes(),
                              np.array(rows, dtype=np.int64).reshape(-1, 6)))
    if not len(extents):
        raise AnalysisError("geometry is empty")
    return BBox(Coord(*extents[:, 0::2].min(axis=0).tolist()),
                Coord(*extents[:, 1::2].max(axis=0).tolist()))


@dataclass(frozen=True)
class VolumeReport:
    cube_side: int                      # d, cells per cube edge
    bbox_in_cubes: tuple[int, int, int]
    units_per_axis: tuple[int, int, int]
    volume_units: int


def lattice_cells(bbox: BBox) -> tuple[int, int, int]:
    """Smallest origin-anchored lattice extent (in cells) covering ``bbox``."""
    hi = bbox.hi
    return (max(1, math.ceil(hi.i / 2)), max(1, math.ceil(hi.j / 2)),
            max(1, math.ceil(hi.t / 2)))


def lattice_cells_for(geometry: Geometry) -> tuple[int, int, int]:
    """:func:`lattice_cells` of a geometry's bounding box."""
    return lattice_cells(bounding_box(geometry))


def bbox_volume(bbox: BBox, d: int = 1) -> VolumeReport:
    """Tile ``bbox`` with cubes of side d, then 5^3-cube volume units."""
    if d < 1:
        raise AnalysisError("cube side must be at least 1")
    cubes = tuple(math.ceil(c / d) for c in bbox.cells())
    units = tuple(math.ceil(c / 5) for c in cubes)
    return VolumeReport(d, cubes, units, units[0] * units[1] * units[2])


def volume_units(geometry: Geometry, d: int = 1) -> VolumeReport:
    """:func:`bbox_volume` of a geometry's bounding box."""
    return bbox_volume(bounding_box(geometry), d)


class SiteBasis(Enum):
    X = "x"
    Z = "z"
    INJECTED = "injected"
    IO = "io"          # configurable boundary, left unmeasured


class LayerKind(Enum):
    PRIMAL = "primal"
    DUAL = "dual"


@dataclass(frozen=True)
class Layer:
    """One constant-t slice: every lattice site measures X unless marked."""

    t: int
    kind: LayerKind
    extent: tuple[int, int]                 # inclusive max (i, j) coordinates
    marked: tuple[tuple[tuple[int, int], SiteBasis], ...]


# Largest lattice the slicer accepts, checked before anything is allocated:
# sites per layer, (2I + 1)(2J + 1) for I x J cells, and layers, 2T - 1 for
# T cells along t. Every layer reaches the stream even when it marks no
# site, so the layer count bounds the slice output.
MAX_LAYER_SITES = 10**9
MAX_LAYERS = 10**6


def layer_kind(t: int) -> LayerKind:
    """Odd t slices primal cells, even t dual ones."""
    return LayerKind.PRIMAL if t % 2 else LayerKind.DUAL


def _stamps(geometry: Geometry) -> list[tuple[int, int, int, int, int, int, SiteBasis]]:
    """Every mark as a stamp ``(t_lo, t_hi, i_lo, i_hi, j_lo, j_hi, basis)``.

    A segment's cross-section box reaches one unit past the segment on every
    axis: the ``spatial.collinear_runs`` of ``geometry.spans``, the code
    distance's runs, each widen by one unit on every axis, so legs laid over
    one another are one stamp per maximal run. The merge is exact: segment
    stamps are all Z and come before every other stamp, so later-wins never
    sees it, and a run's stamp covers exactly its segments' boxes at each t.
    In the route plane t = t_in, where the legs served by spare boxes share
    lines, the largest layer's active stamps hold 7 429 sites for 4 674
    marks on the slice-clifford-t benchmark circuit at seed 7 (36 025
    unmerged) and 221 910 for 140 265 at 64 Toffolis (6 859 326 unmerged).
    """
    Z = SiteBasis.Z
    boxes = collinear_runs(geometry.spans)[0].boxes()
    boxes[:, 0::2] -= 1
    boxes[:, 1::2] += 1
    i_lo, i_hi, j_lo, j_hi, t_lo, t_hi = boxes.T.tolist()
    stamps: list[tuple[int, int, int, int, int, int, SiteBasis]] = list(
        zip(t_lo, t_hi, i_lo, i_hi, j_lo, j_hi, repeat(Z)))
    for port in geometry.ioports:
        pin_a, pin_b = port.pins
        t, j = pin_a.coord.t, pin_a.coord.j
        i_lo, i_hi = sorted((pin_a.coord.i, pin_b.coord.i))
        shape = port.template.shape
        if shape is CapShape.CONFIG:
            for i in (pin_a.coord.i, pin_b.coord.i):
                stamps.append((t - 1, t + 1, i - 1, i + 1, j - 1, j + 1, SiteBasis.IO))
        elif shape is CapShape.SOLID:
            stamps.append((t - 1, t + 1, i_lo - 1, i_hi + 1, j - 1, j + 1, Z))
        else:  # SPLIT: bridging segment split at a shared mid vertex
            mid = (i_lo + i_hi) // 2
            mid -= mid % 2
            stamps.append((t - 1, t + 1, i_lo - 1, mid - 1, j - 1, j + 1, Z))
            stamps.append((t - 1, t + 1, mid + 1, i_hi + 1, j - 1, j + 1, Z))
    for inj in geometry.injections:
        t = inj.pins[0].coord.t
        for pin in inj.pins:
            i, j = pin.coord.i, pin.coord.j
            stamps.append((t - 1, t + 1, i - 1, i + 1, j - 1, j + 1, Z))
        v = inj.vertex
        stamps.append((v.t, v.t, v.i, v.i, v.j, v.j, SiteBasis.INJECTED))
    return stamps


# The bases in code order: a ``Marks.basis`` entry k stands for ``BASES[k]``.
BASES = tuple(SiteBasis)


class Marks(NamedTuple):
    """One layer's marked sites in (i, j) order, as equal-length int arrays."""

    i: np.ndarray
    j: np.ndarray
    basis: np.ndarray   # indices into BASES


MarkedPairs = tuple[tuple[tuple[int, int], SiteBasis], ...]


def _shared_pairs(width: int) -> Callable[[Marks], MarkedPairs]:
    """A ``layer`` function: a layer's marks as the ``((i, j), basis)`` pairs
    of ``Layer.marked``, on a lattice ``width`` sites wide along j. Each
    distinct (site, basis) is made into a pair once, and every layer that
    marks it shares that pair."""
    pairs: dict[int, tuple[tuple[int, int], SiteBasis]] = {}

    def decode(marks: Marks) -> MarkedPairs:
        codes = ((marks.i * width + marks.j) * len(BASES) + marks.basis).tolist()
        for code in set(codes).difference(pairs):
            site, basis = divmod(code, len(BASES))
            pairs[code] = (divmod(site, width), BASES[basis])
        return tuple(map(pairs.__getitem__, codes))

    return decode


def layer_marks(geometry: Geometry, lattice_cells: tuple[int, int, int],
                bbox: BBox | None = None, *,
                layer: Callable[[Marks], L] | None = None) -> Iterator[L]:
    """``layer`` of the ``Marks`` of every layer, t = 1 .. 2T - 1.

    ``lattice_cells`` is the hosting lattice extent (I, J, T) in unit
    cells; it must cover the geometry and stay within ``MAX_LAYER_SITES``
    and ``MAX_LAYERS``. Both checks and the stamp set-up run before this
    returns, so a caller can fail before it writes anything. The cover is
    checked against ``bbox``, the geometry's ``bounding_box``: a caller
    that already holds it passes it in, and it is measured here otherwise.

    Sites inside a defect cross-section measure Z, injection vertices are
    marked injected, and configurable IO boundary cells stay unmeasured.
    Every mark is a stamp (``_stamps``): runs of collinear segment
    cross-sections, then port caps, then each injection's pins and its
    vertex. Overlapping route legs are one stamp, so a layer's active
    stamps hold few sites beyond its marks. See ``_sweep_layers`` for how
    a layer overlays them; ``layer`` runs once per overlay, and layers
    equal to it yield its value again. By default it makes the
    ``((i, j), basis)`` pairs of ``Layer.marked``, one tuple per overlay,
    each distinct pair made once for all layers. Layers are built one at
    a time as the returned generator is consumed.
    """
    ci, cj, ct = lattice_cells
    if min(ci, cj, ct) < 1:
        raise AnalysisError("lattice extent must be positive")
    extent = (2 * ci, 2 * cj)
    t_max = 2 * ct
    if (extent[0] + 1) * (extent[1] + 1) > MAX_LAYER_SITES or t_max - 1 > MAX_LAYERS:
        raise AnalysisError(
            f"lattice of {ci} x {cj} x {ct} cells is too large: at most {MAX_LAYER_SITES} "
            f"sites per layer and {MAX_LAYERS} layers")
    if bbox is None and (len(geometry.spans.lo) or geometry.pins or geometry.injections
                         or geometry.boxes):
        bbox = bounding_box(geometry)
    if bbox is not None and (bbox.hi.i > extent[0] or bbox.hi.j > extent[1]
                             or bbox.hi.t > t_max or min(bbox.lo.as_list()) < 0):
        raise AnalysisError("lattice extent smaller than the geometry bounding box")
    if layer is None:
        layer = _shared_pairs(extent[1] + 1)
    return _sweep_layers(_stamps(geometry), (*extent, t_max), layer)


def _runs(starts: np.ndarray, lengths: np.ndarray, step: int = 1) -> np.ndarray:
    """The runs ``starts[k], starts[k] + step, ...``, ``lengths[k]`` long, end to end."""
    ends = np.cumsum(lengths)
    return (np.arange(0, ends[-1] * step if ends.size else 0, step)
            + np.repeat(starts - (ends - lengths) * step, lengths))


def _sweep_layers(stamps: list[tuple[int, int, int, int, int, int, SiteBasis]],
                  extent: tuple[int, int, int],
                  layer: Callable[[Marks], L]) -> Iterator[L]:
    """``layer`` of the ``Marks`` of each t = 1 .. t_max - 1 on a lattice of
    sites (0 .. i_max, 0 .. j_max), from ``stamps`` as ``_stamps`` gives them.

    The stamps are clipped to the lattice and held as int arrays. A sweep
    over one sorted event list, two events per stamp, adds a stamp to the
    active set at its clipped ``t_lo`` and drops it after its ``t_hi``. A
    layer whose active set equals that of one of the last two distinct
    layers before it (a run of equal layers counts once) yields that
    layer's value again, and only a new set is overlaid. An injection
    vertex (one layer) or a cap or pin box (three layers) breaks into a set
    and then restores it, and the restored set is still one of those two,
    so a set rarely needs a second overlay. An overlay expands its active
    stamps, latest first, into site keys ``i * width + j``, a run of
    consecutive keys per stamp row (``np.repeat``), which sort in (i, j)
    order. Each key carries its stamp's rank in that order in its low bits,
    so one sort of the packed values puts the latest stamp first among the
    keys of one site, as a stable argsort of the keys would, without the
    gather that follows one. The first of each run of equal keys is the
    site's mark: a later stamp wins over an earlier one on shared sites.
    """
    i_max, j_max, t_max = extent
    width = j_max + 1
    box = np.array([stamp[:6] for stamp in stamps], dtype=np.int64).reshape(-1, 6)
    code = {basis: k for k, basis in enumerate(BASES)}
    basis = np.array([code[stamp[6]] for stamp in stamps], dtype=np.int8)
    t_lo, t_hi = np.maximum(box[:, 0], 1), np.minimum(box[:, 1], t_max - 1)
    i_lo, i_hi = np.maximum(box[:, 2], 0), np.minimum(box[:, 3], i_max)
    j_lo, j_hi = np.maximum(box[:, 4], 0), np.minimum(box[:, 5], j_max)
    keep = (t_lo <= t_hi) & (i_lo <= i_hi) & (j_lo <= j_hi)
    t_lo, t_hi, i_lo, i_hi, j_lo, j_hi, basis = (
        column[keep] for column in (t_lo, t_hi, i_lo, i_hi, j_lo, j_hi, basis))
    rows, cols = i_hi - i_lo + 1, j_hi - j_lo + 1
    # (t, 1, k) adds stamp k at t and (t, 0, k) drops it there, one past its t_hi
    events = [(t, 1, k) for k, t in enumerate(t_lo.tolist())]
    events += [(t, 0, k) for k, t in enumerate((t_hi + 1).tolist())]
    events.sort(reverse=True)

    def overlay(active: set[int]) -> Marks:
        latest_first = np.sort(np.fromiter(active, np.intp, len(active)))[::-1]
        # a site's value is its key shifted past its stamp's rank, 0 for the latest
        shift = len(active).bit_length()
        stamp_rows = rows[latest_first]
        row_rank = np.repeat(np.arange(len(active)), stamp_rows)
        row_stamp = latest_first[row_rank]
        row_cols = cols[row_stamp]
        row_keys = _runs(i_lo[latest_first], stamp_rows) * width + j_lo[row_stamp]
        values = np.sort(_runs(row_keys << shift | row_rank, row_cols, 1 << shift))
        keys = values >> shift
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        i, j = np.divmod(keys[first], width)
        return Marks(i, j, basis[latest_first][values[first] & ((1 << shift) - 1)])

    active: set[int] = set()
    # The last two distinct layers, latest last, each with the stamps that
    # entered or left since it was active: a layer equals it when none did.
    recent: list[tuple[L, set[int]]] = []
    for t in range(1, t_max):
        while events and events[-1][0] == t:
            _, enters, k = events.pop()
            if enters:
                active.add(k)
            else:
                active.remove(k)
            for _, changed in recent:
                changed ^= {k}
        hit = next((entry for entry in recent if not entry[1]), None)
        if hit is None:
            hit = (layer(overlay(active)), set())
        recent = [entry for entry in recent if entry is not hit][-1:] + [hit]
        yield hit[0]


def slice_layers(geometry: Geometry, lattice_cells: tuple[int, int, int]) -> list[Layer]:
    """Slice a geometry into alternating primal (odd t) and dual (even t) layers.

    The marks of each layer are ``layer_marks``' default ``((i, j), basis)``
    pairs in (i, j) order, decoded from its arrays once per overlay: equal
    layers share one ``marked`` tuple, and layers that mark the same site
    in the same basis share its pair.
    """
    extent = (2 * lattice_cells[0], 2 * lattice_cells[1])
    return [Layer(t, layer_kind(t), extent, marked)
            for t, marked in enumerate(layer_marks(geometry, lattice_cells), 1)]


class Op(Enum):
    INIT = "init"
    ENTANGLE = "entangle"
    MEASURE = "measure"


@dataclass(frozen=True)
class Instruction:
    op: Op
    layers: tuple[int, ...]   # indices into the layer list


def execution_schedule(layers: list[Layer]) -> list[Instruction]:
    """``hardware_loop`` over ``layers``, after checking their primal/dual alternation."""
    for idx, layer in enumerate(layers):
        want = LayerKind.PRIMAL if idx % 2 == 0 else LayerKind.DUAL
        if layer.kind is not want:
            raise AnalysisError(f"layer {idx} must be {want.value}")
    return list(hardware_loop(len(layers)))


def hardware_loop(layer_count: int) -> Iterator[Instruction]:
    """Unrolled hardware loop: init/entangle/measure over alternating layers.

    Layer 0 is primal and the kinds alternate, so a loop needs an odd count;
    that is checked here, and the instructions are then yielded lazily.
    The stream follows the gradual-construction loop: bring up the first
    primal/dual pair, then repeatedly measure the primal layer, bring up
    the next one against the previous dual layer, measure that dual layer,
    and bring up the next dual layer, until the final primal measurement.
    """
    if layer_count < 1:
        raise AnalysisError("no layers to schedule")
    if layer_count % 2 == 0:
        raise AnalysisError("layer sequence must start and end with primal layers")
    return _loop(layer_count // 2)


def _loop(n: int) -> Iterator[Instruction]:
    """The loop over ``n`` dual layers and the ``n + 1`` primal ones around them."""
    if n == 0:
        yield Instruction(Op.INIT, (0,))
        yield Instruction(Op.MEASURE, (0,))
        return
    p = lambda k: 2 * k
    d = lambda k: 2 * k + 1
    yield Instruction(Op.INIT, (p(0),))
    yield Instruction(Op.INIT, (d(0),))
    yield Instruction(Op.ENTANGLE, (p(0), d(0)))
    for i in range(n):
        yield Instruction(Op.MEASURE, (p(i),))
        yield Instruction(Op.INIT, (p(i + 1),))
        yield Instruction(Op.ENTANGLE, (p(i + 1), d(i)))
        yield Instruction(Op.MEASURE, (d(i),))
        if i + 1 < n:
            yield Instruction(Op.INIT, (d(i + 1),))
            yield Instruction(Op.ENTANGLE, (d(i + 1), p(i + 1)))
    yield Instruction(Op.MEASURE, (p(n),))
