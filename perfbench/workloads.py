"""The benchmark's workloads: seeded inputs, timed operations, checks, replay.

Every workload drives tqecsynth through its public API in the current
process: CLI subcommands through ``tqecsynth.cli.main`` and the oracle
through ``tqecsynth.sim.check_equivalence``. Gate counts per kind are fixed;
the seed picks only gate order, qubits and the distillation-failure RNG, so
the amount of work does not depend on the seed.

The traced replay times the stages that run inside ``run_pipeline`` by
calling their public functions on inputs recovered from the
``PipelineResult``, and insists that each replayed stage reproduces the
pipeline's own output. Layers that a workload's own operations do not reach
(slicing and the CLI writer, documents, the oracle) are measured in the same
traced run on a small probe circuit, so that every traced run reports every
per-layer metric.
"""
from __future__ import annotations

import hashlib
import io
import json
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tqecsynth import analysis, cli, document, pipeline, scheduling, sim
from tqecsynth.circuit import InitBasis, parse_circuit, validate_circuit
from tqecsynth.decompose import decompose_gates
from tqecsynth.geometry import (
    Coord, SegmentKind, generate_geometry, segment_overlaps, validate_parity,
)
from tqecsynth.icm import to_icm
from tqecsynth.matrix import to_matrix

import checks
from tracing import NullTracer

# Binomial spare sizing with a 1e-6 exhaustion bound per box type, so that no
# seed's run ends in distillation exhaustion (exit code 3).
SPARE_EPSILON = "1e-6"

# Same text as circuits/toffoli.tq, the README's reference Toffoli run.
REFERENCE_TOFFOLI = "# Toffoli via the seven-T network\nqubits 3\ntoffoli 0 1 2\n"

# Metric -> span names whose durations it sums, per pass.
TIME_METRICS = {
    "circuit.parse_s": ("circuit.parse_circuit",),
    "decompose.s": ("decompose.decompose_gates",),
    "icm.s": ("icm.to_icm",),
    "matrix.s": ("matrix.to_matrix",),
    "geometry.generate_s": ("geometry.generate_geometry",),
    "geometry.parity_s": ("geometry.validate_parity",),
    "scheduling.spare_count_s": ("scheduling.spare_count",),
    "scheduling.place_s": ("scheduling.schedule_boxes", "scheduling.homogeneous_schedule"),
    "scheduling.failures_s": ("scheduling.simulate_failures",),
    "scheduling.route_s": ("scheduling.connect_pins",),
    "analysis.distance_s": ("analysis.min_code_distance",),
    "analysis.volume_s": ("analysis.volume_units",),
    "geometry.overlaps_s": ("geometry.segment_overlaps",),
    "analysis.slice_s": ("analysis.slice_layers",),
    "analysis.exec_schedule_s": ("analysis.execution_schedule",),
    "document.build_s": ("document.build_document",),
    "document.json_s": ("document.canonical_json",),
    "document.obj_s": ("document.export_obj",),
    "sim.check_s": ("sim.check_equivalence",),
    "pipeline.run_s": ("pipeline.run_pipeline",),
}

# The stages run_pipeline performs, in order; their replayed times should
# add up to pipeline.run_s.
PIPELINE_STAGES = (
    "circuit.parse_s", "decompose.s", "icm.s", "matrix.s", "geometry.generate_s",
    "geometry.parity_s", "scheduling.spare_count_s", "scheduling.place_s",
    "scheduling.failures_s", "scheduling.route_s", "analysis.distance_s",
    "analysis.volume_s",
)

# Per-layer metrics a probe supplies, by the layer group it exercises.
PROBE_METRICS = {
    "document": ("document.build_s", "document.json_s", "document.obj_s",
                 "document.json_bytes"),
    "slice": ("analysis.slice_s", "analysis.layers", "analysis.marked_sites",
              "analysis.exec_schedule_s", "cli.slice_write_s", "cli.jsonl_bytes",
              "cli.instructions"),
    "sim": ("sim.check_s", "sim.branches", "sim.rows", "sim.max_infidelity"),
}

# Gate kinds of a probe circuit and of each verify-oracle circuit (before the
# T or T-dagger): 11 ICM rows, 9 measurements, 512 exhaustive branches.
SMALL_KINDS = ["p", "pdg", "v", "vdg", "cnot", "cnot"]

UNTRACED = NullTracer()


class CheckFailed(RuntimeError):
    """A replayed stage or a known-answer control disagreed with its reference."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class PassResult:
    """One pass over a workload's operations."""

    wall_s: float = 0.0
    wall_rel: float = 0.0     # wall_s relative to the speed reference (speedref)
    out_bytes: int = 0
    ops: list[str] = field(default_factory=list)
    failed: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def attempt(self, label: str, fn):
        """Run one operation; an exception marks it failed."""
        self.ops.append(label)
        try:
            return fn()
        except (Exception, SystemExit) as exc:   # SystemExit: argparse rejected argv
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, label: str, message: str) -> None:
        self.failed.setdefault(label, message)


def call_cli(argv: list[str], tracer, op: int) -> tuple[int, bytes]:
    """Run ``tqecsynth.cli.main`` in-process; return its exit code and stdout bytes."""
    buf = io.BytesIO()
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(buf, encoding="ascii", write_through=True)
    try:
        with tracer.span("cli.main", op):
            code = cli.main(argv)
        sys.stdout.flush()
        return code, buf.getvalue()
    finally:
        sys.stdout = saved


def _cli_ok(pass_: PassResult, label: str, argv: list[str], tracer, op: int) -> bytes | None:
    got = pass_.attempt(label, lambda: call_cli(argv, tracer, op))
    if got is None:
        return None
    code, out = got
    if code != 0:
        pass_.fail(label, f"exit code {code}")
        return None
    return out


def _warm_up(fn) -> None:
    """Run a warm-up call; the timed passes, not the warm-up, judge the outcome."""
    PassResult().attempt("warm-up", fn)


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def toffoli_source(rng: random.Random, count: int, qubits: int) -> str:
    lines = [f"qubits {qubits}"]
    for _ in range(count):
        lines.append("toffoli {} {} {}".format(*rng.sample(range(qubits), 3)))
    return "\n".join(lines) + "\n"


def gate_list_source(rng: random.Random, qubits: int, kinds: list[str]) -> str:
    """A shuffled gate list with the given kind multiset on random qubits."""
    kinds = list(kinds)
    rng.shuffle(kinds)
    lines = [f"qubits {qubits}"]
    for kind in kinds:
        if kind == "cnot":
            lines.append("cnot {} {}".format(*rng.sample(range(qubits), 2)))
        else:
            lines.append(f"{kind} {rng.randrange(qubits)}")
    return "\n".join(lines) + "\n"


def replay_pipeline(tracer, op: int, source: str,
                    config: pipeline.PipelineConfig) -> tuple[pipeline.PipelineResult, dict]:
    """Run run_pipeline, then each of its stages on inputs recovered from its result."""
    with tracer.span("pipeline.run_pipeline", op):
        result = pipeline.run_pipeline(source, config)

    with tracer.span("circuit.parse_circuit", op):
        circ = parse_circuit(source)
        diags = validate_circuit(circ)
    _require(not diags, "replayed circuit fails validation")
    with tracer.span("decompose.decompose_gates", op):
        native = decompose_gates(circ)
    with tracer.span("icm.to_icm", op):
        conv = to_icm(native)
    with tracer.span("matrix.to_matrix", op):
        matrix = to_matrix(conv.circuit)
    _require(matrix == result.matrix, "replayed matrix differs")

    layout = result.geometry.layout
    with tracer.span("geometry.generate_geometry", op):
        geometry = generate_geometry(matrix, layout)
    with tracer.span("geometry.validate_parity", op):
        parity = validate_parity(geometry)
    _require(not parity and geometry.defects == result.geometry.defects,
             "replayed geometry differs")

    dims = config.box_dims
    pairs = [scheduling.PinPairReq(inj.state, inj.pins[0].coord.j, inj.pins)
             for inj in geometry.injections]
    pairs_by_state: dict[InitBasis, list] = {}
    for pair in pairs:
        pairs_by_state.setdefault(pair.state, []).append(pair)
    with tracer.span("scheduling.spare_count", op):
        for state, needed in pairs_by_state.items():
            scheduling.spare_count(len(needed), config.success_rate, config.spares.epsilon)

    connections = []
    if pairs:
        face_t = layout.t_in - 2
        region = scheduling.Region(fill=config.fill)
        with tracer.span("scheduling.schedule_boxes", op):
            hetero = scheduling.schedule_boxes(pairs, dims, region, face_t)
        rows = []
        with tracer.span("scheduling.homogeneous_schedule", op):
            for spare_row in result.schedules[1:]:
                first = spare_row.boxes[0]
                rows.append(scheduling.homogeneous_schedule(
                    len(spare_row.boxes), first.state, first.origin.j, dims,
                    region=region, face_t=face_t))
        placed = hetero.boxes + [b for row in rows for b in row.boxes]
        _require([b.origin for b in placed] == [b.origin for b in result.geometry.boxes],
                 "replayed box placement differs")

        queues = {}
        for state in (InitBasis.A, InitBasis.Y):
            queue = [b for b in hetero.boxes if b.state is state]
            queue += [b for row in rows for b in row.boxes if b.state is state]
            if queue:
                queues[state] = queue
        rng = np.random.default_rng(config.seed)
        with tracer.span("scheduling.simulate_failures", op):
            failure = scheduling.simulate_failures(
                queues, config.success_rate, pairs_by_state, rng, seed=config.seed)
        with tracer.span("scheduling.connect_pins", op):
            connections = scheduling.connect_pins(failure.assignments)
        _require([c.segments for c in connections] == [c.segments for c in result.connections],
                 "replayed routing differs")

    with tracer.span("analysis.min_code_distance", op):
        distance = analysis.min_code_distance(result.geometry)
    with tracer.span("analysis.volume_units", op):
        volume = analysis.volume_units(result.geometry, config.cube_side)
    _require(distance == result.distance and volume == result.volume,
             "replayed distance or volume differs")

    final = result.geometry
    defects = list(final.defects) + list(final.connections)
    seg_pairs = 0
    per_kind: dict[SegmentKind, list[int]] = {}
    for d in defects:
        per_kind.setdefault(d.kind, []).append(len(d.segments))
    for sizes in per_kind.values():
        total = sum(sizes)
        seg_pairs += (total * total - sum(n * n for n in sizes)) // 2
    statuses = [b.status for b in final.boxes]
    succeeded = sum(1 for s in statuses if s is scheduling.BoxStatus.SUCCESS)
    tried = succeeded + sum(1 for s in statuses if s is scheduling.BoxStatus.FAILED)
    counts = {
        "icm.rows": conv.circuit.qubit_count,
        "icm.cnots": len(conv.circuit.gates),
        "icm.templates": len(conv.instances),
        "geometry.segments": len(final.segments),
        "geometry.defects": len(defects),
        "scheduling.boxes": len(final.boxes),
        "scheduling.spares": sum(1 for b in final.boxes if b.spare),
        "scheduling.succeeded": succeeded,
        "scheduling.attempted": tried,
        "scheduling.route_segments": sum(len(c.segments) for c in connections),
        "analysis.segment_pairs": seg_pairs,
        "analysis.code_distance": distance.code_distance,
    }
    return result, counts


def overlap_conflicts(tracer, op: int, geometry) -> int:
    """Same-kind segment touches, not counting single-point joins at a pin."""
    with tracer.span("geometry.segment_overlaps", op):
        touching = segment_overlaps(geometry)
    pins = {p.coord for p in geometry.pins}
    conflicts = 0
    for a, b in touching:
        lo = [max(a.interval(ax)[0], b.interval(ax)[0]) for ax in "ijt"]
        hi = [min(a.interval(ax)[1], b.interval(ax)[1]) for ax in "ijt"]
        if lo == hi and Coord(*lo) in pins:
            continue
        conflicts += 1
    return conflicts


def merge_counts(items: list[dict]) -> dict:
    """Sum counts over a pass's circuits; code distance is the minimum."""
    out: dict = {}
    for counts in items:
        for key, value in counts.items():
            if key == "analysis.code_distance":
                out[key] = min(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(totals: dict[str, float], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its span totals and counts."""
    out: dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        if any(name in totals for name in names):
            out[metric] = sum(totals.get(name, 0.0) for name in names)
    if "pipeline.run_s" in out:
        out["pipeline.unaccounted_s"] = out["pipeline.run_s"] - sum(
            out[m] for m in PIPELINE_STAGES if m in out)
    if "analysis.slice_s" in out:
        out["cli.slice_write_s"] = totals["cli.main"] - (
            out["pipeline.run_s"] + out["analysis.slice_s"] + out["analysis.exec_schedule_s"])
    counts = dict(counts)
    succeeded = counts.pop("scheduling.succeeded", None)
    tried = counts.pop("scheduling.attempted", None)
    if tried:
        out["scheduling.box_yield"] = succeeded / tried
    out.update(counts)
    return out


class Workload:
    """One workload: its inputs, one timed pass, output checks, traced replay."""

    name = ""
    rate = "1.0"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        # The CLI's --seed must be a non-negative integer.
        self.cli_seed = seed % 2**32
        self.tmp = tmp
        self.rng = random.Random(seed)
        self.volume: int | None = None
        self._op = 0

    def next_op(self) -> int:
        self._op += 1
        return self._op

    def config(self) -> pipeline.PipelineConfig:
        """The PipelineConfig the CLI builds from this workload's flags."""
        return pipeline.PipelineConfig(
            success_rate=float(self.rate), seed=self.cli_seed,
            spares=pipeline.SparePolicy("binomial", epsilon=float(SPARE_EPSILON)))

    def pipeline_flags(self) -> list[str]:
        return ["--success-rate", self.rate, "--seed", str(self.cli_seed),
                "--spare-epsilon", SPARE_EPSILON]

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError

    def check_outputs(self, first: PassResult) -> None:
        """Full output checks on the first pass; failures are recorded on it."""

    def replay(self, tracer, op: int) -> dict:
        raise NotImplementedError

    # Layer groups of PROBE_METRICS that this workload's operations do not use.
    probe_layers: tuple[str, ...] = ()

    def probe(self) -> "Probe":
        return Probe(self.seed, self.tmp, self.pipeline_flags(), self.config())

    def slice_source(self) -> str:
        """The circuit whose slicing analysis.slice_peak_mb measures."""
        return self.probe().source

    def peak_probe(self) -> dict[str, float]:
        """Metrics that need a fresh process of their own (traced runs only)."""
        result = pipeline.run_pipeline(self.slice_source(), self.config())
        cells = analysis.lattice_cells_for(result.geometry)
        before = peak_rss_mb()
        layers = analysis.slice_layers(result.geometry, cells)
        grown = peak_rss_mb() - before
        _require(len(layers) == 2 * cells[2] - 1, "probe layer count")
        return {"analysis.slice_peak_mb": grown}


class Probe:
    """A small seeded circuit run through the layers a workload does not use.

    Its outputs are checked like a workload's; its per-layer metrics fill
    only the names the workload's own replay leaves out.
    """

    def __init__(self, seed: int, tmp: Path, flags: list[str],
                 config: pipeline.PipelineConfig):
        rng = random.Random(f"probe-{seed}")
        self.source = gate_list_source(rng, 2, [rng.choice(["t", "tdg"]), *SMALL_KINDS])
        self.path = _write(tmp / "probe.tq", self.source)
        self.out = tmp / "probe.jsonl"
        self.seed = seed
        self.flags = flags
        self.config = config

    def run(self, tracer, op: int, layers: tuple[str, ...]) -> dict:
        """Run the probe through ``layers``; return its counts."""
        counts: dict = {}
        if "slice" in layers:
            code, _ = call_cli(["slice", str(self.path), *self.flags, "--out", str(self.out)],
                               tracer, op)
            _require(code == 0, f"probe slice exit code {code}")
        if "slice" in layers or "document" in layers:
            with tracer.span("pipeline.run_pipeline", op):
                result = pipeline.run_pipeline(self.source, self.config)
        if "slice" in layers:
            cells = analysis.lattice_cells_for(result.geometry)
            with tracer.span("analysis.slice_layers", op):
                layer_list = analysis.slice_layers(result.geometry, cells)
            with tracer.span("analysis.execution_schedule", op):
                stream = analysis.execution_schedule(layer_list)
            problems = checks.check_layer_stream(self.out, result.geometry, self.seed)
            _require(not problems, f"probe layer stream: {problems[:3]}")
            counts["analysis.layers"] = len(layer_list)
            counts["analysis.marked_sites"] = sum(len(layer.marked) for layer in layer_list)
            counts["cli.instructions"] = len(stream)
            counts["cli.jsonl_bytes"] = self.out.stat().st_size
        if "document" in layers:
            with tracer.span("document.build_document", op):
                doc = document.build_document(result)
            with tracer.span("document.canonical_json", op):
                data = document.canonical_json(doc)
            with tracer.span("document.export_obj", op):
                document.export_obj(result.geometry)
            problems = checks.check_document(json.loads(data))
            _require(not problems, f"probe document: {problems[:3]}")
            counts["document.json_bytes"] = len(data)
        if "sim" in layers:
            circ = parse_circuit(self.source)
            conv = to_icm(decompose_gates(circ))
            with tracer.span("sim.check_equivalence", op):
                infidelity = sim.check_equivalence(circ, conv, trials=1)
            _require(0.0 <= infidelity <= checks.ORACLE_TOLERANCE,
                     f"probe max infidelity {infidelity}")
            counts["sim.branches"] = 2 ** sim.measurement_count(conv)
            counts["sim.rows"] = conv.circuit.qubit_count
            counts["sim.max_infidelity"] = infidelity
        return counts


class SynthToffoli(Workload):
    name = "synth-toffoli"
    rate = "0.9"
    probe_layers = ("slice", "sim")

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.source = toffoli_source(self.rng, 4, 6)
        self.path = _write(tmp / "toffoli4.tq", self.source)
        self.out = tmp / "toffoli4"
        self.files = [tmp / "toffoli4.json", tmp / "toffoli4.obj"]

    def argv(self, path: Path, out: Path) -> list[str]:
        return ["synth", str(path), *self.pipeline_flags(), "--out", str(out),
                "--format", "json", "--format", "obj"]

    def warm_up(self) -> None:
        small = _write(self.tmp / "warm.tq", toffoli_source(random.Random(self.seed), 1, 3))
        _warm_up(lambda: call_cli(self.argv(small, self.tmp / "warm"), UNTRACED, 0))

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        start = time.perf_counter()
        _cli_ok(res, "synth", self.argv(self.path, self.out), tracer, self.next_op())
        res.wall_s = time.perf_counter() - start
        if "synth" not in res.failed:
            res.out_bytes = sum(f.stat().st_size for f in self.files)
            res.digests = {"synth": "".join(sha256_file(f) for f in self.files)}
        return res

    def check_outputs(self, first: PassResult) -> None:
        if "synth" in first.failed:
            return
        doc = json.loads(self.files[0].read_text(encoding="ascii"))
        for message in checks.check_document(doc):
            first.fail("synth", message)
        self.volume = doc["reports"]["volume"]["volume_units"]

    def replay(self, tracer, op: int) -> dict:
        result, counts = replay_pipeline(tracer, op, self.source, self.config())
        counts["geometry.overlap_conflicts"] = overlap_conflicts(tracer, op, result.geometry)
        with tracer.span("document.build_document", op):
            doc = document.build_document(result)
        with tracer.span("document.canonical_json", op):
            data = document.canonical_json(doc)
        with tracer.span("document.export_obj", op):
            document.export_obj(result.geometry)
        _require(hashlib.sha256(data).hexdigest() == sha256_file(self.files[0]),
                 "replayed document differs from the CLI's")
        counts["document.json_bytes"] = len(data)
        return counts


class SliceCliffordT(Workload):
    name = "slice-clifford-t"
    rate = "0.5"
    probe_layers = ("document", "sim")
    KINDS = ["cnot"] * 16 + ["t", "tdg"] * 4 + ["h"] * 4 + ["p", "pdg", "v", "vdg"] * 3

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.source = gate_list_source(self.rng, 8, self.KINDS)
        self.path = _write(tmp / "clifford_t.tq", self.source)
        self.out = tmp / "layers.jsonl"

    def argv(self, path: Path, out: Path) -> list[str]:
        return ["slice", str(path), *self.pipeline_flags(), "--out", str(out)]

    def warm_up(self) -> None:
        small = _write(self.tmp / "warm.tq", "qubits 2\nt 0\nh 1\ncnot 0 1\n")
        _warm_up(lambda: call_cli(self.argv(small, self.tmp / "warm.jsonl"), UNTRACED, 0))

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        start = time.perf_counter()
        _cli_ok(res, "slice", self.argv(self.path, self.out), tracer, self.next_op())
        res.wall_s = time.perf_counter() - start
        if "slice" not in res.failed:
            res.out_bytes = self.out.stat().st_size
            res.digests = {"slice": sha256_file(self.out)}
        return res

    def check_outputs(self, first: PassResult) -> None:
        if "slice" in first.failed:
            return
        result = pipeline.run_pipeline(self.source, self.config())
        for message in checks.check_layer_stream(self.out, result.geometry, self.seed):
            first.fail("slice", message)
        self.volume = result.volume.volume_units
        recomputed = checks.volume_from_points(checks.geometry_points(result.geometry), 1)
        if recomputed != self.volume:
            first.fail("slice", f"reported volume {self.volume} != recomputed {recomputed}")

    def replay(self, tracer, op: int) -> dict:
        result, counts = replay_pipeline(tracer, op, self.source, self.config())
        counts["geometry.overlap_conflicts"] = overlap_conflicts(tracer, op, result.geometry)
        cells = analysis.lattice_cells_for(result.geometry)
        with tracer.span("analysis.slice_layers", op):
            layers = analysis.slice_layers(result.geometry, cells)
        with tracer.span("analysis.execution_schedule", op):
            stream = analysis.execution_schedule(layers)
        counts["analysis.layers"] = len(layers)
        counts["analysis.marked_sites"] = sum(len(layer.marked) for layer in layers)
        counts["cli.instructions"] = len(stream)
        counts["cli.jsonl_bytes"] = self.out.stat().st_size
        return counts

    def slice_source(self) -> str:
        return self.source


class VerifyOracle(Workload):
    name = "verify-oracle"
    probe_layers = ("document", "slice")
    # Twelve circuits with one trial each cost what four with three trials
    # do, but their summed volume depends much less on the seed.
    TRIALS = 1
    CIRCUITS = 12

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.sources = []
        self.paths = []
        for k in range(self.CIRCUITS):
            t_kind = "t" if k % 2 == 0 else "tdg"
            src = gate_list_source(self.rng, 2, [t_kind, *SMALL_KINDS])
            self.sources.append(src)
            self.paths.append(_write(tmp / f"oracle{k}.tq", src))
        self.infidelities: list[float] = []

    def warm_up(self) -> None:
        small = _write(self.tmp / "warm.tq", "qubits 1\nt 0\n")
        _warm_up(lambda: call_cli(["verify", str(small)], UNTRACED, 0))
        _warm_up(lambda: call_cli(["metrics", str(small), "--seed", "0"], UNTRACED, 0))
        _warm_up(lambda: self._check("qubits 1\nt 0\n", UNTRACED, 0))

    def _check(self, source: str, tracer, op: int) -> float:
        circ = parse_circuit(source)
        conv = to_icm(decompose_gates(circ))
        with tracer.span("sim.check_equivalence", op):
            return sim.check_equivalence(circ, conv, trials=self.TRIALS)

    def run_pass(self, tracer) -> PassResult:
        res = PassResult()
        volumes = 0
        infidelities = []
        start = time.perf_counter()
        for k, (src, path) in enumerate(zip(self.sources, self.paths)):
            report = _cli_ok(res, f"verify{k}", ["verify", str(path)], tracer, self.next_op())
            if report is not None:
                res.out_bytes += len(report)
                res.digests[f"verify{k}"] = hashlib.sha256(report).hexdigest()
                for message in checks.check_oracle_report(json.loads(report)):
                    res.fail(f"verify{k}", message)
            value = res.attempt(f"check{k}", lambda: self._check(src, tracer, self.next_op()))
            if value is not None:
                infidelities.append(value)
                if not 0.0 <= value <= checks.ORACLE_TOLERANCE:
                    res.fail(f"check{k}", f"max infidelity {value}")
            argv = ["metrics", str(path), "--seed", str(self.cli_seed)]
            reports = _cli_ok(res, f"metrics{k}", argv, tracer, self.next_op())
            if reports is not None:
                res.out_bytes += len(reports)
                res.digests[f"metrics{k}"] = hashlib.sha256(reports).hexdigest()
                volumes += json.loads(reports)["volume"]["volume_units"]
        res.wall_s = time.perf_counter() - start
        self.volume = volumes
        self.infidelities = infidelities
        return res

    def replay(self, tracer, op: int) -> dict:
        items = []
        branches = 0
        rows = 0
        for src in self.sources:
            config = pipeline.PipelineConfig(seed=self.cli_seed)
            result, counts = replay_pipeline(tracer, op, src, config)
            counts["geometry.overlap_conflicts"] = overlap_conflicts(tracer, op, result.geometry)
            items.append(counts)
            conv = to_icm(decompose_gates(parse_circuit(src)))
            branches += self.TRIALS * 2 ** sim.measurement_count(conv)
            rows = max(rows, conv.circuit.qubit_count)
        counts = merge_counts(items)
        counts["sim.branches"] = branches
        counts["sim.rows"] = rows
        counts["sim.max_infidelity"] = max(self.infidelities)
        return counts


WORKLOADS = {w.name: w for w in (SynthToffoli, SliceCliffordT, VerifyOracle)}


def _reference_toffoli(tmp: Path) -> None:
    path = _write(tmp / "reference.tq", REFERENCE_TOFFOLI)
    out = tmp / "reference.json"
    argv = ["synth", str(path), "--success-rate", "0.8", "--spares-y", "12",
            "--spares-a", "8", "--seed", "53", "--out", str(out)]
    code, _ = call_cli(argv, UNTRACED, 0)
    _require(code == 0, f"exit code {code}")
    initial = [b for b in json.loads(out.read_text(encoding="ascii"))["boxes"] if not b["spare"]]
    got = {
        "initial_a": sum(1 for b in initial if b["state"] == "a"),
        "initial_y": sum(1 for b in initial if b["state"] == "y"),
        "failed_a": sum(1 for b in initial if b["state"] == "a" and b["status"] == "failed"),
        "failed_y": sum(1 for b in initial if b["state"] == "y" and b["status"] == "failed"),
    }
    want = {"initial_a": 7, "initial_y": 14, "failed_a": 3, "failed_y": 4}
    _require(got == want, f"got {got}, want {want}")


def _t_swap_rejected(seed: int) -> None:
    source = gate_list_source(random.Random(seed), 2, ["t", "p", "v", "cnot"])
    swapped = source.replace("\nt ", "\ntdg ")
    wrong = to_icm(decompose_gates(parse_circuit(swapped)))
    infidelity = sim.check_equivalence(parse_circuit(source), wrong, trials=1)
    _require(infidelity > checks.ORACLE_TOLERANCE,
             f"T->Tdg conversion accepted (infidelity {infidelity})")


def run_controls(tmp: Path, seed: int) -> PassResult:
    """Known-answer controls, run once per benchmark run."""
    res = PassResult()
    res.attempt("reference-toffoli", lambda: _reference_toffoli(tmp))
    res.attempt("t-swap-rejected", lambda: _t_swap_rejected(seed))
    return res
