"""Command line front end: synth, verify, metrics, and slice subcommands.

Exit codes: 0 success, 2 parse/validation error or unreadable input, 3
distillation exhaustion, 4 verification failure. ``main`` maps every error
to its exit code in one place.

The pipeline settings of synth, metrics and slice are declared once, in
``_SETTINGS``: their flags and the config-file check are built from it, and
an unset setting keeps its ``PipelineConfig`` or ``SparePolicy`` default.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .analysis import (
    BASES, AnalysisError, BBox, Marks, Op, hardware_loop, lattice_cells, layer_kind, layer_marks,
)
from .circuit import Gate, GateKind, InitBasis, ParseError, circuit as make_circuit
from .decompose import toffoli_sequence
from .document import FORMATS, JSON_FORMAT, canonical_json, document_pieces, export, reports
from .geometry import Geometry, collector_paused
from .icm import to_icm
from .pipeline import PipelineConfig, PipelineError, SparePolicy, icm_conversion, run_pipeline
from .scheduling import (
    MAX_SPARES, BoxDim, DistillationExhausted, SchedulingError, default_box_dims,
)
from .sim import H_MATRIX, TOFFOLI_MATRIX, check_equivalence, gate_matrix, to_unitary

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SYNTH = 3
EXIT_VERIFY = 4

DEFAULT_TOLERANCE = 1e-10


# The pipeline settings by config-file key; a key's flag is the key with
# dashes. Per key: the flag's type, what a config file must give it (named
# in errors, and the JSON types that pass) and the flag's help text.
_SPARE_COUNT_HELP = (f"{{}} spare boxes, 0 to {MAX_SPARES}; either explicit count replaces the "
                     f"binomial sizing and leaves the other at {SparePolicy.y_count} "
                     "(default: the binomial count for the spare epsilon)")
_SETTINGS = {
    "success_rate": (float, "a number", (int, float),
                     "success probability of one distillation box, in [0, 1] "
                     f"(default {PipelineConfig.success_rate})"),
    "seed": (int, "an integer", (int,),
             "seed of the failure simulation, a non-negative integer "
             f"(default: TQEC_SEED if set, else {PipelineConfig.seed})"),
    "spares_y": (int, "an integer", (int,), _SPARE_COUNT_HELP.format("Y")),
    "spares_a": (int, "an integer", (int,), _SPARE_COUNT_HELP.format("A")),
    "spare_epsilon": (float, "a number", (int, float),
                      "failure bound of the binomial spare count, in [0, 1] "
                      f"(default {SparePolicy.epsilon}); ignored with explicit counts"),
    "distance": (int, "an integer", (int,), "cube side d for volume metrics"),
    "box_dims": (str, "a path string", (str,), "JSON file with box spans"),
}


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("source", help="circuit source file")
    sub.add_argument("--config", help="JSON config file (flags take precedence)")
    for key, (flag_type, _, _, help_text) in _SETTINGS.items():
        sub.add_argument("--" + key.replace("_", "-"), type=flag_type, help=help_text)


_BOX_STATES = {s.value: s for s in (InitBasis.A, InitBasis.Y)}


def _load_box_dims(path: str) -> dict[InitBasis, BoxDim]:
    if "\0" in path:
        raise SchedulingError(f"box dims path {path!r} holds a NUL character")
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SchedulingError("box dims must be a JSON object of box type to spans")
    dims = {}
    for key, spans in raw.items():
        state = _BOX_STATES.get(key.lower())
        if state is None:
            raise SchedulingError(f"unknown box type {key!r} in box dims (expected a or y)")
        if not (isinstance(spans, list) and len(spans) == 3
                and all(type(v) is int for v in spans)):
            raise SchedulingError(
                f"box dims for {key!r} must be three integer spans [i, j, t], got {spans!r}")
        dims[state] = BoxDim(state, *spans)
    return dims


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """The pipeline config ``args`` sets: each setting from its flag, else the
    ``--config`` file, else (the seed only) ``TQEC_SEED``, else its default.
    Explicit spare counts select the explicit policy, which ignores
    ``spare_epsilon``."""
    settings: dict = {}
    if args.config is not None:   # an empty path is opened too, and fails
        with open(args.config, "r", encoding="utf-8") as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise PipelineError("config file must hold a JSON object")
        for key, value in settings.items():
            if key not in _SETTINGS:
                raise PipelineError(f"unknown config key {key!r}")
            _, what, types, _ = _SETTINGS[key]
            if type(value) not in types:
                raise PipelineError(f"config key {key!r} must be {what}, got {value!r}")
    settings.update((key, getattr(args, key)) for key in _SETTINGS
                    if getattr(args, key) is not None)
    if "seed" not in settings and "TQEC_SEED" in os.environ:
        env_seed = os.environ["TQEC_SEED"]
        try:
            settings["seed"] = int(env_seed)
        except ValueError:
            raise PipelineError(f"TQEC_SEED must be an integer, got {env_seed!r}") from None

    def given(**fields: str) -> dict:   # dataclass field -> its setting's key
        return {name: settings[key] for name, key in fields.items() if key in settings}

    counts = given(y_count="spares_y", a_count="spares_a")
    spares = (SparePolicy("explicit", **counts) if counts
              else SparePolicy(**given(epsilon="spare_epsilon")))
    config = given(success_rate="success_rate", seed="seed", cube_side="distance")
    if "box_dims" in settings:
        config["box_dims"] = default_box_dims() | _load_box_dims(settings["box_dims"])
    return PipelineConfig(spares=spares, **config)


def _read_source(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


@contextlib.contextmanager
def _output(out: str | None):
    """Binary handle for ``out``: stdout when unset or '-', else the file (opening '' fails)."""
    if out is None or out == "-":
        yield sys.stdout.buffer
    else:
        with open(out, "wb") as fh:
            yield fh


def cmd_synth(args: argparse.Namespace) -> int:
    result = run_pipeline(_read_source(args.source), build_config(args))
    formats = args.format or ["json"]
    out = args.out
    for fmt in formats:
        # '-' is stdout and '' is refused, with one format or several
        path = out if out in (None, "-", "") or len(formats) == 1 else f"{out}.{fmt}"
        with _output(path) as fh:
            if fmt == JSON_FORMAT:
                _write_runs(fh, document_pieces(result))
            else:
                fh.write(export(result, fmt))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise PipelineError("seed must be a non-negative integer")
    if args.trials < 1:
        raise PipelineError("trials must be a positive integer")
    if not 0 <= args.tolerance < math.inf:
        raise PipelineError("tolerance must be a finite non-negative number")
    circ, conv = icm_conversion(_read_source(args.source))
    tol = args.tolerance
    per_kind: dict[GateKind, float] = {}
    for inst in conv.instances:
        if inst.kind not in per_kind:
            plain = make_circuit(1, [Gate(inst.kind, (0,))])
            per_kind[inst.kind] = check_equivalence(
                plain, to_icm(plain), trials=args.trials, seed=args.seed)
    identities: dict[str, float] = {}
    kinds = {g.kind for g in circ.gates}
    if GateKind.H in kinds:
        pvp = gate_matrix(GateKind.P) @ gate_matrix(GateKind.V) @ gate_matrix(GateKind.P)
        identities["h_equals_pvp"] = float(np.max(np.abs(pvp - H_MATRIX)))
    if GateKind.TOFFOLI in kinds:
        u = to_unitary(make_circuit(3, toffoli_sequence(0, 1, 2)))
        fid = abs(np.trace(TOFFOLI_MATRIX.conj().T @ u)) / 8
        identities["toffoli_sequence"] = float(1 - fid ** 2)

    instances = [
        {"gate": inst.kind.value, "qubit": inst.qubit,
         "max_infidelity": per_kind[inst.kind]}
        for inst in conv.instances
    ]
    worst = max(
        [rec["max_infidelity"] for rec in instances] + list(identities.values()),
        default=0.0,
    )
    report = {
        "instances": instances,
        "identities": identities,
        "max_infidelity": worst,
        "tolerance": tol,
        "pass": worst <= tol,
    }
    sys.stdout.buffer.write(canonical_json(report))
    return EXIT_OK if worst <= tol else EXIT_VERIFY


def cmd_metrics(args: argparse.Namespace) -> int:
    result = run_pipeline(_read_source(args.source), build_config(args))
    sys.stdout.buffer.write(canonical_json(reports(result)))
    return EXIT_OK


# Version of the slice stream, carried by its first record.
STREAM_VERSION = 2


# Marks per encoded chunk of a layer's payload: however many marks a layer
# holds, the encoder's scratch arrays stay a few hundred kB.
CHUNK_MARKS = 1 << 14


def _byte_rows(texts: list[bytes]) -> np.ndarray:
    """``texts`` as the rows of a byte array, each padded with zero bytes."""
    width = max(map(len, texts))
    return np.frombuffer(b"".join(text.ljust(width, b"\0") for text in texts),
                         np.uint8).reshape(len(texts), width)


class _PieceTable:
    """The bytes ``fmt % k``, k = 0, 1, ..., as the rows of ``_byte_rows``.

    The table grows, to at least twice its size, when a coordinate past its
    end is asked for, so it spans at most twice the largest coordinate the
    marks reach: one past the geometry's bounding box, not the lattice.
    """

    def __init__(self, fmt: bytes) -> None:
        self.fmt = fmt
        self.rows = _byte_rows([fmt % 0])

    def reach(self, top: int) -> np.ndarray:
        """The table, grown to hold row ``top``."""
        if top >= len(self.rows):
            self.rows = _byte_rows([self.fmt % k
                                    for k in range(max(top + 1, 2 * len(self.rows)))])
        return self.rows


def _payload_encoder() -> Callable[[Marks], tuple[bytes, ...]]:
    """A ``layer`` function for ``layer_marks``: a layer's marks as the
    ``json.dumps`` bytes ``[i,j,"basis"]`` joined by commas, in chunks.

    Each mark is gathered from three piece tables, ``[i,``, ``j,"`` and
    ``basis"],``, into one zero-padded row; a chunk of ``CHUNK_MARKS`` rows
    goes out as their bytes with the padding dropped, and the last chunk
    without its final comma.
    """
    i_pieces, j_pieces = _PieceTable(b"[%d,"), _PieceTable(b'%d,"')
    basis_pieces = _byte_rows([b'%s"],' % basis.value.encode("ascii") for basis in BASES])

    def encode(marks: Marks) -> tuple[bytes, ...]:
        if not marks.i.size:
            return ()
        i_rows = i_pieces.reach(int(marks.i[-1]))      # the marks run in (i, j) order
        j_rows = j_pieces.reach(int(marks.j.max()))
        chunks = []
        for k in range(0, marks.i.size, CHUNK_MARKS):
            part = slice(k, k + CHUNK_MARKS)
            rows = np.concatenate((i_rows.take(marks.i[part], axis=0),
                                   j_rows.take(marks.j[part], axis=0),
                                   basis_pieces.take(marks.basis[part], axis=0)), axis=1)
            chunks.append(rows.tobytes().translate(None, b"\0"))
        chunks[-1] = chunks[-1][:-1]
        return tuple(chunks)

    return encode


def slice_lines(geometry: Geometry, cells: tuple[int, int, int],
                bbox: BBox | None = None) -> Iterator[bytes]:
    """The slice stream of ``geometry`` on a lattice of ``cells``, as byte pieces.

    The concatenated pieces are the stream: one JSON line per instruction,
    each holding the bytes ``json.dumps`` gives with sorted keys and
    compact separators. The first line also carries ``"stream_version"``.
    Each layer is written in full once, in the ``init`` that brings it up
    (the first instruction that names it), and as ``{"index":n}`` in every
    other one. The lattice is checked against ``bbox`` (see
    ``layer_marks``), and the stamps set up, before this returns.
    ``layer_marks`` runs ``_payload_encoder`` once per distinct active set,
    and the layers equal to it share the payload chunks it makes.
    Instructions are yielded piece by piece, so a payload is never copied
    into a line; ``cmd_slice`` copies each piece once, into its write
    buffer.
    """
    payloads = layer_marks(geometry, cells, bbox, layer=_payload_encoder())
    head = b'{"default_basis":"x","extent":[%d,%d],' % (2 * cells[0], 2 * cells[1])
    layers = ((head + b'"index":%d,"kind":"%s","marked":[' % (
                  t - 1, layer_kind(t).value.encode("ascii")), *payload, b'],"t":%d}' % t)
              for t, payload in enumerate(payloads, 1))
    return _instruction_pieces(layers, 2 * cells[2] - 1)


def _instruction_pieces(layers: Iterator[tuple[bytes, ...]],
                        count: int) -> Iterator[bytes]:
    # hardware_loop brings each layer up with one init, which names that
    # layer alone and is the first instruction to name it, and the inits
    # come in index order: each init writes the next of ``layers`` in full,
    # and every other instruction names its layers as their indices.
    version = b',"stream_version":%d' % STREAM_VERSION
    for ins in hardware_loop(count):
        yield b'{"layers":['
        if ins.op is Op.INIT:
            yield from next(layers)
        else:
            yield b",".join(b'{"index":%d}' % idx for idx in ins.layers)
        yield b'],"op":"' + ins.op.value.encode("ascii") + b'"' + version + b'}\n'
        version = b""


# Bytes the slice stream and the JSON document gather before each write.
# Their pieces run from a few bytes to a layer's whole payload or a matrix
# row, and one write call per piece costs more than copying them into one
# buffer.
WRITE_BYTES = 1 << 20


def _write_runs(fh: BinaryIO, pieces: Iterator[bytes], size: int = WRITE_BYTES) -> None:
    """Write the concatenated ``pieces`` to ``fh`` in runs of ``size`` bytes.

    The pieces are copied into one buffer, allocated once, and every write
    but the last hands over the whole buffer; a piece that reaches past its
    end is split across runs.
    """
    buf = memoryview(bytearray(size))
    held = 0
    for piece in pieces:
        end = held + len(piece)
        if end < size:   # most pieces: copied without a memoryview of their own
            buf[held:end] = piece
            held = end
            continue
        rest = memoryview(piece)
        while held + len(rest) >= size:
            take = size - held
            buf[held:] = rest[:take]
            fh.write(buf)
            rest, held = rest[take:], 0
        held = len(rest)
        buf[:held] = rest
    if held:
        fh.write(buf[:held])


def cmd_slice(args: argparse.Namespace) -> int:
    result = run_pipeline(_read_source(args.source), build_config(args))
    cells = tuple(args.cells) if args.cells else lattice_cells(result.bbox)
    pieces = slice_lines(result.geometry, cells, result.bbox)
    with _output(args.out) as fh:
        _write_runs(fh, pieces)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only parses."""
    parser = argparse.ArgumentParser(prog="tqecsynth")
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="synthesise a geometry document")
    _add_config_flags(synth)
    synth.add_argument("--out", help="output path ('-' for stdout)")
    synth.add_argument("--format", action="append", choices=FORMATS,
                       help="output format (repeatable; default json)")
    synth.set_defaults(func=cmd_synth)

    verify = subs.add_parser("verify", help="oracle checks for every template used")
    verify.add_argument("source")
    verify.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    verify.add_argument("--trials", type=int, default=4)
    verify.add_argument("--seed", type=int, default=7)
    verify.set_defaults(func=cmd_verify)

    metrics = subs.add_parser("metrics", help="distance/volume/bbox reports")
    _add_config_flags(metrics)
    metrics.set_defaults(func=cmd_metrics)

    slice_cmd = subs.add_parser("slice", help="layer stream as JSON lines")
    _add_config_flags(slice_cmd)
    slice_cmd.add_argument("--cells", type=int, nargs=3,
                           metavar=("I", "J", "T"), help="lattice extent in cells")
    slice_cmd.add_argument("--out", help="output path ('-' for stdout)")
    slice_cmd.set_defaults(func=cmd_slice)
    return parser


@collector_paused()
def main(argv: list[str] | None = None) -> int:
    """Run one command; the cyclic garbage collector stays paused until it returns."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, PipelineError, SchedulingError, AnalysisError, OSError,
            json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DistillationExhausted as exc:
        report = {"error": "distillation-exhausted", "detail": str(exc)}
        sys.stdout.buffer.write(canonical_json(report))
        return EXIT_SYNTH


if __name__ == "__main__":
    sys.exit(main())
