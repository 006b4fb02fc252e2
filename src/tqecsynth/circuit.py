"""Gate-list circuit representation, text parser, and structural validation.

Circuits are immutable after construction. The text format is line oriented:
one statement per line, ``#`` starts a comment, and the first statement must
be ``qubits N``. Remaining statements are ``init``, ``measure`` and gate
applications (see :func:`parse_circuit`).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class GateKind(Enum):
    CNOT = "cnot"
    T = "t"
    TDG = "tdg"
    P = "p"
    PDG = "pdg"
    V = "v"
    VDG = "vdg"
    H = "h"
    TOFFOLI = "toffoli"


#: Gate kinds natively supported by the target architecture.
NATIVE_KINDS = frozenset(
    {GateKind.CNOT, GateKind.T, GateKind.TDG, GateKind.P,
     GateKind.PDG, GateKind.V, GateKind.VDG}
)

_ARITY = {
    GateKind.CNOT: 2,
    GateKind.TOFFOLI: 3,
}


@dataclass(frozen=True)
class Gate:
    """One gate application: a kind plus the qubit indices it acts on."""

    kind: GateKind
    qubits: tuple[int, ...]

    def __post_init__(self) -> None:
        want = _ARITY.get(self.kind, 1)
        if len(self.qubits) != want:
            raise ValueError(f"{self.kind.value} expects {want} qubit(s), got {self.qubits}")

    @property
    def control(self) -> int:
        if self.kind is not GateKind.CNOT:
            raise ValueError("control is only defined for CNOT")
        return self.qubits[0]

    @property
    def target(self) -> int:
        if self.kind not in (GateKind.CNOT, GateKind.TOFFOLI):
            raise ValueError("target is only defined for CNOT/TOFFOLI")
        return self.qubits[-1]


def cnot(control: int, target: int) -> Gate:
    return Gate(GateKind.CNOT, (control, target))


def toffoli(c1: int, c2: int, target: int) -> Gate:
    return Gate(GateKind.TOFFOLI, (c1, c2, target))


class InitBasis(Enum):
    ZERO = "zero"
    PLUS = "plus"
    Y = "y"          # injected |Y> = (|0> + i|1>)/sqrt(2)
    A = "a"          # injected |A> = (|0> + e^{i pi/4}|1>)/sqrt(2)
    OPEN = "open"    # configurable circuit input

    @property
    def is_injection(self) -> bool:
        return self in (InitBasis.Y, InitBasis.A)


class MeasBasis(Enum):
    Z = "z"
    X = "x"
    OPEN = "open"    # configurable circuit output (unmeasured)


@dataclass(frozen=True)
class Circuit:
    """A qubit circuit: per-qubit init/measurement bases and an ordered gate list.

    ``icm`` marks circuits in initialisation/CNOT/measurement form; such
    circuits may contain CNOT gates only.
    """

    qubit_count: int
    inits: tuple[InitBasis, ...]
    gates: tuple[Gate, ...]
    meas: tuple[MeasBasis, ...]
    icm: bool = False

    def __post_init__(self) -> None:
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be positive")
        if len(self.inits) != self.qubit_count or len(self.meas) != self.qubit_count:
            raise ValueError("inits/meas length must equal qubit_count")

    def open_inputs(self) -> tuple[int, ...]:
        return tuple(q for q, b in enumerate(self.inits) if b is InitBasis.OPEN)


def circuit(
    qubit_count: int,
    gates: list[Gate] | tuple[Gate, ...] = (),
    inits: dict[int, InitBasis] | None = None,
    meas: dict[int, MeasBasis] | None = None,
    icm: bool = False,
) -> Circuit:
    """Convenience constructor with open defaults for init and measurement."""
    init_row = [InitBasis.OPEN] * qubit_count
    meas_row = [MeasBasis.OPEN] * qubit_count
    for q, b in (inits or {}).items():
        init_row[q] = b
    for q, b in (meas or {}).items():
        meas_row[q] = b
    return Circuit(qubit_count, tuple(init_row), tuple(gates), tuple(meas_row), icm=icm)


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, naming the offended rule and its location."""

    rule: str
    message: str
    gate_index: int | None = None
    qubit: int | None = None


def validate_circuit(circ: Circuit) -> list[Diagnostic]:
    """Check the structural invariants of a circuit.

    Returns an empty list when the circuit is well formed; violations are
    reported as diagnostics rather than raised. The injection/open-output
    rule is only enforced for non-ICM circuits: teleportation chains in ICM
    form legitimately terminate on ancilla rows.
    """
    out: list[Diagnostic] = []
    n = circ.qubit_count
    for idx, g in enumerate(circ.gates):
        for q in g.qubits:
            if not 0 <= q < n:
                out.append(Diagnostic(
                    "qubit-range",
                    f"gate {idx} ({g.kind.value}) uses qubit {q} outside 0..{n - 1}",
                    gate_index=idx, qubit=q))
        if g.kind is GateKind.CNOT and g.qubits[0] == g.qubits[1]:
            out.append(Diagnostic(
                "control-equals-target",
                f"gate {idx}: control equals target ({g.qubits[0]})",
                gate_index=idx, qubit=g.qubits[0]))
        if g.kind is GateKind.TOFFOLI and len(set(g.qubits)) != 3:
            out.append(Diagnostic(
                "duplicate-operand",
                f"gate {idx}: toffoli operands must be pairwise distinct {g.qubits}",
                gate_index=idx))
        if circ.icm and g.kind is not GateKind.CNOT:
            out.append(Diagnostic(
                "icm-gate",
                f"gate {idx}: ICM circuit may only contain CNOT, found {g.kind.value}",
                gate_index=idx))
    if not circ.icm:
        for q in range(n):
            if circ.inits[q].is_injection and circ.meas[q] is MeasBasis.OPEN:
                out.append(Diagnostic(
                    "injection-open-output",
                    f"qubit {q}: injection-initialised qubit carries an open output",
                    qubit=q))
    return out


# Largest qubit count a source may declare. The parser allocates an init and a
# measurement entry per declared qubit, so a larger count is a parse error
# rather than an allocation that can exhaust memory.
MAX_QUBITS = 100_000


class ParseError(ValueError):
    """Syntax or semantic error in circuit source, with line/column info."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_INIT_WORDS = {b.value: b for b in InitBasis}
_MEAS_WORDS = {b.value: b for b in MeasBasis}
_SINGLE_GATES = {
    "t": GateKind.T, "tdg": GateKind.TDG, "p": GateKind.P, "pdg": GateKind.PDG,
    "v": GateKind.V, "vdg": GateKind.VDG, "h": GateKind.H,
}


def _split(line: str) -> list[tuple[str, int]]:
    """Tokenise one line into (token, 1-based column) pairs, dropping comments."""
    code = line.split("#", 1)[0]
    toks = []
    col = 0
    for tok in code.split():
        col = code.index(tok, col)
        toks.append((tok, col + 1))
        col += len(tok)
    return toks


def parse_circuit(text: str) -> Circuit:
    """Parse circuit source text.

    Statements::

        qubits N                     # required first statement
        init Q {zero|plus|y|a|open}  # default open
        measure Q {z|x|open}         # default open
        cnot C T
        t Q | tdg Q | p Q | pdg Q | v Q | vdg Q | h Q
        toffoli A B T
    """
    qubit_count: int | None = None
    inits: dict[int, InitBasis] = {}
    meas: dict[int, MeasBasis] = {}
    gates: list[Gate] = []

    def want_int(tok: str, lineno: int, col: int, what: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ParseError(f"expected {what}, got {tok!r}", lineno, col) from None

    def want_qubit(tok: str, lineno: int, col: int) -> int:
        q = want_int(tok, lineno, col, "a qubit index")
        assert qubit_count is not None
        if not 0 <= q < qubit_count:
            raise ParseError(f"qubit index {q} outside 0..{qubit_count - 1}", lineno, col)
        return q

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _split(raw)
        if not toks:
            continue
        (word, col0), args = toks[0], toks[1:]

        if qubit_count is None:
            if word != "qubits":
                raise ParseError("first statement must be 'qubits N'", lineno, col0)
            if len(args) != 1:
                raise ParseError("qubits takes exactly one argument", lineno, col0)
            qubit_count = want_int(args[0][0], lineno, args[0][1], "a qubit count")
            if qubit_count < 1:
                raise ParseError("qubit count must be positive", lineno, args[0][1])
            if qubit_count > MAX_QUBITS:
                raise ParseError(f"qubit count must not exceed {MAX_QUBITS}",
                                 lineno, args[0][1])
            continue

        if word == "qubits":
            raise ParseError("duplicate qubit declaration", lineno, col0)

        if word in ("init", "measure"):
            if len(args) != 2:
                raise ParseError(f"{word} takes a qubit index and a basis", lineno, col0)
            q = want_qubit(args[0][0], lineno, args[0][1])
            basis_tok, basis_col = args[1]
            table = _INIT_WORDS if word == "init" else _MEAS_WORDS
            if basis_tok not in table:
                raise ParseError(f"unknown {word} basis {basis_tok!r}", lineno, basis_col)
            store = inits if word == "init" else meas
            if q in store:
                raise ParseError(f"duplicate {word} declaration for qubit {q}", lineno, args[0][1])
            store[q] = table[basis_tok]
            continue

        if word == "cnot":
            if len(args) != 2:
                raise ParseError("cnot takes control and target", lineno, col0)
            c = want_qubit(args[0][0], lineno, args[0][1])
            t = want_qubit(args[1][0], lineno, args[1][1])
            if c == t:
                raise ParseError("cnot control equals target", lineno, args[1][1])
            gates.append(cnot(c, t))
            continue

        if word == "toffoli":
            if len(args) != 3:
                raise ParseError("toffoli takes two controls and a target", lineno, col0)
            qs = [want_qubit(tok, lineno, c) for tok, c in args]
            if len(set(qs)) != 3:
                raise ParseError("toffoli operands must be pairwise distinct", lineno, col0)
            gates.append(toffoli(*qs))
            continue

        if word in _SINGLE_GATES:
            if len(args) != 1:
                raise ParseError(f"{word} takes exactly one qubit", lineno, col0)
            q = want_qubit(args[0][0], lineno, args[0][1])
            gates.append(Gate(_SINGLE_GATES[word], (q,)))
            continue

        raise ParseError(f"unknown statement {word!r}", lineno, col0)

    if qubit_count is None:
        raise ParseError("empty source: missing 'qubits N'", 1)
    return circuit(qubit_count, gates, inits, meas)
