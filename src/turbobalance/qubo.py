"""One-hot binary encoding of the balancing problem.

A problem with N blades becomes N^2 binary variables: x[i, j] = 1 iff blade i
sits in slot j, flattened blade-major so variable a = (i-1)*N + (j-1). The
quadratic objective reproduces the squared imbalance on permutation matrices;
row and column one-hot constraints are enforced through quadratic penalty
terms whose weights are derived from the blade masses.

The energy bookkeeping keeps the constant parts (the bare-disk m0^2 and the
constants from expanding the penalty squares) in ``constant_offset`` so that
``energy(x) + constant_offset == d(x)**2`` for every valid configuration.

No solver touches the matrix directly. The evaluators
(:class:`DenseEvaluator` and :class:`ImplicitEvaluator`) support single bit
flips with incremental energy deltas; qubo-sa runs on one, and tabu search
keeps its own array state that follows the implicit evaluator's arithmetic.
The implicit variant never materializes Q, which keeps large instances (N^2
in the thousands) cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Assignment,
    BladeSet,
    DiskImbalance,
    SlotGeometry,
    _frozen_array,
    slot_angles,
)

DEFAULT_PENALTY_FACTOR = 10.0


@dataclass(frozen=True, eq=False)
class BinaryConfiguration:
    """A point of {0,1}^(N^2); bits[(i-1)*N + (j-1)] is blade i / slot j."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.int8)
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError("configuration must be a non-empty 1-d bit sequence")
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("configuration entries must be 0 or 1")
        n = math.isqrt(bits.size)
        if n * n != bits.size:
            raise ValueError(f"configuration length {bits.size} is not a perfect square")
        _frozen_array(self, "bits", bits)

    @property
    def n(self) -> int:
        return math.isqrt(self.bits.size)

    def as_matrix(self) -> np.ndarray:
        return self.bits.reshape(self.n, self.n)


@dataclass(frozen=True)
class ValidityReport:
    """Which one-hot constraints a non-permutation configuration violates.

    Row i is violated when blade i occupies != 1 slots; column j when slot j
    holds != 1 blades. Indices are 1-based; popcounts are the actual sums.
    """

    n: int
    row_popcounts: tuple
    col_popcounts: tuple
    row_violations: tuple  # ((index, popcount), ...)
    col_violations: tuple


@dataclass(frozen=True, eq=False)
class QuboProblem:
    """Compiled QUBO for one balancing instance.

    ``matrix`` is the full symmetric matrix (objective plus penalties) and
    ``objective_matrix`` the objective part alone; both are ``None`` when the
    problem was built with ``materialize=False``. ``lambda1[i-1]`` is the
    penalty weight of blade i's row constraint, ``lambda2`` the shared column
    weight.
    """

    matrix: np.ndarray | None
    objective_matrix: np.ndarray | None
    lambda1: np.ndarray
    lambda2: float
    constant_offset: float
    blades: BladeSet
    disk: DiskImbalance
    penalty_factor: float

    def __post_init__(self):
        lam = np.asarray(self.lambda1, dtype=float)
        _frozen_array(self, "lambda1", lam)
        for name in ("matrix", "objective_matrix"):
            value = getattr(self, name)
            if value is not None:
                _frozen_array(self, name, value)

    @property
    def n(self) -> int:
        return self.blades.n

    @property
    def dimension(self) -> int:
        return self.n * self.n

    def evaluator(self, kind: str = "implicit"):
        """Fresh single-flip energy evaluator ("implicit" or "dense")."""
        if kind == "implicit":
            return ImplicitEvaluator(self)
        if kind == "dense":
            return DenseEvaluator(self)
        raise ValueError(f"unknown evaluator kind {kind!r} (expected 'implicit' or 'dense')")


def min_penalties(blades: BladeSet, disk: DiskImbalance):
    """Strict lower bounds for the penalty weights.

    Returns (per-blade row bounds 2*m0*m_i + m_i^2, column bound
    max_i(2*m0*m_i + m_i^2)); applied weights must exceed these strictly.
    """
    bounds = 2.0 * disk.m0 * blades.masses + blades.masses ** 2
    return bounds, float(bounds.max())


def objective_matrix_termwise(blades: BladeSet, disk: DiskImbalance) -> np.ndarray:
    """Objective matrix assembled term by term.

    Deliberately independent of the outer-product construction in
    :func:`build_qubo`: loops over blade pairs and writes the coupling blocks
    m_i*m_k*cos(phi_j - phi_l) plus the diagonal disk terms
    2*m0*m_i*cos(phi0 - phi_j). Used to cross-check the builder.
    """
    n = blades.n
    m = blades.masses
    phi = slot_angles(SlotGeometry(n))
    cos_pair = np.cos(phi[:, None] - phi[None, :])
    dim = n * n
    q = np.zeros((dim, dim))
    for i in range(n):
        for k in range(n):
            q[i * n:(i + 1) * n, k * n:(k + 1) * n] = m[i] * m[k] * cos_pair
    disk_terms = 2.0 * disk.m0 * np.repeat(m, n) * np.tile(np.cos(disk.phi0 - phi), n)
    q[np.diag_indices(dim)] += disk_terms
    return q


def build_qubo(
    blades: BladeSet,
    disk: DiskImbalance,
    penalty_factor: float = DEFAULT_PENALTY_FACTOR,
    materialize: bool = True,
) -> QuboProblem:
    """Compile an instance into its one-hot QUBO.

    The objective part comes from the outer-product form: with q the 2 x N^2
    matrix whose column (i, j) is m_i * z_j, the matrix is
    q^T q + 2 diag(y^T q). Penalties are ``penalty_factor`` times the strict
    lower bounds from :func:`min_penalties`; the factor must exceed 1 or the
    bounds would be violated.

    With ``materialize=False`` no dense matrix is allocated; the problem can
    still be solved through its implicit evaluator.
    """
    penalty_factor = float(penalty_factor)
    if penalty_factor <= 1.0:
        raise ValueError(
            f"penalty_factor must be > 1 so the weights stay above their bounds, got {penalty_factor}"
        )
    n = blades.n
    bounds, bound2 = min_penalties(blades, disk)
    lambda1 = penalty_factor * bounds
    lambda2 = penalty_factor * bound2
    offset = disk.m0 ** 2 + float(lambda1.sum()) + n * lambda2

    matrix = objective = None
    if materialize:
        z = SlotGeometry(n).unit_vectors()
        q = (blades.masses[:, None, None] * z[None, :, :]).reshape(n * n, 2).T
        objective = q.T @ q
        objective = 0.5 * (objective + objective.T)  # enforce exact symmetry
        objective[np.diag_indices(n * n)] += 2.0 * (disk.vector @ q)

        ones = np.ones((n, n))
        row_pen = np.kron(np.diag(lambda1), ones)
        row_pen[np.diag_indices(n * n)] -= 2.0 * np.repeat(lambda1, n)
        col_pen = lambda2 * (np.kron(ones, np.eye(n)) - 2.0 * np.eye(n * n))
        matrix = objective + row_pen + col_pen

    return QuboProblem(
        matrix=matrix,
        objective_matrix=objective,
        lambda1=lambda1,
        lambda2=lambda2,
        constant_offset=offset,
        blades=blades,
        disk=disk,
        penalty_factor=penalty_factor,
    )


def encode(assignment: Assignment) -> BinaryConfiguration:
    """Permutation -> one-hot bits (exactly one 1 per row and column)."""
    n = assignment.n
    bits = np.zeros(n * n, dtype=np.int8)
    bits[np.arange(n) * n + assignment.slots0] = 1
    return BinaryConfiguration(bits)


def decode(config) -> Assignment | ValidityReport:
    """Bits -> Assignment if they form a permutation matrix, else a ValidityReport.

    No silent repair: any row or column whose popcount differs from 1 is
    reported with its index and actual popcount.
    """
    if not isinstance(config, BinaryConfiguration):
        config = BinaryConfiguration(np.asarray(config))
    mat = config.as_matrix()
    rows = mat.sum(axis=1)
    cols = mat.sum(axis=0)
    if np.all(rows == 1) and np.all(cols == 1):
        return Assignment(np.argmax(mat, axis=1) + 1)
    return ValidityReport(
        n=config.n,
        row_popcounts=tuple(int(v) for v in rows),
        col_popcounts=tuple(int(v) for v in cols),
        row_violations=tuple((i + 1, int(v)) for i, v in enumerate(rows) if v != 1),
        col_violations=tuple((j + 1, int(v)) for j, v in enumerate(cols) if v != 1),
    )


def qubo_energy(problem: QuboProblem, config) -> float:
    """x^T Q x with penalties included (constant_offset NOT added)."""
    if not isinstance(config, BinaryConfiguration):
        config = BinaryConfiguration(np.asarray(config))
    if config.bits.size != problem.dimension:
        raise ValueError(
            f"configuration length {config.bits.size} does not match problem dimension {problem.dimension}"
        )
    if problem.matrix is not None:
        x = config.bits.astype(float)
        return float(x @ problem.matrix @ x)
    ev = ImplicitEvaluator(problem)
    ev.reset(config.bits)
    return ev.energy()


class DenseEvaluator:
    """Single-flip evaluation against the materialized matrix.

    Keeps the gradient vector g = Q x up to date so a flip delta is O(1) and
    applying a flip is O(dim).
    """

    def __init__(self, problem: QuboProblem):
        if problem.matrix is None:
            raise ValueError("problem was built with materialize=False; no dense matrix available")
        self._q = problem.matrix
        self._diag = np.diag(problem.matrix).copy()
        self.dimension = problem.dimension
        self.reset(np.zeros(self.dimension, dtype=np.int8))

    def reset(self, bits):
        bits = np.asarray(bits, dtype=np.int8).copy()
        if bits.size != self.dimension:
            raise ValueError(f"expected {self.dimension} bits, got {bits.size}")
        self._x = bits
        xf = bits.astype(float)
        self._g = self._q @ xf
        self._energy = float(xf @ self._g)

    def energy(self) -> float:
        return self._energy

    def bits(self) -> np.ndarray:
        return self._x.copy()

    def flip_delta(self, a: int) -> float:
        s = 1 - 2 * int(self._x[a])
        return 2.0 * s * float(self._g[a]) + self._diag[a]

    def all_flip_deltas(self) -> np.ndarray:
        s = 1 - 2 * self._x.astype(float)
        return 2.0 * s * self._g + self._diag

    def flip(self, a: int):
        s = 1 - 2 * int(self._x[a])
        self._energy += 2.0 * s * float(self._g[a]) + self._diag[a]
        self._g += s * self._q[:, a]
        self._x[a] += s


class ImplicitEvaluator:
    """Matrix-free single-flip evaluation.

    State is the running center-of-mass vector u = y + sum of active m_i*z_j,
    the row/column popcounts, and the penalty total; a flip delta is O(1)
    and applying a flip is O(1). Energies match the dense x^T Q x.
    """

    def __init__(self, problem: QuboProblem):
        n = problem.n
        z = SlotGeometry(n).unit_vectors()
        m = problem.blades.masses
        self.dimension = n * n
        self._n = n
        self._mv_np = np.repeat(m, n)
        self._zxv_np = np.tile(z[:, 0], n)
        self._zyv_np = np.tile(z[:, 1], n)
        self._l1v_np = np.repeat(problem.lambda1, n)
        # plain-float mirrors keep the scalar flip path free of numpy overhead
        self._mv = self._mv_np.tolist()
        self._zxv = self._zxv_np.tolist()
        self._zyv = self._zyv_np.tolist()
        self._l1v = self._l1v_np.tolist()
        self._lambda1 = problem.lambda1.tolist()
        self._lambda2 = float(problem.lambda2)
        self._y = (float(problem.disk.vector[0]), float(problem.disk.vector[1]))
        self._offset = float(problem.constant_offset)
        self.reset(np.zeros(self.dimension, dtype=np.int8))

    def reset(self, bits):
        bits = np.asarray(bits, dtype=np.int8)
        if bits.size != self.dimension:
            raise ValueError(f"expected {self.dimension} bits, got {bits.size}")
        n = self._n
        mat = bits.reshape(n, n)
        self._bits = bits.tolist()
        self._rows = mat.sum(axis=1).tolist()
        self._cols = mat.sum(axis=0).tolist()
        bf = bits.astype(float)
        self._ux = self._y[0] + float(bf @ (self._mv_np * self._zxv_np))
        self._uy = self._y[1] + float(bf @ (self._mv_np * self._zyv_np))
        self._energy = self._raw_energy()

    def _raw_energy(self) -> float:
        pen = sum(
            l * (r - 1) ** 2 for l, r in zip(self._lambda1, self._rows)
        ) + self._lambda2 * sum((c - 1) ** 2 for c in self._cols)
        return self._ux * self._ux + self._uy * self._uy + pen - self._offset

    def energy(self) -> float:
        return self._energy

    def bits(self) -> np.ndarray:
        return np.asarray(self._bits, dtype=np.int8)

    def flip_delta(self, a: int) -> float:
        s = 1 - 2 * self._bits[a]
        i, j = divmod(a, self._n)
        m = self._mv[a]
        mass_term = 2.0 * s * m * (self._ux * self._zxv[a] + self._uy * self._zyv[a]) + m * m
        row_term = self._l1v[a] * (2.0 * s * (self._rows[i] - 1) + 1.0)
        col_term = self._lambda2 * (2.0 * s * (self._cols[j] - 1) + 1.0)
        return mass_term + row_term + col_term

    def all_flip_deltas(self) -> np.ndarray:
        s = 1.0 - 2.0 * np.asarray(self._bits, dtype=float)
        w = self._mv_np * (self._ux * self._zxv_np + self._uy * self._zyv_np)
        rows = np.repeat(np.asarray(self._rows, dtype=float), self._n)
        cols = np.tile(np.asarray(self._cols, dtype=float), self._n)
        return (
            2.0 * s * w
            + self._mv_np * self._mv_np
            + self._l1v_np * (2.0 * s * (rows - 1.0) + 1.0)
            + self._lambda2 * (2.0 * s * (cols - 1.0) + 1.0)
        )

    def flip(self, a: int):
        s = 1 - 2 * self._bits[a]
        i, j = divmod(a, self._n)
        self._energy += self.flip_delta(a)
        sm = s * self._mv[a]
        self._ux += sm * self._zxv[a]
        self._uy += sm * self._zyv[a]
        self._rows[i] += s
        self._cols[j] += s
        self._bits[a] += s


def export_qubo(problem: QuboProblem, path):
    """Write the QUBO in sparse coordinate text form.

    Header line ``# dim <N^2> offset <constant_offset>``, then one
    ``i j value`` triple per nonzero term, 0-based, upper triangle plus
    diagonal. ``value`` is the coefficient of x_i*x_j in the energy
    polynomial, so off-diagonal couplings are folded into a single entry
    (twice the symmetric matrix element).
    """
    if problem.matrix is None:
        raise ValueError("export needs a materialized matrix; build with materialize=True")
    if hasattr(path, "write"):
        _write_export(problem, path)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            _write_export(problem, fh)


def _write_export(problem: QuboProblem, fh):
    # one write per matrix row, so the text never sits in memory as a whole
    q = problem.matrix
    fh.write(f"# dim {problem.dimension} offset {float(problem.constant_offset)!r}\n")
    for i in range(problem.dimension):
        lines = []
        if q[i, i] != 0.0:
            lines.append(f"{i} {i} {float(q[i, i])!r}\n")
        row = q[i, i + 1:]
        for off in np.nonzero(row)[0]:
            j = i + 1 + int(off)
            lines.append(f"{i} {j} {float(2.0 * q[i, j])!r}\n")
        fh.write("".join(lines))


def load_qubo_export(path):
    """Read a file written by :func:`export_qubo`; returns (matrix, offset).

    The matrix is reconstructed in symmetric form, so energies computed as
    x^T Q x match the original problem. Malformed input raises ``ValueError``.
    """
    if hasattr(path, "read"):
        return _read_export(path)
    with open(path, "r", encoding="utf-8") as fh:
        return _read_export(fh)


def _read_export(fh):
    # line by line, so the text never sits in memory as a whole
    lines = (ln for ln in fh if ln.strip())
    header = next(lines, None)
    if header is None:
        raise ValueError("empty QUBO export: expected a '# dim <n> offset <value>' header")
    head = header.split()
    if len(head) != 5 or head[:2] != ["#", "dim"] or head[3] != "offset":
        raise ValueError(
            f"malformed header line: {header.strip()!r} (expected '# dim <n> offset <value>')"
        )
    dim = int(head[2])
    offset = float(head[4])
    q = np.zeros((dim, dim))
    for ln in lines:
        fields = ln.split()
        if len(fields) != 3:
            raise ValueError(f"malformed entry line: {ln.strip()!r} (expected 'i j value')")
        i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"entry line {ln.strip()!r} has an index outside 0..{dim - 1}")
        if i == j:
            q[i, i] = v
        else:
            q[i, j] = q[j, i] = 0.5 * v
    return q, offset
