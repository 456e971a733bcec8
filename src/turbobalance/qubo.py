"""One-hot binary encoding of the balancing problem.

A problem with N blades becomes N^2 binary variables: x[i, j] = 1 iff blade i
sits in slot j, flattened blade-major so variable a = (i-1)*N + (j-1). The
quadratic objective reproduces the squared imbalance on permutation matrices;
row and column one-hot constraints are enforced through quadratic penalty
terms whose weights are derived from the blade masses.

The energy bookkeeping keeps the constant parts (the bare-disk m0^2 and the
constants from expanding the penalty squares) in ``constant_offset`` so that
``energy(x) + constant_offset == d(x)**2`` for every valid configuration.

The dense N^2 x N^2 matrix Q is built only on request (``materialize=True``),
in place in one array, and is what :func:`export_qubo` writes for external
annealers. No solver touches it. The one evaluator,
:class:`ImplicitEvaluator`, supports single bit flips with incremental energy
deltas, scalar or all at once, and never materializes Q, which keeps large
instances (N^2 in the thousands) cheap; qubo-sa and tabu search both run on
it.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (
    Assignment,
    BladeSet,
    DiskImbalance,
    SlotGeometry,
    _frozen_array,
)

DEFAULT_PENALTY_FACTOR = 10.0
#: characters of entry text :func:`load_qubo_export` reads at a time (about 2,400
#: lines); larger blocks parse no faster and raise the peak memory of a load
EXPORT_CHUNK_CHARS = 1 << 16
#: the first line of an export, formatted with its dimension and constant offset
_EXPORT_HEADER = "# dim {} offset {!r}\n"
_EXPORT_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _check_bits(bits) -> np.ndarray:
    """``bits`` as a 1-d int8 array, if it is a non-empty 1-d sequence of 0s
    and 1s; ``ValueError`` otherwise."""
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.size < 1:
        raise ValueError("configuration must be a non-empty 1-d bit sequence")
    # checked before the cast, which would truncate 0.5 to 0 and wrap 257 to 1
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("configuration entries must be 0 or 1")
    return bits.astype(np.int8, copy=False)


@dataclass(frozen=True, eq=False)
class BinaryConfiguration:
    """A point of {0,1}^(N^2); bits[(i-1)*N + (j-1)] is blade i / slot j."""

    bits: np.ndarray

    def __post_init__(self):
        bits = _check_bits(self.bits)
        n = math.isqrt(bits.size)
        if n * n != bits.size:
            raise ValueError(f"configuration length {bits.size} is not a perfect square")
        _frozen_array(self, "bits", bits)


@dataclass(frozen=True)
class ValidityReport:
    """Which one-hot constraints a non-permutation configuration violates.

    Row i is violated when blade i occupies != 1 slots; column j when slot j
    holds != 1 blades. Each violation is (1-based index, actual popcount);
    every row and column not listed has popcount 1.
    """

    row_violations: tuple  # ((index, popcount), ...)
    col_violations: tuple


@dataclass(frozen=True, eq=False)
class QuboProblem:
    """Compiled QUBO for one balancing instance.

    ``matrix`` is the full symmetric matrix (objective plus penalties), the
    only dense matrix a problem stores; it is ``None`` when the problem was
    built with ``materialize=False``. ``lambda1[i-1]`` is the penalty weight
    of blade i's row constraint, ``lambda2`` the shared column weight.
    ``constant_offset`` = m0^2 + sum(lambda1) + N * lambda2 comes from the other fields;
    a problem whose offset overflows float64 is a ``ValueError`` naming N and
    the largest mass. A finite offset bounds every entry of the matrix.
    """

    matrix: np.ndarray | None
    lambda1: np.ndarray
    lambda2: float
    blades: BladeSet
    disk: DiskImbalance
    constant_offset: float = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.lambda1, dtype=float)
        _frozen_array(self, "lambda1", lam)
        try:
            offset = self.disk.m0 ** 2 + float(lam.sum()) + self.n * self.lambda2
        except OverflowError:  # m0 ** 2 past float64
            offset = math.inf
        if not math.isfinite(offset):
            raise ValueError(f"the QUBO of N={self.n} blades (largest mass "
                             f"{float(self.blades.masses.max())!r}, m0 {self.disk.m0!r}) "
                             "overflows float64: its constant offset is not finite")
        object.__setattr__(self, "constant_offset", offset)
        if self.matrix is not None:
            _frozen_array(self, "matrix", self.matrix)

    @property
    def n(self) -> int:
        return self.blades.n

    @property
    def dimension(self) -> int:
        return self.n * self.n

    @property
    def objective_matrix(self) -> np.ndarray | None:
        """The objective part of ``matrix`` alone (no penalties), computed
        afresh on each access; ``None`` when nothing was materialized."""
        if self.matrix is None:
            return None
        objective = np.empty_like(self.matrix)
        _fill_objective(objective, self.blades, self.disk)
        return objective

    def evaluator(self):
        """Fresh single-flip energy evaluator (an :class:`ImplicitEvaluator`)."""
        return ImplicitEvaluator(self)


def min_penalties(blades: BladeSet, disk: DiskImbalance):
    """Strict lower bounds for the penalty weights.

    Returns (per-blade row bounds 2*m0*m_i + m_i^2, column bound
    max_i(2*m0*m_i + m_i^2)); applied weights must exceed these strictly.
    """
    bounds = 2.0 * disk.m0 * blades.masses + blades.masses ** 2
    return bounds, float(bounds.max())


def check_penalty_factor(value) -> float:
    """``value`` (a number or its text) as a float, if it is finite and above
    1; ``ValueError`` otherwise. The penalty weights are this factor times
    their strict lower bounds, so a factor of at most 1 breaks the bounds, and
    an infinite or NaN one makes the weights infinite or NaN."""
    factor = float(value)
    if not (math.isfinite(factor) and factor > 1.0):
        raise ValueError(f"penalty_factor must be finite and > 1 so the weights stay above "
                         f"their bounds, got {factor}")
    return factor


def objective_matrix_termwise(blades: BladeSet, disk: DiskImbalance) -> np.ndarray:
    """Objective matrix assembled term by term.

    Deliberately independent of the outer-product construction in
    :func:`build_qubo`: loops over blade pairs and writes the coupling blocks
    m_i*m_k*cos(phi_j - phi_l) plus the diagonal disk terms
    2*m0*m_i*cos(phi0 - phi_j). Used to cross-check the builder.
    """
    n = blades.n
    m = blades.masses
    phi = SlotGeometry(n).angles()
    cos_pair = np.cos(phi[:, None] - phi[None, :])
    dim = n * n
    q = np.zeros((dim, dim))
    for i in range(n):
        for k in range(n):
            q[i * n:(i + 1) * n, k * n:(k + 1) * n] = m[i] * m[k] * cos_pair
    disk_terms = 2.0 * disk.m0 * np.repeat(m, n) * np.tile(np.cos(disk.phi0 - phi), n)
    q[np.diag_indices(dim)] += disk_terms
    return q


def _fill_objective(out: np.ndarray, blades: BladeSet, disk: DiskImbalance) -> np.ndarray:
    """Write the objective matrix q^T q + 2 diag(y^T q), with q the
    2 x N^2 matrix whose column (i, j) is m_i * z_j, into ``out`` and return
    a view of its diagonal."""
    n = blades.n
    z = SlotGeometry(n).unit_vectors()
    q = (blades.masses[:, None, None] * z[None, :, :]).reshape(n * n, 2).T
    # both operands are views of one buffer, so numpy computes the product as
    # a symmetric rank-k update (BLAS syrk) and mirrors one triangle: the
    # result is exactly symmetric, as a general product need not be
    np.matmul(q.T, q, out=out)
    diagonal = np.einsum("ii->i", out)
    diagonal += 2.0 * (disk.vector @ q)
    return diagonal


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
    lower bounds from :func:`min_penalties`; :func:`check_penalty_factor`
    rejects a factor that is not finite and above 1. A problem whose constant
    offset overflows is refused by :class:`QuboProblem` on that scalar alone,
    with no overflow warning and before any matrix is allocated.

    With ``materialize=False`` no dense matrix is allocated; the problem can
    still be solved through its implicit evaluator. With ``materialize=True``
    the matrix is filled in place in one array, with no other allocation of
    its size: the penalties are added through block and strided views, and
    the diagonal is then rewritten as objective + (lambda1_i - 2 lambda1_i)
    + lambda2 (1 - 2), the expanded squares (sum_j x_ij - 1)^2 and
    (sum_i x_ij - 1)^2 on x^2 = x. An array too large to allocate is a
    ``ValueError`` naming N and the dimension.
    """
    penalty_factor = check_penalty_factor(penalty_factor)
    with np.errstate(over="ignore"):  # an infinite weight makes the offset infinite: refused
        bounds, bound2 = min_penalties(blades, disk)
        problem = QuboProblem(None, penalty_factor * bounds, penalty_factor * bound2, blades, disk)
    if not materialize:
        return problem

    n, lambda1, lambda2 = problem.n, problem.lambda1, problem.lambda2
    try:
        matrix = np.empty((n * n, n * n))
    except MemoryError:
        raise ValueError(f"the dense QUBO of N={n} blades (dim {n * n}) is too large "
                         "to allocate") from None
    diagonal = _fill_objective(matrix, blades, disk)
    objective_diagonal = diagonal.copy()
    blocks = matrix.reshape(n, n, n, n)  # blocks[i, j, k, l] couples (i, j) with (k, l)
    for i in range(n):
        blocks[i, :, i, :] += lambda1[i]  # blade i in two slots
        blocks[:, i, :, i] += lambda2  # slot i holding two blades
    l1 = np.repeat(lambda1, n)
    diagonal[:] = (objective_diagonal + (l1 - 2.0 * l1)) + lambda2 * (1.0 - 2.0)
    return replace(problem, matrix=matrix)


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
    n = math.isqrt(config.bits.size)
    mat = config.bits.reshape(n, n)
    rows = mat.sum(axis=1)
    cols = mat.sum(axis=0)
    if np.all(rows == 1) and np.all(cols == 1):
        return Assignment(np.argmax(mat, axis=1) + 1)
    return ValidityReport(
        row_violations=tuple((i + 1, int(v)) for i, v in enumerate(rows) if v != 1),
        col_violations=tuple((j + 1, int(v)) for j, v in enumerate(cols) if v != 1),
    )


def qubo_energy(problem: QuboProblem, config) -> float:
    """x^T Q x with penalties included (constant_offset NOT added), from the
    problem's evaluator, whether or not a matrix was materialized; bits the
    evaluator's ``reset`` refuses are its ``ValueError``."""
    ev = problem.evaluator()
    ev.reset(config.bits if isinstance(config, BinaryConfiguration) else config)
    return ev.energy()


class ImplicitEvaluator:
    """Matrix-free single-flip evaluation, the one QUBO state of the solvers.

    State is the bits, the running center-of-mass vector u = y + sum of
    active m_i*z_j, the row/column popcounts, the energy, and the incumbent:
    the first visit of the lowest energy since the reset, held as its energy
    and the set of bits flipped an odd number of times since it (O(dimension)
    memory). A flip delta and a flip are O(1). Energies match x^T Q x of the
    materialized matrix.

    The delta of flipping (i, j) is a center-of-mass term
    2(1 - 2x) m_i (u . z_j) + m_i^2, which every flip changes, plus a row-i
    and a column-j penalty term, which a flip of (i, j) changes only in row i
    and column j (the one-flip move evaluation of Glover, Lu & Hao, 4OR
    2010). The first :meth:`all_flip_deltas` after a :meth:`reset` builds
    the N x N parts 2(1 - 2x) m, m^2 and the row and column penalty arrays;
    from then on each flip updates them in O(N), so a call costs a few O(N^2)
    vector passes. Every delta is computed with :meth:`flip_delta`'s float
    operations in the same order, so both paths agree bit for bit: the
    stored 2(1 - 2x) m is exact, and a row-i penalty entry
    lam1_i (+-2(r_i - 1) + 1) takes one of two values, chosen by the bit,
    so after a flip the pair is computed once and written to the row by
    indexing it with the row's bits; likewise for column j with lam2.
    """

    __slots__ = ("dimension", "_n", "_m", "_zx", "_zy", "_lambda1", "_lambda2", "_y",
                 "_offset", "_arrays", "_m_sq", "_flat", "_deltas", "_pair", "_bits",
                 "_rows", "_cols", "_ux", "_uy", "_energy", "_tsm", "_row_pen", "_col_pen",
                 "_bit_rows", "_bit_cols", "_pen_rows", "_pen_cols", "_best", "_since_best")

    def __init__(self, problem: QuboProblem):
        n = problem.n
        z = SlotGeometry(n).unit_vectors()
        m = problem.blades.masses
        self.dimension = n * n
        self._n = n
        self._arrays = (m, z[:, 0].copy(), z[:, 1].copy(), problem.lambda1)
        # plain-float mirrors keep the scalar flip path free of numpy overhead
        self._m, self._zx, self._zy, self._lambda1 = (v.tolist() for v in self._arrays)
        self._lambda2 = float(problem.lambda2)
        self._y = (float(problem.disk.vector[0]), float(problem.disk.vector[1]))
        self._offset = float(problem.constant_offset)
        self._m_sq = np.repeat((m * m)[:, None], n, axis=1)
        self._flat = np.empty(self.dimension)
        self._deltas = self._flat.reshape(n, n)
        self._pair = np.empty(2)
        self.reset(np.zeros(self.dimension, dtype=np.int8))

    def reset(self, bits):
        """Start from ``bits``: a 1-d sequence of ``dimension`` 0s and 1s, checked
        by :func:`_check_bits` and then counted; ``ValueError`` otherwise."""
        bits = _check_bits(bits)
        if bits.size != self.dimension:
            raise ValueError(f"expected {self.dimension} bits, got {bits.size}")
        n = self._n
        m, zx, zy, _ = self._arrays
        mat = bits.reshape(n, n)
        self._bits = bits.tolist()
        self._rows = mat.sum(axis=1).tolist()
        self._cols = mat.sum(axis=0).tolist()
        bf = bits.astype(float)
        mv = np.repeat(m, n)
        self._ux = self._y[0] + float(bf @ (mv * np.tile(zx, n)))
        self._uy = self._y[1] + float(bf @ (mv * np.tile(zy, n)))
        pen = sum(
            l * (r - 1) ** 2 for l, r in zip(self._lambda1, self._rows)
        ) + self._lambda2 * sum((c - 1) ** 2 for c in self._cols)
        self._energy = self._ux * self._ux + self._uy * self._uy + pen - self._offset
        self._tsm = None  # the N x N parts, built by the next all_flip_deltas
        self._best, self._since_best = self._energy, set()

    def energy(self) -> float:
        return self._energy

    def bits(self) -> np.ndarray:
        return np.asarray(self._bits, dtype=np.int8)

    def best_energy(self) -> float:
        return self._best

    def best_bits(self) -> np.ndarray:
        """The incumbent: the bits with those flipped an odd number of times since it reverted."""
        bits = self.bits()
        bits[list(self._since_best)] ^= 1
        return bits

    def flip_delta(self, a: int) -> float:
        i, j = divmod(a, self._n)
        s = 1 - 2 * self._bits[a]
        m = self._m[i]
        return (
            2.0 * s * m * (self._ux * self._zx[j] + self._uy * self._zy[j]) + m * m
            + self._lambda1[i] * (2.0 * s * (self._rows[i] - 1) + 1.0)
            + self._lambda2 * (2.0 * s * (self._cols[j] - 1) + 1.0)
        )

    def all_flip_deltas(self) -> np.ndarray:
        """Every single-flip delta, in the evaluator's own (N^2,) buffer,
        which the next call overwrites."""
        m, zx, zy, lambda1 = self._arrays
        if self._tsm is None:
            n = self._n
            bits = np.asarray(self._bits, dtype=np.intp).reshape(n, n)
            two_s = 2.0 * (1.0 - 2.0 * bits)  # 2(1 - 2x): twice the flip direction
            rows = np.asarray(self._rows, dtype=float)[:, None]
            cols = np.asarray(self._cols, dtype=float)[None, :]
            self._row_pen = lambda1[:, None] * (two_s * (rows - 1.0) + 1.0)
            self._col_pen = self._lambda2 * (two_s * (cols - 1.0) + 1.0)
            self._tsm = two_s * m[:, None]
            self._bit_rows, self._bit_cols = list(bits), list(bits.T)
            self._pen_rows, self._pen_cols = list(self._row_pen), list(self._col_pen.T)
        deltas = self._deltas
        np.multiply(self._tsm, self._ux * zx + self._uy * zy, out=deltas)
        deltas += self._m_sq
        deltas += self._row_pen
        deltas += self._col_pen
        return self._flat

    def flip(self, a: int, delta: float | None = None):
        """Flip bit ``a`` and add ``delta`` to the energy: the ``flip_delta(a)``
        the caller already holds, or computed here when it is None."""
        self._energy = energy = self._energy + (self.flip_delta(a) if delta is None else delta)
        if energy < self._best:
            self._best, self._since_best = energy, set()
        elif a in self._since_best:
            self._since_best.remove(a)
        else:
            self._since_best.add(a)
        i, j = divmod(a, self._n)
        x = self._bits[a]
        s = 1 - 2 * x
        m = self._m[i]
        self._ux += s * m * self._zx[j]
        self._uy += s * m * self._zy[j]
        self._rows[i] = r = self._rows[i] + s
        self._cols[j] = c = self._cols[j] + s
        self._bits[a] = 1 - x
        if self._tsm is not None:
            li, lam2 = self._lambda1[i], self._lambda2
            self._bit_rows[i][j] = 1 - x
            self._tsm[i, j] = -2.0 * s * m
            pair = self._pair
            pair[0], pair[1] = li * (2.0 * (r - 1.0) + 1.0), li * (-2.0 * (r - 1.0) + 1.0)
            self._pen_rows[i][...] = pair[self._bit_rows[i]]
            pair[0], pair[1] = lam2 * (2.0 * (c - 1.0) + 1.0), lam2 * (-2.0 * (c - 1.0) + 1.0)
            self._pen_cols[j][...] = pair[self._bit_cols[j]]


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
    with contextlib.nullcontext(path) if hasattr(path, "write") else open(
            path, "w", encoding="utf-8") as fh:
        _write_export(problem, fh)


def _write_export(problem: QuboProblem, fh):
    # one blade's n rows at a time, one write per matrix row, so the text never
    # sits in memory as a whole. A block repeats its coefficients, so each
    # distinct value goes through repr once; repr depends on the value alone
    # (zeros, whose sign repr shows, are never written, and every NaN is "nan")
    q, n, dim = problem.matrix, problem.n, problem.dimension
    fh.write(_EXPORT_HEADER.format(dim, float(problem.constant_offset)))
    column_texts = np.array([str(j) for j in range(dim)], dtype=object)
    try:
        with np.errstate(over="raise"):  # a finite element whose coefficient overflows
            for start in range(0, dim, n):
                columns, values = [], []
                for i in range(start, start + n):
                    row = q[i, i:]
                    offsets = np.flatnonzero(row)
                    row_values = row[offsets]
                    row_values[int(row[0] != 0.0):] *= 2.0  # the diagonal, offset 0, stays undoubled
                    columns.append(offsets + i)
                    values.append(row_values)
                table, inverse = np.unique(np.concatenate(values), return_inverse=True)
                value_texts = np.array([f" {v!r}\n" for v in table.tolist()], dtype=object)
                entries = np.empty((inverse.size, 3), dtype=object)
                entries[:, 1] = column_texts[np.concatenate(columns)]
                entries[:, 2] = value_texts[inverse]
                end = 0
                for i, row_columns in enumerate(columns, start):
                    begin, end = end, end + row_columns.size
                    entries[begin:end, 0] = f"{i} "
                    fh.write("".join(entries[begin:end].ravel().tolist()))
                # freed before the next block allocates its own: memory the heap
                # held for two blocks at once would stay resident after the export
                del table, inverse, value_texts, entries
    except FloatingPointError:
        above = np.isfinite(row[1:]) & (np.abs(row[1:]) > np.finfo(np.float64).max / 2)
        j = i + 1 + int(np.argmax(above))
        raise ValueError(f"cannot export row {i}, column {j}: its coefficient, twice "
                         f"{float(q[i, j])!r}, overflows float64") from None


def load_qubo_export(path):
    """Read a file written by :func:`export_qubo`; returns (matrix, offset),
    the matrix in symmetric form, so x^T Q x matches the original problem.

    The first line must be the writer's header for the ``dim`` and offset it
    names, byte for byte. Entries must be as the writer writes them:
    ``i j value`` joined by single spaces, 0 <= i <= j < dim, pairs strictly
    ascending (so no ``j i`` pair and no pair twice), no blank line. Any other
    first line, and the first entry line that breaks these rules, raise
    ``ValueError`` quoting the line.
    """
    with contextlib.nullcontext(path) if hasattr(path, "read") else open(path, encoding="utf-8") as fh:
        header = fh.readline()
        try:
            _, _, dim, _, offset = header.split(" ")
            dim, offset = int(dim), float(offset)
            if header != _EXPORT_HEADER.format(dim, offset):
                raise ValueError
            q = np.zeros((dim, dim))  # refuses a negative dim, or one too large to allocate
        except (ValueError, MemoryError):
            line = header.removesuffix("\n")
            raise ValueError(f"malformed header line: {line!r} (expected "
                             "'# dim <n> offset <value>')") from None
        # a block of lines at a time, so the text never sits in memory as a whole;
        # lines end at "\n" only, as a text stream's lines do
        last = -1  # the pair key i * dim + j of the entry before the block
        while block := fh.read(EXPORT_CHUNK_CHARS):
            lines = (block + fh.readline()).split("\n")  # the block's last line finished
            if not lines[-1]:  # the empty string after a final newline
                lines.pop()
            try:
                last = _write_entries(q, lines, last)
            except ValueError:  # the same rules a line at a time: the first line refused raises
                for ln in lines:
                    last = _write_entries(q, [ln], last)
    return q, offset


def _write_entries(q: np.ndarray, lines: list, last: int) -> int:
    """Write the entry lines ``lines`` into ``q``, parsed by numpy on the
    single space, and return the last pair key i * dim + j; ``last`` is the
    key before them. ``ValueError`` quoting ``lines[0]`` (so the offending
    line when ``lines`` is one) if numpy refuses a line or reads a blank one
    as no row, if an index lies outside 0..dim-1, or if a key is not above the
    one before it or i > j."""
    dim = q.shape[0]
    try:
        with warnings.catch_warnings():
            # a warning refuses the lines too: older numpy parses '1.0' into an
            # int64 field with a DeprecationWarning
            warnings.simplefilter("error")
            entries = np.loadtxt(lines, _EXPORT_ENTRY, comments=None, delimiter=" ", ndmin=1)
        if entries.size != len(lines):
            raise ValueError
    except (ValueError, Warning):
        raise ValueError(f"malformed entry line: {lines[0]!r} (expected 'i j value')") from None
    i, j, v = entries["i"], entries["j"], entries["v"]
    if np.minimum(i, j).min() < 0 or np.maximum(i, j).max() >= dim:
        raise ValueError(f"entry line {lines[0].strip()!r} has an index outside 0..{dim - 1}")
    keys = i * dim + j
    if np.any(i > j) or np.any(np.diff(keys, prepend=last) <= 0):
        raise ValueError(f"entry line {lines[0].strip()!r} is out of order (expected i <= j "
                         "and each pair after the one before)")
    values = np.where(i == j, v, 0.5 * v)
    q.reshape(-1)[keys] = values
    q.reshape(-1)[j * dim + i] = values
    return int(keys[-1])
