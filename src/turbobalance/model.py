"""Rotor geometry and the exact imbalance objective.

A balancing instance is a set of N point masses (the blades, all at radius 1),
a disk with its own residual imbalance, and N equidistant slots. An assignment
places every blade in exactly one slot; its quality is the distance of the
assembly's center of mass from the center of rotation.

Conventions used throughout the package:

* blades and slots are numbered 1..N in all public interfaces, so
  ``sigma[i - 1]`` is the 1-based slot holding blade ``i``;
* angles are stored in [0, 2*pi); geometric comparisons go through unit
  vectors, never through raw angles, to avoid wrap-around issues;
* all values are immutable after construction and safe to share between
  concurrent solver runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def _frozen_array(obj, name, values):
    values.setflags(write=False)
    object.__setattr__(obj, name, values)


@dataclass(frozen=True, eq=False)
class BladeSet:
    """The N blade masses of one instance, in blade order (blade i = masses[i-1])."""

    masses: np.ndarray
    name: str = ""

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        if masses.ndim != 1 or masses.size < 1:
            raise ValueError("masses must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(masses)):
            raise ValueError("blade masses must be finite")
        if np.any(masses <= 0.0):
            bad = int(np.argmax(masses <= 0.0)) + 1
            raise ValueError(f"blade masses must be strictly positive (blade {bad} is {masses[bad - 1]})")
        _frozen_array(self, "masses", masses)

    @property
    def n(self) -> int:
        return int(self.masses.size)


@dataclass(frozen=True)
class DiskImbalance:
    """Residual imbalance of the bare disk: magnitude ``m0`` at angle ``phi0``.

    ``m0 = 0`` means a perfectly balanced disk; ``phi0`` is then canonically 0.
    """

    m0: float = 0.0
    phi0: float = 0.0

    def __post_init__(self):
        m0 = float(self.m0)
        phi0 = float(self.phi0)
        if not math.isfinite(m0) or m0 < 0.0:
            raise ValueError(f"imbalance magnitude must be finite and >= 0, got {m0}")
        if not math.isfinite(phi0):
            raise ValueError(f"imbalance angle must be finite, got {phi0}")
        phi0 = 0.0 if m0 == 0.0 else phi0 % TWO_PI
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "phi0", phi0)

    @property
    def vector(self) -> np.ndarray:
        """Cartesian view (x, y) of the bare imbalance."""
        return np.array([self.m0 * math.cos(self.phi0), self.m0 * math.sin(self.phi0)])


@dataclass(frozen=True)
class SlotGeometry:
    """N slots spread around the disk in equal angular steps, slot 1 at angle 0."""

    n_slots: int

    def __post_init__(self):
        n = int(self.n_slots)
        if n < 1:
            raise ValueError(f"need at least one slot, got {n}")
        object.__setattr__(self, "n_slots", n)

    def angles(self) -> np.ndarray:
        """Slot angles [phi_1..phi_N], phi_j = 2*pi*(j-1)/N."""
        return TWO_PI * np.arange(self.n_slots) / self.n_slots

    def unit_vectors(self) -> np.ndarray:
        """(N, 2) array of slot unit vectors z_j = (cos phi_j, sin phi_j)."""
        phi = self.angles()
        return np.column_stack([np.cos(phi), np.sin(phi)])


@dataclass(frozen=True, eq=False)
class Assignment:
    """A permutation sigma: sigma[i-1] is the 1-based slot holding blade i."""

    sigma: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.sigma, dtype=object)  # each entry as given: a bool stays one
        if entries.ndim != 1 or entries.size < 1:
            raise ValueError("assignment must be a non-empty 1-d sequence")
        # checked before the int64 cast, which truncates 1.9 to 1 and reads True and "1" as 1
        integral = all(isinstance(v, (int, float, np.integer, np.floating))
                       and not isinstance(v, bool) and math.isfinite(v) and v == int(v)
                       for v in entries.tolist())
        if not integral:
            raise ValueError(f"assignment entries must be integers, got {entries.tolist()}")
        sigma = entries.astype(np.int64)
        n = sigma.size
        if not np.array_equal(np.sort(sigma), np.arange(1, n + 1)):
            raise ValueError(f"assignment is not a permutation of 1..{n}: {sigma.tolist()}")
        _frozen_array(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return int(self.sigma.size)

    @property
    def slots0(self) -> np.ndarray:
        """0-based view of the slot indices."""
        return self.sigma - 1

    @classmethod
    def identity(cls, n: int) -> "Assignment":
        return cls(np.arange(1, n + 1))

    def __eq__(self, other):
        if not isinstance(other, Assignment):
            return NotImplemented
        return np.array_equal(self.sigma, other.sigma)


@dataclass(frozen=True, eq=False)
class ImbalanceResult:
    """Residual imbalance of an assembled rotor: vector and d, its Euclidean norm."""

    vector: np.ndarray
    d: float = field(init=False)

    def __post_init__(self):
        vector = np.asarray(self.vector, dtype=float)
        if vector.shape != (2,):
            raise ValueError(f"imbalance vector must have shape (2,), got {vector.shape}")
        _frozen_array(self, "vector", vector)
        with np.errstate(over="ignore"):  # a sum of squares past float64, redone below
            d = float(np.linalg.norm(vector))
        if d == math.inf:  # hypot does not square, so a finite residual stays finite
            d = math.hypot(*vector.tolist())
        object.__setattr__(self, "d", d)


def derive_seed(*parts, sep: str = ":") -> int:
    """Stable 63-bit seed: the blake2b-64 hash of ``parts`` joined by ``sep``,
    shifted right by one. Every seed the package derives comes from here."""
    key = sep.join(map(str, parts)).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big") >> 1


def _check_lengths(blades: BladeSet, assignment: Assignment):
    if blades.n != assignment.n:
        raise ValueError(
            f"blade count {blades.n} does not match assignment length {assignment.n}"
        )


def imbalance(blades: BladeSet, disk: DiskImbalance, assignment: Assignment) -> ImbalanceResult:
    """Residual imbalance of the rotor under ``assignment``.

    The center-of-mass offset is the bare-disk vector plus the sum of
    m_i * z_{sigma(i)} over all blades; d is its Euclidean norm.
    """
    _check_lengths(blades, assignment)
    z = SlotGeometry(blades.n).unit_vectors()
    vector = disk.vector + blades.masses @ z[assignment.slots0]
    return ImbalanceResult(vector)


def imbalance_squared_cosform(
    blades: BladeSet, disk: DiskImbalance, assignment: Assignment
) -> float:
    """Squared imbalance via the cosine expansion of the norm.

    Independent of :func:`imbalance`: sums m0^2, the disk/blade cross terms
    2*m0*m_i*cos(phi0 - phi_sigma(i)), and the blade/blade terms
    m_i*m_j*cos(phi_sigma(i) - phi_sigma(j)) over all ordered pairs. Exists
    as a cross-check path; must equal imbalance(...)**2.
    """
    _check_lengths(blades, assignment)
    m = blades.masses
    phi = SlotGeometry(blades.n).angles()[assignment.slots0]
    cross = 2.0 * disk.m0 * float(m @ np.cos(disk.phi0 - phi))
    pair = float(m @ np.cos(phi[:, None] - phi[None, :]) @ m)
    return disk.m0 ** 2 + cross + pair
