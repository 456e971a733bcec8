"""Synthetic instance families and the on-disk instance format.

Two parametric families are provided: ``BETA`` (right-skewed, beta(2,5)
pre-scale draws) and ``NORM`` (standard-normal pre-scale draws). After
drawing, every instance is affinely rescaled so the sample mean is exactly
10^4 and the sample standard deviation exactly 100 (the unitless production
scaling). ``F22SYN``, ``STG1SYN`` and ``STG2SYN`` are normal-family stand-ins
at the fixed sizes 22, 84 and 86 of the proprietary production instances.

Instances are stored one JSON document per file; a corpus directory carries a
``manifest.json`` listing its members for the benchmark harness.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .model import TWO_PI, BladeSet, DiskImbalance, derive_seed

TARGET_MEAN = 1.0e4
TARGET_STD = 100.0
SCALE_RTOL = 1e-6
BETA_A, BETA_B = 2.0, 5.0

#: family -> fixed blade count (None: caller chooses)
FAMILIES = {"BETA": None, "NORM": None, "F22SYN": 22, "STG1SYN": 84, "STG2SYN": 86}

#: the nine-instance corpus mirroring the production evaluation
STANDARD_CORPUS = (
    ("BETA", 20),
    ("BETA", 39),
    ("BETA", 40),
    ("NORM", 20),
    ("NORM", 39),
    ("NORM", 40),
    ("F22SYN", 22),
    ("STG1SYN", 84),
    ("STG2SYN", 86),
)

#: default bare-disk magnitude for "with imbalance" corpora (5% of mean mass)
DEFAULT_BARE_IMBALANCE = 500.0

MANIFEST_NAME = "manifest.json"


class InstanceFormatError(ValueError):
    """Raised when an instance file is malformed or violates its invariants."""


@dataclass(frozen=True, eq=False)
class InstanceFile:
    """One serialized instance: masses, bare imbalance, and provenance."""

    name: str
    masses: np.ndarray
    m0: float
    phi0: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)

    @property
    def n(self) -> int:
        return int(self.masses.size)

    def blade_set(self) -> BladeSet:
        return BladeSet(self.masses, name=self.name)

    def disk(self) -> DiskImbalance:
        return DiskImbalance(self.m0, self.phi0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "masses": self.masses.tolist(),
            "bare_imbalance": {"m0": self.m0, "phi0": self.phi0},
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def save(self, directory) -> Path:
        path = Path(directory) / f"{self.name}.json"
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def generate(
    family: str,
    n: int | None = None,
    seed: int = 0,
    m0: float = 0.0,
    phi0: float = 0.0,
    serial: int = 0,
) -> InstanceFile:
    """Draw one instance of the given family, rescaled to mean 10^4 / std 100.

    Deterministic per (family, n, seed). Fixed-size families reject a
    mismatched ``n``; ``n`` must be at least 2 for the sample scaling to be
    defined.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; available: {sorted(FAMILIES)}")
    fixed = FAMILIES[family]
    if fixed is not None:
        if n is not None and n != fixed:
            raise ValueError(f"family {family} has a fixed size of {fixed}, got n={n}")
        n = fixed
    if n is None:
        raise ValueError(f"family {family} needs an explicit blade count")
    n = int(n)
    if n < 2:
        raise ValueError(f"need n >= 2 for the sample scaling to be defined, got {n}")

    rng = np.random.default_rng(seed)
    if family == "BETA":
        raw = rng.beta(BETA_A, BETA_B, size=n)
        distribution = f"beta({BETA_A}, {BETA_B})"
    else:
        raw = rng.standard_normal(n)
        distribution = "normal(0, 1)"

    centered = raw - raw.mean()
    spread = centered.std(ddof=1)
    if spread == 0.0:
        raise ValueError(f"degenerate draw for seed {seed}: zero sample spread")
    masses = TARGET_MEAN + centered * (TARGET_STD / spread)
    if np.any(masses <= 0.0):
        raise ValueError(
            f"scaling produced a non-positive mass for seed {seed} "
            f"(a draw sits more than {TARGET_MEAN / TARGET_STD:.0f} sample deviations out)"
        )

    disk = DiskImbalance(m0, phi0)
    return InstanceFile(
        name=f"{family}{n}_{int(serial):04d}",
        masses=masses,
        m0=disk.m0,
        phi0=disk.phi0,
        provenance={
            "family": family,
            "n": n,
            "seed": int(seed),
            "distribution": distribution,
            "target_mean": TARGET_MEAN,
            "target_std": TARGET_STD,
            "standin": family.endswith("SYN"),
        },
    )


def _require(doc, key, path):
    if key not in doc:
        raise InstanceFormatError(f"{path}: missing field {key!r}")
    return doc[key]


def load_instance(path) -> InstanceFile:
    """Parse and validate one instance file.

    The masses and the bare imbalance are validated by building the
    :class:`BladeSet` and :class:`DiskImbalance` they describe; a defect in
    either raises :class:`InstanceFormatError` naming ``path`` and the field.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as err:
        raise InstanceFormatError(f"{path}: cannot read instance file: {err}") from err
    except json.JSONDecodeError as err:
        raise InstanceFormatError(f"{path}: not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object at the top level")

    name = _require(doc, "name", path)
    masses_raw = _require(doc, "masses", path)
    if not isinstance(masses_raw, list) or not masses_raw:
        raise InstanceFormatError(f"{path}: field 'masses' must be a non-empty list")
    try:
        masses = BladeSet(masses_raw).masses
    except (TypeError, ValueError) as err:
        raise InstanceFormatError(f"{path}: field 'masses' is malformed: {err}") from err

    if "bare_imbalance" in doc:
        bare = doc["bare_imbalance"]
        try:
            m0 = float(_require(bare, "m0", path))
            phi0 = float(_require(bare, "phi0", path))
            DiskImbalance(m0, phi0)
        except (TypeError, ValueError) as err:
            raise InstanceFormatError(f"{path}: field 'bare_imbalance' is malformed: {err}") from err
    else:
        warnings.warn(f"{path}: no 'bare_imbalance' field, assuming a balanced disk")
        m0, phi0 = 0.0, 0.0

    provenance = doc.get("provenance", {})
    if not isinstance(provenance, dict):
        raise InstanceFormatError(f"{path}: field 'provenance' must be an object")

    target_mean = provenance.get("target_mean")
    target_std = provenance.get("target_std")
    if target_mean is not None and target_std is not None and masses.size >= 2:
        mean = masses.mean()
        std = masses.std(ddof=1)
        if abs(mean - target_mean) > SCALE_RTOL * abs(target_mean):
            raise InstanceFormatError(
                f"{path}: field 'masses' breaks the declared scaling: mean {mean!r} != {target_mean!r}"
            )
        if abs(std - target_std) > SCALE_RTOL * abs(target_std):
            raise InstanceFormatError(
                f"{path}: field 'masses' breaks the declared scaling: std {std!r} != {target_std!r}"
            )

    return InstanceFile(name=str(name), masses=masses, m0=m0, phi0=phi0, provenance=provenance)


def load(path):
    """Instance file -> (BladeSet, DiskImbalance)."""
    instance = load_instance(path)
    return instance.blade_set(), instance.disk()


def write_manifest(directory, names) -> Path:
    directory = Path(directory)
    doc = {"instances": [{"name": name, "file": f"{name}.json"} for name in names]}
    path = directory / MANIFEST_NAME
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def load_manifest(path) -> list:
    """Manifest -> list of instance paths (resolved against the manifest dir)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        entries = doc["instances"]
        return [path.parent / entry["file"] for entry in entries]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as err:
        raise InstanceFormatError(f"{path}: not a readable manifest: {err}") from err


def standard_corpus(directory, base_seed: int = 0, with_imbalance: bool = False):
    """Generate the nine-instance corpus plus manifest into ``directory``.

    With ``with_imbalance`` every instance gets m0 = 500 and a per-instance
    seeded uniform angle; otherwise disks are balanced. Returns
    (manifest_path, instances).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    instances = []
    for family, n in STANDARD_CORPUS:
        name_seed = derive_seed(base_seed, family, n)
        if with_imbalance:
            m0 = DEFAULT_BARE_IMBALANCE
            phi0 = float(np.random.default_rng(derive_seed(base_seed, family, n, "phi0")).uniform(0.0, TWO_PI))
        else:
            m0, phi0 = 0.0, 0.0
        instance = generate(family, n, seed=name_seed, m0=m0, phi0=phi0)
        instance.save(directory)
        instances.append(instance)
    manifest = write_manifest(directory, [inst.name for inst in instances])
    return manifest, instances
