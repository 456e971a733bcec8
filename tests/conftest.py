import json

import numpy as np

from turbobalance import BladeSet, DiskImbalance, SlotGeometry, generate


def random_instance(rng, n, with_disk=False):
    """Production-scale instance: masses ~ N(1e4, 100^2), optional bare disk."""
    masses = rng.normal(1.0e4, 100.0, n)
    blades = BladeSet(masses)
    if with_disk:
        disk = DiskImbalance(float(rng.uniform(0.0, 500.0)), float(rng.uniform(0.0, 2 * np.pi)))
    else:
        disk = DiskImbalance()
    return blades, disk


def random_sigma(rng, n):
    return rng.permutation(n) + 1


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def from_scratch_deltas(problem, bits, u):
    """Every single-flip delta of ``bits``, recomputed from the bits and the
    center-of-mass vector ``u`` alone with N^2-long arrays, in the float
    operations of the evaluator's original vector formula. ``u`` is the
    evaluator's running vector: summing it afresh would round differently."""
    n = problem.n
    z = SlotGeometry(n).unit_vectors()
    mv = np.repeat(problem.blades.masses, n)
    zxv, zyv = np.tile(z[:, 0], n), np.tile(z[:, 1], n)
    l1v = np.repeat(problem.lambda1, n)
    mat = np.asarray(bits, dtype=float).reshape(n, n)
    s = 1.0 - 2.0 * mat.ravel()
    w = mv * (u[0] * zxv + u[1] * zyv)
    rows = np.repeat(mat.sum(axis=1), n)
    cols = np.tile(mat.sum(axis=0), n)
    return (
        2.0 * s * w
        + mv * mv
        + l1v * (2.0 * s * (rows - 1.0) + 1.0)
        + problem.lambda2 * (2.0 * s * (cols - 1.0) + 1.0)
    )


def same_name_manifest(directory):
    """A manifest in ``directory`` of two different instance files, a.json
    and b.json, that carry one name."""
    first, second = generate("NORM", 5, seed=1), generate("NORM", 5, seed=2)
    assert first.name == second.name
    for filename, instance in (("a.json", first), ("b.json", second)):
        (directory / filename).write_text(instance.to_json())
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"instances": [{"file": "a.json"}, {"file": "b.json"}]}))
    return manifest
