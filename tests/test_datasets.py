import json
import logging
import math
import re

import numpy as np
import pytest

from conftest import same_name_manifest
from turbobalance import BladeSet, DiskImbalance, generate, load_instance, standard_corpus
from turbobalance.bench import load_corpus
from turbobalance.datasets import FAMILIES, InstanceFormatError, load_manifest, write_manifest


def _skewness(values):
    values = np.asarray(values)
    centered = values - values.mean()
    return float((centered ** 3).mean() / (centered ** 2).mean() ** 1.5)


def test_generation_is_byte_identical_per_seed():
    a = generate("NORM", 20, seed=11)
    b = generate("NORM", 20, seed=11)
    assert a.to_json() == b.to_json()


def test_different_seeds_differ():
    assert generate("NORM", 20, seed=1).to_json() != generate("NORM", 20, seed=2).to_json()


@pytest.mark.parametrize("family,n", [("BETA", 20), ("NORM", 39), ("BETA", 40), ("NORM", 2)])
def test_scaling_is_exact(family, n):
    instance = generate(family, n, seed=5)
    masses = instance.masses
    assert abs(masses.mean() - 1e4) <= 1e-6 * 1e4
    assert abs(masses.std(ddof=1) - 100.0) <= 1e-6 * 100.0
    assert np.all(masses > 0)


def test_instance_name_format():
    assert generate("BETA", 20, seed=0).name == "BETA20_0000"
    assert generate("NORM", 39, seed=0, serial=7).name == "NORM39_0007"


def test_beta_is_right_skewed_norm_is_not():
    beta_positive = sum(_skewness(generate("BETA", 40, seed=s).masses) > 0 for s in range(100))
    norm_positive = sum(_skewness(generate("NORM", 40, seed=s).masses) > 0 for s in range(100))
    assert beta_positive >= 80
    assert 25 <= norm_positive <= 75


def test_generate_rejects_tiny_n():
    with pytest.raises(ValueError):
        generate("NORM", 1, seed=0)


@pytest.mark.parametrize("name, value, least", [
    ("n", 5.7, 2), ("n", True, 2), ("serial", -1, 0), ("serial", 1.5, 0), ("serial", True, 0),
    ("seed", -1, 0), ("seed", 2.9, 0),
])
def test_generate_refuses_a_count_that_is_not_an_integer_in_bounds(name, value, least):
    message = f"must be an integer of at least {least}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        generate("NORM", **{"n": 5, name: value})


def test_generate_needs_n_for_a_family_without_a_fixed_size():
    with pytest.raises(ValueError, match="explicit blade count"):
        generate("NORM")


def test_generate_rejects_unknown_family_and_size_mismatch():
    with pytest.raises(ValueError):
        generate("GAMMA", 10, seed=0)
    with pytest.raises(ValueError):
        generate("F22SYN", 10, seed=0)


def test_standin_families_have_fixed_sizes():
    assert generate("F22SYN", seed=0).masses.size == 22
    assert generate("STG1SYN", seed=0).masses.size == 84
    assert generate("STG2SYN", seed=0).masses.size == 86
    assert generate("STG2SYN", seed=0).provenance["standin"] is True


def test_save_load_roundtrip(tmp_path):
    instance = generate("BETA", 20, seed=3, m0=500.0, phi0=1.25)
    path = instance.save(tmp_path)
    loaded = load_instance(path)
    assert loaded.to_dict() == instance.to_dict()
    blades, disk = loaded.blade_set(), loaded.disk()
    assert isinstance(blades, BladeSet)
    assert isinstance(disk, DiskImbalance)
    assert np.array_equal(blades.masses, instance.masses)
    assert disk.m0 == 500.0


def test_load_rejects_non_positive_mass(tmp_path):
    doc = generate("NORM", 5, seed=1).to_dict()
    doc["masses"][2] = -1.0
    del doc["provenance"]["target_mean"]  # isolate the positivity check
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match="masses"):
        load_instance(path)


def test_load_defaults_missing_bare_imbalance(tmp_path):
    doc = generate("NORM", 5, seed=1).to_dict()
    del doc["bare_imbalance"]
    path = tmp_path / "nodisk.json"
    path.write_text(json.dumps(doc))
    with pytest.warns(UserWarning, match="bare_imbalance"):
        instance = load_instance(path)
    assert instance.m0 == 0.0
    assert instance.phi0 == 0.0


def test_load_rejects_missing_masses(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"name": "X", "bare_imbalance": {"m0": 0, "phi0": 0}}))
    with pytest.raises(InstanceFormatError, match="masses"):
        load_instance(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="JSON"):
        load_instance(path)


def test_load_rejects_scale_violation(tmp_path):
    doc = generate("NORM", 20, seed=1).to_dict()
    doc["masses"][0] += 50.0  # breaks the declared mean/std
    path = tmp_path / "drifted.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match="scaling"):
        load_instance(path)


def test_load_rejects_a_std_violation_that_keeps_the_mean(tmp_path):
    doc = generate("NORM", 20, seed=1).to_dict()
    low, high = int(np.argmin(doc["masses"])), int(np.argmax(doc["masses"]))
    doc["masses"][low] -= 50.0  # widens the spread, leaves the sum as it was
    doc["masses"][high] += 50.0
    path = tmp_path / "spread.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match="scaling: std"):
        load_instance(path)


def test_load_rejects_a_top_level_array(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([generate("NORM", 5, seed=1).to_dict()]))
    with pytest.raises(InstanceFormatError, match="JSON object at the top level"):
        load_instance(path)


@pytest.mark.parametrize("field, value", [
    ("masses", ["a", 2.0]),
    ("masses", [[1.0, 2.0], [3.0, 4.0]]),
    ("bare_imbalance", {"m0": -5, "phi0": 0.0}),
    ("bare_imbalance", {"m0": 500.0, "phi0": "inf"}),
    ("name", None),
    ("masses", [True, 2.0, 3.0]),
    ("name", ""),
    ("masses", {}),
    ("provenance", []),
    # integers past the range of a float
    ("masses", [10 ** 400, 2.0]),
    ("bare_imbalance", {"m0": 10 ** 400, "phi0": 0.0}),
    ("bare_imbalance", {"m0": 500.0, "phi0": 10 ** 400}),
])
def test_malformed_field_is_a_format_error_naming_the_file(tmp_path, caplog, field, value):
    good, bad = generate("NORM", 5, seed=1), generate("BETA", 6, seed=2)
    good.save(tmp_path)
    doc = bad.to_dict()
    del doc["provenance"]  # no declared scaling to trip over first
    doc[field] = value
    path = tmp_path / f"{bad.name}.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match=f"{re.escape(str(path))}: field '{field}'"):
        load_instance(path)
    # the harness skips the file with a logged error and keeps the rest
    manifest = write_manifest(tmp_path, [good.name, bad.name])
    with caplog.at_level(logging.ERROR):
        corpus = load_corpus(manifest)
    assert [name for name, _, _ in corpus] == [good.name]
    assert bad.name in caplog.text


@pytest.mark.parametrize("key", ["target_mean", "target_std"])
@pytest.mark.parametrize("value", ["100", [1], True, float("nan"), 10 ** 400],
                         ids=["text", "list", "bool", "nan", "int-past-float"])
def test_declared_scaling_that_is_not_a_number_is_a_format_error(tmp_path, caplog, key, value):
    good, bad = generate("NORM", 5, seed=1), generate("BETA", 6, seed=2)
    good.save(tmp_path)
    doc = bad.to_dict()
    doc["provenance"][key] = value
    path = tmp_path / f"{bad.name}.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match=f"{re.escape(str(path))}: field 'provenance'"):
        load_instance(path)
    # the harness skips the file with a logged error and keeps the rest
    manifest = write_manifest(tmp_path, [good.name, bad.name])
    with caplog.at_level(logging.ERROR):
        corpus = load_corpus(manifest)
    assert [name for name, _, _ in corpus] == [good.name]
    assert bad.name in caplog.text


def test_load_corpus_rejects_two_files_with_one_name(tmp_path):
    # runs are seeded and summarized by name, so the two would merge into one cell
    manifest = same_name_manifest(tmp_path)
    with pytest.raises(InstanceFormatError) as err:
        load_corpus(manifest)
    assert str(tmp_path / "a.json") in str(err.value)
    assert str(tmp_path / "b.json") in str(err.value)


def test_load_skips_scale_check_without_declared_targets(tmp_path):
    path = tmp_path / "adhoc.json"
    path.write_text(json.dumps({
        "name": "ADHOC", "masses": [1.0, 2.0, 3.0],
        "bare_imbalance": {"m0": 0.0, "phi0": 0.0},
    }))
    assert load_instance(path).masses.size == 3


def test_standard_corpus_layout(tmp_path):
    manifest, instances = standard_corpus(tmp_path, base_seed=0)
    assert len(instances) == 9
    names = [inst.name for inst in instances]
    assert names == [
        "BETA20_0000", "BETA39_0000", "BETA40_0000",
        "NORM20_0000", "NORM39_0000", "NORM40_0000",
        "F22SYN22_0000", "STG1SYN84_0000", "STG2SYN86_0000",
    ]
    paths = load_manifest(manifest)
    assert len(paths) == 9
    for path in paths:
        assert path.exists()
        load_instance(path)
    assert all(inst.m0 == 0.0 for inst in instances)


def test_standard_corpus_with_imbalance(tmp_path):
    _, instances = standard_corpus(tmp_path, base_seed=0, with_imbalance=True)
    assert all(inst.m0 == 500.0 for inst in instances)
    assert all(0.0 <= inst.phi0 < 2 * math.pi for inst in instances)
    angles = {inst.phi0 for inst in instances}
    assert len(angles) > 1  # per-instance seeded angles


def test_standard_corpus_names_carry_the_base_seed(tmp_path):
    # the serial is the base seed, so two base seeds' corpora share one manifest
    _, zero = standard_corpus(tmp_path, base_seed=0)
    _, three = standard_corpus(tmp_path, base_seed=3)
    assert all(inst.name.endswith("_0003") for inst in three)
    names = [inst.name for inst in zero + three]
    corpus = load_corpus(write_manifest(tmp_path, names))
    assert [name for name, _, _ in corpus] == names


@pytest.mark.parametrize("base_seed", [-1, 1.5])
def test_standard_corpus_refuses_a_base_seed_before_making_its_directory(tmp_path, base_seed):
    with pytest.raises(ValueError, match="must be an integer of at least 0"):
        standard_corpus(tmp_path / "corpus", base_seed=base_seed)
    assert not (tmp_path / "corpus").exists()


def test_corpus_generation_is_deterministic(tmp_path):
    _, first = standard_corpus(tmp_path / "a", base_seed=4)
    _, second = standard_corpus(tmp_path / "b", base_seed=4)
    for x, y in zip(first, second):
        assert x.to_json() == y.to_json()


#: (phi0 seed, instance seed) per standard-corpus instance at base seed 0, in
#: corpus order; any change to the seed derivation changes every corpus file
GOLDEN_CORPUS_SEEDS = [
    (8774327988940708675, 6272415621780714184),
    (4103847469317153955, 8351130413429331394),
    (7575576954524583723, 487629687531264123),
    (5751254373992591941, 3513398984716273287),
    (286647190939217904, 6085760534592756683),
    (589127045303472960, 671130233574612000),
    (6855137797526434729, 5357074487484396631),
    (4924683546809401323, 975833234978101853),
    (7323026629585145811, 1973038508480180248),
]


def test_standard_corpus_derives_the_golden_seeds(tmp_path, monkeypatch):
    seeds = []
    default_rng = np.random.default_rng

    def recording_rng(seed):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    standard_corpus(tmp_path, base_seed=0, with_imbalance=True)
    assert list(zip(seeds[0::2], seeds[1::2])) == GOLDEN_CORPUS_SEEDS


def test_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("[]")
    with pytest.raises(InstanceFormatError):
        load_manifest(path)


def test_family_registry_is_consistent():
    assert set(FAMILIES) == {"BETA", "NORM", "F22SYN", "STG1SYN", "STG2SYN"}
