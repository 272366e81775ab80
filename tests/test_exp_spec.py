"""Tests for declarative experiment specs and config hashing."""

import json

import pytest

from repro.exp.spec import (
    CONFIG_DEFAULTS,
    ExperimentSpec,
    canonical_json,
    config_hash,
    resolve_config,
)
from repro.fleet import FleetSpec

#: A fleet spec is an experiment spec: both share one validator and
#: one loader, so the rejection tests below run over both.
SPEC_KINDS = (ExperimentSpec, FleetSpec)


class TestResolveConfig:
    def test_defaults_fill_in(self):
        resolved = resolve_config({})
        assert resolved["platform"] == "nvp"
        assert resolved["source"] == "wristwatch"
        assert set(resolved) == set(CONFIG_DEFAULTS)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            resolve_config({"capacitance": 1e-6})

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError, match="unknown platform"):
            resolve_config({"platform": "fpga"})

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="unknown source"):
            resolve_config({"source": "windmill"})

    def test_unknown_nvp_key_rejected(self):
        with pytest.raises(ValueError, match="unknown NVPConfig key"):
            resolve_config({"nvp": {"clock_mhz": 8}})

    def test_dotted_key_reaches_nvp(self):
        resolved = resolve_config({"nvp.backup_margin": 2.0})
        assert resolved["nvp"]["backup_margin"] == 2.0

    def test_stop_when_finished_follows_kernel(self):
        assert resolve_config({})["stop_when_finished"] is False
        assert resolve_config({"kernel": "crc"})["stop_when_finished"] is True
        assert resolve_config(
            {"kernel": "crc", "stop_when_finished": False}
        )["stop_when_finished"] is False

    def test_does_not_alias_caller_dicts(self):
        nvp = {"state_bits": 256}
        resolved = resolve_config({"nvp": nvp, "nvp.ecc": True})
        assert resolved["nvp"]["ecc"] is True
        assert "ecc" not in nvp

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            resolve_config({"duration_s": 0})

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration_s .* finite"):
            resolve_config({"duration_s": duration})

    @pytest.mark.parametrize("mean_uw", [float("nan"), float("inf")])
    def test_non_finite_mean_uw_rejected(self, mean_uw):
        with pytest.raises(ValueError, match="mean_uw must be finite"):
            resolve_config({"mean_uw": mean_uw})

    @pytest.mark.parametrize("key, value, message", [
        ("capacitance_f", float("nan"), "positive and finite"),
        ("capacitance_f", float("inf"), "positive and finite"),
        ("capacitance_f", 0.0, "positive and finite"),
        ("capacitance_f", -1.5e-07, "positive and finite"),
        ("capacitance_f", "1e-6", "positive and finite"),
        ("energy_margin", float("nan"), "finite"),
        ("energy_margin", float("-inf"), "finite"),
        ("energy_margin", 0.5, ">= 1"),
        ("mean_uw", -1.0, ">= 0"),
        ("frames", 2.5, "a positive integer"),
        ("frames", 0, "a positive integer"),
        ("frames", True, "a positive integer"),
        ("seed", 1.5, "a non-negative integer"),
        ("seed", -3, "a non-negative integer"),
        ("seed", "7", "a non-negative integer"),
        ("seed", True, "a non-negative integer"),
        ("platform_seed", 2.5, "a non-negative integer"),
        ("platform_seed", -1, "a non-negative integer"),
        ("profile_index", 1.0, "a non-negative integer"),
        ("profile_index", True, "a non-negative integer"),
        ("profile_index", -1, "a non-negative integer"),
        ("profile_count", 0, "a positive integer"),
        ("profile_count", 2.0, "a positive integer"),
        ("nvp.backup_margin", float("nan"), ">= 1.0 and finite"),
        ("nvp.clock_hz", float("inf"), "positive and finite"),
        ("nvp.run_reserve_ticks", float("nan"), ">= 0 and finite"),
        ("nvp.controller_overhead_j", float("inf"), ">= 0 and finite"),
    ])
    def test_bad_numeric_key_rejected(self, key, value, message):
        # An ``nvp.*`` override is named by its NVPConfig field.
        field = key.split(".")[-1]
        with pytest.raises(ValueError, match=f"^{field} must be {message}$"):
            resolve_config({key: value})

    def test_profile_index_past_count_left_to_the_run(self):
        # Such a point fails at run time and the rest of the sweep goes on.
        config = resolve_config({"source": "profile", "profile_index": 9})
        assert config["profile_index"] == 9


class TestConfigHash:
    def test_stable_across_key_order(self):
        a = resolve_config({"seed": 3, "duration_s": 0.5})
        b = resolve_config({"duration_s": 0.5, "seed": 3})
        assert config_hash(a) == config_hash(b)

    def test_differs_when_value_changes(self):
        a = resolve_config({"seed": 3})
        b = resolve_config({"seed": 4})
        assert config_hash(a) != config_hash(b)

    def test_canonical_json_rejects_objects(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_hash_is_hex64(self):
        digest = config_hash(resolve_config({}))
        assert len(digest) == 64
        int(digest, 16)


class TestExpand:
    def test_grid_is_cartesian_product_last_axis_fastest(self):
        spec = ExperimentSpec(
            name="g",
            axes={"platform": ["nvp", "oracle"], "seed": [1, 2, 3]},
        )
        configs = spec.expand()
        assert len(configs) == 6
        assert [(c["platform"], c["seed"]) for c in configs] == [
            ("nvp", 1), ("nvp", 2), ("nvp", 3),
            ("oracle", 1), ("oracle", 2), ("oracle", 3),
        ]

    def test_zip_advances_in_lockstep(self):
        spec = ExperimentSpec(
            name="z",
            axes={"seed": [1, 2], "duration_s": [0.5, 1.0]},
            mode="zip",
        )
        configs = spec.expand()
        assert [(c["seed"], c["duration_s"]) for c in configs] == [
            (1, 0.5), (2, 1.0),
        ]

    def test_zip_length_mismatch_rejected(self):
        for kind in SPEC_KINDS:
            with pytest.raises(ValueError, match="differ in length"):
                kind(
                    name="z", axes={"seed": [1, 2], "duration_s": [0.5]},
                    mode="zip",
                )

    def test_ensemble_requires_seed_axis(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec(name="e", axes={"duration_s": [1]},
                           mode="ensemble")
        spec = ExperimentSpec.ensemble("e", seeds=[1, 2, 3])
        assert [c["seed"] for c in spec.expand()] == [1, 2, 3]

    def test_empty_axis_rejected(self):
        for kind in SPEC_KINDS:
            with pytest.raises(ValueError, match="no values"):
                kind(name="g", axes={"seed": []})

    @pytest.mark.parametrize("axis, value", [("seed", 5), ("label", "ab")])
    def test_axis_must_be_a_list(self, axis, value):
        # A bare number used to raise a TypeError in the sweep, and a
        # string was swept character by character.
        for kind in SPEC_KINDS:
            with pytest.raises(ValueError, match=f"'{axis}' must be a list"):
                kind.from_dict({"name": "a", "axes": {axis: value}})

    def test_no_axes_is_single_point(self):
        spec = ExperimentSpec(name="one", base={"seed": 9})
        configs = spec.expand()
        assert len(configs) == 1
        assert configs[0]["seed"] == 9

    def test_auto_labels_carry_axis_values(self):
        spec = ExperimentSpec(name="g", axes={"capacitance_f": [1e-6]})
        assert spec.expand()[0]["label"] == "capacitance_f=1e-06"

    def test_expand_is_deterministic(self):
        spec = ExperimentSpec(
            name="g",
            base={"nvp": {"state_bits": 256}},
            axes={"nvp.backup_margin": [1.5, 2.0], "seed": [1, 2]},
        )
        assert spec.hashes() == spec.hashes()
        margins = [c["nvp"]["backup_margin"] for c in spec.expand()]
        assert margins == [1.5, 1.5, 2.0, 2.0]
        assert all(c["nvp"]["state_bits"] == 256 for c in spec.expand())

    def test_unknown_mode_rejected(self):
        for kind in SPEC_KINDS:
            with pytest.raises(ValueError, match="unknown mode"):
                kind(name="m", mode="random")
        with pytest.raises(ValueError, match="unknown mode"):
            FleetSpec(name="m", axes={"seed": [1]}, mode="ensemble")

    def test_needs_name(self):
        for kind in SPEC_KINDS:
            with pytest.raises(ValueError, match="name"):
                kind(name="")
            with pytest.raises(ValueError, match="name"):
                kind.from_dict({"axes": {"seed": [1]}})


class TestSpecFiles:
    kind = ExperimentSpec

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "file-spec",
            "description": "d",
            "mode": "grid",
            "base": {"duration_s": 0.5},
            "axes": {"seed": [1, 2]},
        }))
        spec = self.kind.from_file(str(path))
        assert spec.name == "file-spec"
        assert len(spec.expand()) == 2

    def test_from_file_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            self.kind.from_file(str(path))

    def test_from_file_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            self.kind.from_file(str(path))

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown spec key"):
            self.kind.from_dict({"name": "x", "points": 4})


class TestFleetSpecFiles(TestSpecFiles):
    """The same loading rules, through the fleet spec."""

    kind = FleetSpec
