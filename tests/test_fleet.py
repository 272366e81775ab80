"""Fleet subsystem: spec expansion, cache wiring, reports, CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.exp.cache import ResultCache
from repro.exp.spec import ExperimentSpec, config_hash, resolve_config
from repro.fleet import (
    DEVICE_OFFSET_KEY,
    FleetArrays,
    FleetSpec,
    device_config_hash,
    fleet_summary,
    render_fleet_summary,
    resolve_device_config,
    run_fleet,
)
from repro.storage.capacitor import Capacitor, ChargeEfficiency
from repro.storage.ideal import IdealStorage


def make_spec(**overrides):
    data = {
        "name": "testfleet",
        "base": {"source": "wristwatch", "duration_s": 0.2},
        "axes": {"platform": ["nvp", "checkpoint"]},
    }
    data.update(overrides)
    return FleetSpec.from_dict(data)


class TestDeviceConfig:
    def test_offset_defaults_to_zero(self):
        config = resolve_device_config({"platform": "nvp"})
        assert config[DEVICE_OFFSET_KEY] == 0.0

    def test_offset_validated_against_duration(self):
        with pytest.raises(ValueError):
            resolve_device_config(
                {"platform": "nvp", "duration_s": 1.0, DEVICE_OFFSET_KEY: 1.0}
            )
        with pytest.raises(ValueError):
            resolve_device_config({DEVICE_OFFSET_KEY: -0.5})
        with pytest.raises(ValueError, match="trace_offset_s must be finite"):
            resolve_device_config({DEVICE_OFFSET_KEY: float("nan")})

    def test_unknown_keys_still_rejected(self):
        with pytest.raises(ValueError):
            resolve_device_config({"platfrom": "nvp"})

    def test_zero_offset_hashes_like_plain_sweep_point(self):
        """Offset-0 fleet devices share sweep cache entries."""
        raw = {"platform": "checkpoint", "duration_s": 0.5}
        device = resolve_device_config(dict(raw))
        assert device_config_hash(device) == config_hash(resolve_config(raw))

    def test_nonzero_offset_hashes_differently(self):
        plain = resolve_device_config({"platform": "nvp"})
        shifted = resolve_device_config(
            {"platform": "nvp", DEVICE_OFFSET_KEY: 0.3}
        )
        assert device_config_hash(plain) != device_config_hash(shifted)


class TestFleetSpec:
    def test_grid_expansion_with_replicas(self):
        spec = make_spec(replicas=3, stagger_s=0.05)
        devices = spec.devices()
        assert len(devices) == 6
        # Replicas are innermost: seeds bump, offsets stagger.
        first_point = devices[:3]
        assert [d["platform_seed"] for d in first_point] == [0, 1, 2]
        assert [d[DEVICE_OFFSET_KEY] for d in first_point] == [
            0.0, 0.05, 0.1,
        ]
        assert [d["label"] for d in first_point] == [
            "platform='nvp'#r0", "platform='nvp'#r1", "platform='nvp'#r2",
        ]

    def test_zip_mode_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            make_spec(mode="zip", axes={
                "platform": ["nvp", "wait"],
                "capacitance_f": [1e-7],
            })

    def test_offset_is_a_valid_axis(self):
        spec = make_spec(axes={DEVICE_OFFSET_KEY: [0.0, 0.05, 0.1]})
        offsets = [d[DEVICE_OFFSET_KEY] for d in spec.devices()]
        assert offsets == [0.0, 0.05, 0.1]

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec.from_dict({"name": "x", "replica": 2})

    def test_deterministic_expansion(self):
        a = [device_config_hash(d) for d in make_spec(replicas=2).devices()]
        b = [device_config_hash(d) for d in make_spec(replicas=2).devices()]
        assert a == b

    @pytest.mark.parametrize("key, value, message", [
        ("replicas", 0, "replicas must be >= 1"),
        ("replicas", float("inf"), "replicas must be a number"),
        ("stagger_s", -0.1, "stagger_s must be finite and non-negative"),
        ("stagger_s", float("nan"), "stagger_s must be finite"),
        ("stagger_s", float("inf"), "stagger_s must be finite"),
        ("telemetry_every_s", float("nan"), "telemetry_every_s must be"),
    ])
    def test_bad_fleet_key_rejected(self, key, value, message):
        with pytest.raises(ValueError, match=message):
            make_spec(**{key: value})

    @pytest.mark.parametrize("mode, axes", [
        ("grid", {"platform": ["nvp", "wait"],
                  "capacitance_f": [1.5e-07, 4.7e-07]}),
        ("zip", {"platform": ["nvp", "checkpoint"],
                 "label": ["a", "b"], "seed": [3, 4]}),
    ])
    def test_single_replica_devices_are_sweep_points(self, mode, axes):
        """One expansion feeds both, so devices share sweep cache keys."""
        data = {
            "name": "same", "mode": mode, "axes": axes,
            "base": {"source": "rf", "duration_s": 0.2, "platform_seed": 2},
        }
        sweep = ExperimentSpec.from_dict(data)
        devices = FleetSpec.from_dict(dict(data, replicas=1)).devices()
        assert devices == [
            dict(config, **{DEVICE_OFFSET_KEY: 0.0})
            for config in sweep.expand()
        ]
        assert [device_config_hash(d) for d in devices] == sweep.hashes()


class TestSoAContract:
    def test_capacitor_roundtrip(self):
        cap = Capacitor(
            capacitance_f=47e-6, v_max_v=5.0, leak_resistance_ohm=2e6,
            efficiency=ChargeEfficiency(0.8, 0.3, 1.5, 2.5),
            min_charge_current_a=20e-6,
        )
        cap.step(5e-3, 0.0, 1e-4)
        state = cap.soa_state()
        # The order the bulk loops unpack.
        assert cap.chain() == (
            47e-6, cap.capacity_j, 2e6, 20e-6, 0.8, 0.3, 1.5, 2.5,
        )
        cap.soa_restore(*state)
        assert cap.soa_state() == state

    def test_ideal_storage_params_are_identity_chain(self):
        ideal = IdealStorage(capacity_j=1e-3)
        inf = float("inf")
        assert ideal.chain() == (1.0, 1e-3, inf, 0.0, 1.0, 1.0, 0.0, 1.0)

    def test_charge_tick_matches_charge_many(self):
        """The vectorized step IS charge_many, elementwise."""
        cap = Capacitor(capacitance_f=150e-9, v_max_v=3.3)
        twin = Capacitor(capacitance_f=150e-9, v_max_v=3.3)
        arrays = FleetArrays(1, 1e-4)
        arrays.set_params(0, cap, base=0)
        arrays.load_row(0, cap, target_j=float("inf"))
        rng = np.random.default_rng(5)
        powers = rng.uniform(0.0, 100e-6, size=200)
        powers[50:60] = 0.0
        for p in powers:
            arrays.charge_tick(np.array([p]))
            twin.charge_many(np.array([p]), 0, 1, 1e-4, float("inf"))
        arrays.store_row(0, cap)
        assert cap.soa_state() == twin.soa_state()

    def test_charge_tick_discards_the_tick_that_reaches_a_target(self):
        """A row that would reach its target keeps its bits; the
        device's own tick() runs that tick."""
        dt = 1e-4
        powers = [40e-6, 55e-6]
        twins = [
            Capacitor(capacitance_f=150e-9, v_initial_v=v)
            for v in (0.3, 0.6, 0.9)
        ]
        arrays = FleetArrays(3, dt)
        for row, twin in enumerate(twins):
            arrays.set_params(row, twin, base=0)
            arrays.load_row(row, twin, target_j=float("inf"))
        arrays.charge_tick(np.full(3, powers[0]))
        # Row 1's target is exactly the energy its next tick reaches.
        probe = Capacitor(capacitance_f=150e-9, v_initial_v=0.6)
        probe.charge_many(powers, 0, 2, dt)
        arrays.target[1] = probe.energy_j

        def row_bits(row):
            return [arrays.state[:, row].tobytes(),
                    arrays.pending[row].tobytes()]

        kept = row_bits(1)
        crossed = arrays.charge_tick(np.full(3, powers[1]))
        assert crossed == [1]
        assert row_bits(1) == kept
        assert arrays.pending.tolist() == [2, 1, 2]
        expect = [(2, False), (1, True), (2, False)]
        for row, twin in enumerate(twins):
            target = probe.energy_j if row == 1 else None
            assert twin.charge_many(powers, 0, 2, dt, target) == expect[row]
            vector = Capacitor(capacitance_f=150e-9)
            arrays.store_row(row, vector)
            assert [np.float64(x).tobytes() for x in vector.soa_state()] == [
                np.float64(x).tobytes() for x in twin.soa_state()
            ]


class TestRunFleet:
    def test_cache_roundtrip(self, tmp_path):
        configs = make_spec().devices()
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_fleet(configs, cache=cache)
        assert first.executed == 2 and first.cached == 0
        second = run_fleet(configs, cache=cache)
        assert second.executed == 0 and second.cached == 2
        for a, b in zip(first.records, second.records):
            assert a.result == b.result

    def test_fleet_point_shares_sweep_cache(self, tmp_path):
        """A sweep-cached point is a fleet cache hit (offset 0)."""
        from repro.exp.runner import SweepRunner

        cache = ResultCache(str(tmp_path / "cache"))
        raw = {"platform": "nvp", "source": "wristwatch",
               "duration_s": 0.2}
        SweepRunner(cache=cache).run([resolve_config(dict(raw))])
        outcome = run_fleet([resolve_device_config(dict(raw))], cache=cache)
        assert outcome.cached == 1 and outcome.executed == 0

    def test_resource_attribution_sums_to_batch(self, tmp_path):
        outcome = run_fleet(make_spec().devices())
        usage = outcome.resource_usage()
        assert usage["workers"] == 1
        total_cpu = sum(r.cpu_s for r in outcome.records)
        assert total_cpu == pytest.approx(usage["cpu_s"])


class TestFleetReport:
    def test_summary_percentiles(self):
        outcome = run_fleet(make_spec(replicas=2).devices())
        summary = fleet_summary(outcome)
        assert summary["n_devices"] == 4
        assert 0.0 <= summary["survival_fraction"] <= 1.0
        block = summary["metrics"]["forward_progress"]
        assert block["min"] <= block["p5"] <= block["p50"]
        assert block["p50"] <= block["p95"] <= block["max"]
        rendered = render_fleet_summary(summary, title="t")
        assert "forward_progress" in rendered

    def test_empty_results_safe(self):
        from repro.exp.runner import SweepOutcome

        summary = fleet_summary(SweepOutcome())
        assert summary["n_devices"] == 0
        assert summary["metrics"] == {}


class TestFleetCli:
    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({
            "name": "cli-fleet",
            "description": "tiny CLI fleet",
            "base": {"source": "wristwatch", "duration_s": 0.2},
            "axes": {"platform": ["nvp", "checkpoint"]},
            "replicas": 2,
            "stagger_s": 0.05,
        }))
        return str(path)

    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        return path

    def test_run_reports_and_caches(self, spec_file, cache_dir, capsys):
        assert main(["fleet", "run", spec_file]) == 0
        out = capsys.readouterr().out
        assert "4 device(s)" in out
        assert "forward_progress" in out
        assert main(["fleet", "run", spec_file]) == 0
        out = capsys.readouterr().out
        assert "4 hit(s), 0 executed" in out

    def test_replay_device_is_bit_identical(
        self, spec_file, cache_dir, capsys, tmp_path
    ):
        events = tmp_path / "dev.jsonl"
        manifest = tmp_path / "manifest.json"
        assert main([
            "fleet", "run", spec_file, "--replay-device", "1",
            "--events", str(events), "--manifest", str(manifest),
        ]) == 0
        out = capsys.readouterr().out
        assert "bit-identical" in out
        assert events.exists()
        stamped = json.loads(manifest.read_text())
        assert stamped["extra"]["n_devices"] == 4
        assert stamped["extra"]["device_index"] == 1

    def test_results_json_and_ledger_devices(
        self, spec_file, cache_dir, capsys, tmp_path
    ):
        from repro.obs.ledger import RunLedger

        results = tmp_path / "results"
        assert main([
            "fleet", "run", spec_file, "--results-dir", str(results),
        ]) == 0
        payload = json.loads((results / "cli-fleet.json").read_text())
        assert payload["fleet"]["summary"]["n_devices"] == 4
        assert payload["manifest"]["extra"]["n_devices"] == 4
        assert len(payload["fleet"]["devices"]) == 4
        ledger = RunLedger.from_env()
        record = ledger.records(command="fleet")[-1]
        assert record["n_devices"] == 4
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert "devices" in out

    def test_json_output(self, spec_file, cache_dir, capsys):
        assert main(["fleet", "run", spec_file, "--json", "--quiet"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_devices"] == 4

    def test_bad_spec_errors_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x", "axes": {"platform": []}}))
        with pytest.raises(SystemExit):
            main(["fleet", "run", str(path)])
        # Python's json reads a bare NaN literal as a float.
        path.write_text('{"name": "x", "replicas": 2, "stagger_s": NaN}')
        with pytest.raises(SystemExit, match="error: .*stagger_s"):
            main(["fleet", "run", str(path)])

    def test_non_finite_cadence_errors_cleanly(self, spec_file, cache_dir):
        with pytest.raises(SystemExit, match="error: .*every_s"):
            main(["fleet", "run", spec_file, "--telemetry-every", "nan"])

    def test_replay_index_out_of_range(self, spec_file, cache_dir):
        with pytest.raises(SystemExit):
            main(["fleet", "run", spec_file, "--replay-device", "99"])
