"""Tests for strict pipeline configuration parsing."""
import dataclasses
import datetime
import textwrap

import numpy as np
import pytest

from cloudchange.config import (
    EpochInput,
    PipelineConfig,
    config_to_dict,
    parse_config,
    parse_config_text,
    serialize_config,
)
from cloudchange.detection import ChangeParams
from cloudchange.registration import IcpParams

MINIMAL = textwrap.dedent(
    """
    epochs:
      - {path: a.ply, timestamp: 0}
      - {path: b.ply, timestamp: 10}
    """
)

# One timezone-aware and one naive timestamp.
MIXED_DATETIMES = textwrap.dedent(
    """
    epochs:
      - {path: a.ply, timestamp: 2026-01-01T00:00:00Z}
      - {path: b.ply, timestamp: 2026-01-02T00:00:00}
    """
)


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        config = parse_config_text(MINIMAL)
        assert config.epochs == (EpochInput("a.ply", 0.0), EpochInput("b.ply", 10.0))
        assert config.registration == "none"
        assert config.icp == IcpParams()
        assert config.detection == ChangeParams()
        assert config.grid_size is None
        assert config.output_dir == "out"
        assert config.seed == 0
        assert config.threads is None

    def test_full_config(self):
        config = parse_config_text(
            textwrap.dedent(
                """
                epochs:
                  - {path: a.ply, timestamp: 2026-03-01}
                  - {path: b.ply, timestamp: 2026-03-11}
                registration: icp
                icp: {max_iterations: 10, trim_fraction: 0.2}
                detection: {max_depth: 9, thresholds: [100.0, 200.0, 300.0]}
                grid_size: 0.5
                output_dir: results
                seed: 7
                threads: 2
                """
            )
        )
        assert config.epochs[0].timestamp == datetime.date(2026, 3, 1)
        assert config.registration == "icp"
        assert config.icp.max_iterations == 10
        assert config.icp.trim_fraction == 0.2
        assert config.icp.rejection_distance == IcpParams().rejection_distance
        assert config.detection.max_depth == 9
        assert config.detection.thresholds == (100.0, 200.0, 300.0)
        assert config.grid_size == 0.5
        assert config.threads == 2

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(MINIMAL)
        assert parse_config(path) == parse_config_text(MINIMAL)

    def test_scalar_threshold(self):
        config = parse_config_text(MINIMAL + "detection: {thresholds: 250.0}\n")
        assert config.detection.thresholds == 250.0

    def test_unquoted_exponent_is_a_number(self):
        # YAML 1.1 reads an exponent without a dot as a string; the config
        # loader reads it as a float.
        config = parse_config_text(
            MINIMAL + "detection: {thresholds: 1e5}\nicp: {convergence_threshold: 3e-4}\n"
        )
        assert config.detection.thresholds == 100000.0
        assert config.icp.convergence_threshold == 3e-4


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config key: registraton"):
            parse_config_text(MINIMAL + "registraton: icp\n")

    def test_unknown_nested_key_names_dotted_path(self):
        with pytest.raises(ValueError, match="unknown config key: detection.max_depht"):
            parse_config_text(MINIMAL + "detection: {max_depht: 9}\n")
        with pytest.raises(ValueError, match="unknown config key: icp.iterations"):
            parse_config_text(MINIMAL + "icp: {iterations: 3}\n")
        # Keys removed from the schema, as configs written before
        # report_version 3 carry them, fail the same way.
        for key, value in (("subvoxels_per_axis", "2"), ("normalized", "true")):
            with pytest.raises(ValueError, match=f"unknown config key: detection.{key}"):
                parse_config_text(MINIMAL + f"detection: {{{key}: {value}}}\n")

    def test_unknown_epoch_key(self):
        with pytest.raises(ValueError, match=r"unknown config key: epochs\[1\].when"):
            parse_config_text(
                "epochs:\n  - {path: a.ply, timestamp: 0}\n  - {path: b.ply, when: 1}\n"
            )

    def test_missing_keys_named(self):
        with pytest.raises(ValueError, match="missing config key: epochs"):
            parse_config_text("seed: 1\n")
        with pytest.raises(ValueError, match=r"missing config key: epochs\[0\].timestamp"):
            parse_config_text("epochs:\n  - {path: a.ply}\n")

    def test_bad_section_value_names_dotted_path(self):
        with pytest.raises(ValueError, match="detection.max_depth"):
            parse_config_text(MINIMAL + "detection: {max_depth: deep}\n")

    @pytest.mark.parametrize("text,key", [
        ('detection: {component_min_size: "7"}', "detection.component_min_size"),
        ("detection: {max_depth: 8.9}", "detection.max_depth"),
        ("icp: {max_iterations: 12.5}", "icp.max_iterations"),
        ("threads: 2.7", "threads"),
        ("threads: true", "threads"),
        ("seed: 1.5", "seed"),
        ("report_version: 2.9", "report_version"),
        ("grid_size: true", "grid_size"),
        ('grid_size: "0.5"', "grid_size"),
        ('detection: {thresholds: "1e5"}', "detection.thresholds"),
        ('detection: {thresholds: ["1e5"]}', "detection.thresholds"),
        ("output_dir: null", "output_dir"),
        ("output_dir: 7", "output_dir"),
        ("epochs:\n  - {path: null, timestamp: 0}\n  - {path: b.ply, timestamp: 1}", r"epochs\[0\]\.path"),
        ("epochs:\n  - {path: a.ply, timestamp: 0}\n  - {path: 2, timestamp: 1}", r"epochs\[1\]\.path"),
    ])
    def test_scalars_not_coerced(self, text, key):
        # A string or a fraction is no integer, a boolean or a string no
        # number and null or a number no path: each is refused under its
        # dotted key, never rounded, parsed, read as truthy or turned into
        # "None".
        document = text if text.startswith("epochs:") else MINIMAL + text
        with pytest.raises(ValueError, match=rf"^{key}: expected"):
            parse_config_text(document + "\n")

    @pytest.mark.parametrize("text,key", [
        ("grid_size: .nan", "grid_size"),
        ("grid_size: .inf", "grid_size"),
        ("grid_size: -.inf", "grid_size"),
        ("detection: {component_radius: .nan}", "detection: component_radius"),
        ("detection: {component_radius: .inf}", "detection: component_radius"),
        ("detection: {thresholds: .nan}", "detection: thresholds"),
        ("detection: {thresholds: .inf}", "detection: thresholds"),
        ("detection: {start_depth: 6, max_depth: 7, thresholds: [1.0, .nan]}", "detection: thresholds"),
        ("icp: {convergence_threshold: .inf}", "icp: convergence_threshold"),
        ("icp: {convergence_threshold: .nan}", "icp: convergence_threshold"),
        ("icp: {rejection_distance: .inf}", "icp: rejection_distance"),
        ("icp: {rejection_distance: .nan}", "icp: rejection_distance"),
    ])
    def test_non_finite_numbers_refused(self, text, key):
        # NaN compares False against every bound, so "> 0" alone lets it
        # through; infinity is no cell size, radius, threshold or ICP
        # tolerance either.
        with pytest.raises(ValueError, match=rf"^{key}: must be finite|^{key} must be finite"):
            parse_config_text(MINIMAL + text + "\n")

    def test_section_invariants_keep_section_prefix(self):
        with pytest.raises(ValueError, match="icp: max_iterations"):
            parse_config_text(MINIMAL + "icp: {max_iterations: 0}\n")
        with pytest.raises(ValueError, match="detection: "):
            parse_config_text(MINIMAL + "detection: {thresholds: [1.0, 2.0]}\n")


class TestInvariants:
    def _epochs(self, *timestamps):
        return tuple(EpochInput(f"e{i}.ply", t) for i, t in enumerate(timestamps))

    def test_needs_two_epochs(self):
        with pytest.raises(ValueError, match="at least two epochs"):
            PipelineConfig(epochs=self._epochs(0.0))

    def test_timestamps_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PipelineConfig(epochs=self._epochs(0.0, 0.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            parse_config_text(
                "epochs:\n  - {path: a.ply, timestamp: 2026-02-01}\n"
                "  - {path: b.ply, timestamp: 2026-01-01}\n"
            )

    @pytest.mark.parametrize("bad", [".nan", ".inf", "-.inf"])
    def test_timestamps_finite(self, bad):
        # NaN defeats the strictly-increasing check: every comparison with
        # it is False.
        text = f"epochs:\n  - {{path: a.ply, timestamp: 0}}\n  - {{path: b.ply, timestamp: {bad}}}\n"
        with pytest.raises(ValueError, match="timestamps must be finite"):
            parse_config_text(text)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            PipelineConfig(epochs=self._epochs(float(bad.replace(".", "")), 1.0))

    def test_timestamp_kinds_must_not_mix(self):
        with pytest.raises(ValueError, match="mix"):
            PipelineConfig(epochs=self._epochs(0.0, datetime.date(2026, 1, 1)))
        with pytest.raises(ValueError, match="mix"):
            PipelineConfig(
                epochs=self._epochs(
                    datetime.date(2026, 1, 1), datetime.datetime(2026, 1, 2, 12)
                )
            )
        # Python refuses to order an aware datetime against a naive one.
        with pytest.raises(ValueError, match="mix incompatible kinds"):
            parse_config_text(MIXED_DATETIMES)

    def test_bad_timestamp_value(self):
        with pytest.raises(ValueError, match=r"epochs\[0\].timestamp"):
            parse_config_text(
                "epochs:\n  - {path: a.ply, timestamp: soon}\n  - {path: b.ply, timestamp: 1}\n"
            )

    def test_registration_mode_checked(self):
        with pytest.raises(ValueError, match="registration"):
            PipelineConfig(epochs=self._epochs(0.0, 1.0), registration="gicp")

    def test_scalar_bounds(self):
        with pytest.raises(ValueError, match="grid_size"):
            PipelineConfig(epochs=self._epochs(0.0, 1.0), grid_size=0.0)
        with pytest.raises(ValueError, match="threads"):
            PipelineConfig(epochs=self._epochs(0.0, 1.0), threads=0)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="grid_size: must be finite"):
                PipelineConfig(epochs=self._epochs(0.0, 1.0), grid_size=bad)

    @pytest.mark.parametrize("name", ["seed", "threads"])
    @pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "2"])
    def test_integer_fields_refuse_bool_and_non_integral(self, name, bad):
        # Config files refuse these when parsing; direct construction must
        # too, or a fractional thread count reaches the kd-tree.
        with pytest.raises(ValueError, match=f"{name}: expected an integer"):
            PipelineConfig(epochs=self._epochs(0.0, 1.0), **{name: bad})


class TestSerialization:
    def test_parse_serialize_parse_identity(self):
        for text in (
            MINIMAL,
            MINIMAL + "registration: icp\ndetection: {thresholds: [1.0, 2.0, 3.0, 4.0, 5.0]}\n",
            MINIMAL + "detection: {thresholds: 1e5}\n",
            # A string shaped like an exponent is quoted when serialized.
            MINIMAL + 'output_dir: "1e5"\n',
            MINIMAL.replace("timestamp: 0", "timestamp: 2026-01-01").replace(
                "timestamp: 10", "timestamp: 2026-01-31"
            ),
        ):
            config = parse_config_text(text)
            assert parse_config_text(serialize_config(config)) == config

    def test_every_field_non_default_round_trips(self):
        config = parse_config_text(
            textwrap.dedent(
                """
                epochs:
                  - {path: a.ply, timestamp: 2026-03-01}
                  - {path: b.ply, timestamp: 2026-03-11}
                registration: icp
                icp:
                  max_iterations: 9
                  convergence_threshold: 1.0e-5
                  rejection_distance: 0.25
                  trim_fraction: 0.3
                detection:
                  start_depth: 5
                  max_depth: 8
                  thresholds: [10.0, 20.0, 30.0, 40.0]
                  component_radius: 0.4
                  component_min_size: 7
                grid_size: 0.25
                output_dir: elsewhere
                seed: 5
                threads: 3
                """
            )
        )
        for params, default in ((config.icp, IcpParams()), (config.detection, ChangeParams())):
            for f in dataclasses.fields(params):
                assert getattr(params, f.name) != getattr(default, f.name), f.name
        for f in dataclasses.fields(PipelineConfig):
            if f.name != "epochs":
                assert getattr(config, f.name) != f.default, f.name
        text = serialize_config(config)
        assert parse_config_text(text) == config
        assert serialize_config(parse_config_text(text)) == text

    def test_numpy_integers_serialize(self):
        # Construction accepts numpy integers and keeps them as plain ints,
        # which the YAML dumper can write.
        config = PipelineConfig(
            epochs=(EpochInput("a.ply", 0.0), EpochInput("b.ply", 1.0)),
            seed=np.int64(4),
            threads=np.int64(2),
        )
        assert type(config.seed) is int and type(config.threads) is int
        parsed = parse_config_text(serialize_config(config))
        assert parsed == config
        assert (parsed.seed, parsed.threads) == (4, 2)

    def test_report_version_is_not_a_setting(self):
        # A config records the report format it was written with; only the
        # one this library writes parses, so no config stamps another.
        for value in ("4", "1", "2"):
            with pytest.raises(ValueError, match=r"^report_version: .*format 3 only"):
                parse_config_text(MINIMAL + f"report_version: {value}\n")
        config = parse_config_text(MINIMAL + "report_version: 3\n")
        assert config == parse_config_text(MINIMAL)
        assert config_to_dict(config)["report_version"] == 3
        assert not hasattr(config, "report_version")

    def test_serialized_config_is_complete(self):
        payload = config_to_dict(parse_config_text(MINIMAL))
        assert set(payload) == {
            "epochs",
            "registration",
            "icp",
            "detection",
            "grid_size",
            "output_dir",
            "report_version",
            "seed",
            "threads",
        }
        assert payload["detection"]["thresholds"] == ChangeParams().thresholds
        assert payload["icp"]["max_iterations"] == IcpParams().max_iterations
