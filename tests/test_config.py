"""Tests for run-configuration serialization and validation."""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from oracles import save_config, serialize, to_document
from pasdf.config import (
    BenchConfig,
    GridConfig,
    IoConfig,
    RepairConfig,
    RunConfig,
    ScoreConfig,
    deserialize,
    from_document,
    load_config,
)
from pasdf.encoding import EncodingConfig
from pasdf.errors import ConfigValidationError, InvalidParameterError
from pasdf.network import NetworkConfig
from pasdf.queries import QueryCounts
from pasdf.training import TrainConfig

# Left out of the document: the training seed derives from the root seed.
DERIVED_FIELDS = {("training", "seed")}


def sections(config: RunConfig):
    """(section name, section object) for every section of a config."""
    for section in dataclasses.fields(config):
        if section.name != "seed":
            yield section.name, getattr(config, section.name)


def every_field_changed() -> RunConfig:
    return RunConfig(
        seed=17,
        io=IoConfig(train_dir="a", test_dir="b", out_dir="c", labels="d.json"),
        counts=QueryCounts(volume=11, bbox=12, surface=13, bbox_expand=1.5),
        encoding=EncodingConfig(num_frequencies=4, include_input=False),
        network=NetworkConfig(
            input_dim=24, hidden_width=16, num_layers=5, skip_layer=2, dropout=0.1
        ),
        training=TrainConfig(
            learning_rate=0.01,
            epochs=3,
            batch_size=64,
            d_max=0.2,
            beta1=0.8,
            beta2=0.99,
            epsilon=1e-6,
            clamp_targets=True,
        ),
        grid=GridConfig(resolution=64),
        scoring=ScoreConfig(top_k=5),
        repair=RepairConfig(n_points=100, emd_subsample=32),
        bench=BenchConfig(
            shapes=("torus",),
            normal_cases=3,
            cloud_points=64,
            anomaly_kinds=("crop",),
            crop_cases=0,
            magnitude_frac=0.1,
            radius_frac=0.2,
            crop_radius_frac=0.3,
        ),
    )


class TestDefaults:
    def test_paper_defaults(self) -> None:
        config = RunConfig()
        assert config.training.d_max == 0.1
        assert config.training.learning_rate == 1e-5
        assert config.training.epochs == 2000
        assert config.scoring.top_k == 1000
        assert config.counts.volume == 10_000
        assert config.counts.bbox == 10_000
        assert config.counts.surface == 3_000
        assert config.counts.bbox_expand == 1.3
        assert config.network.hidden_width == 512
        assert config.network.num_layers == 8
        assert config.encoding.num_frequencies == 6

    def test_network_matches_encoding_by_default(self) -> None:
        config = RunConfig()
        assert config.network.input_dim == config.encoding.dim == 39


class TestRoundTrip:
    def test_object_round_trip_default(self) -> None:
        config = RunConfig()
        assert deserialize(serialize(config)) == config

    def test_object_round_trip_modified(self) -> None:
        config = RunConfig(
            seed=17,
            io=IoConfig(train_dir="a", test_dir="b", out_dir="c", labels="d.json"),
            grid=GridConfig(resolution=64),
            bench=BenchConfig(
                shapes=("sphere", "torus"),
                anomaly_kinds=("dent", "crop"),
            ),
        )
        assert deserialize(serialize(config)) == config

    def test_every_field_round_trips(self) -> None:
        config = every_field_changed()
        default = RunConfig()
        for name, section in sections(config):
            for field in dataclasses.fields(section):
                if (name, field.name) in DERIVED_FIELDS:
                    continue
                assert getattr(section, field.name) != getattr(
                    getattr(default, name), field.name
                ), f"{name}.{field.name} keeps its default"
        assert deserialize(serialize(config)) == config

    def test_document_lists_every_field(self) -> None:
        config = every_field_changed()
        document = to_document(config)
        assert list(document) == [f.name for f in dataclasses.fields(config)]
        for name, section in sections(config):
            expected = [
                f.name
                for f in dataclasses.fields(section)
                if (name, f.name) not in DERIVED_FIELDS
            ]
            assert list(document[name]) == expected

    def test_text_round_trip_is_stable(self) -> None:
        text = serialize(RunConfig(seed=5))
        assert serialize(deserialize(text)) == text

    def test_document_has_single_seed(self) -> None:
        document = to_document(RunConfig(seed=9))
        assert document["seed"] == 9
        assert "seed" not in document["training"]

    def test_save_and_load(self, tmp_path) -> None:
        config = RunConfig(seed=3)
        path = tmp_path / "run.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_serialized_floats_survive_json(self) -> None:
        document = json.loads(serialize(RunConfig()))
        assert document["counts"]["bbox_expand"] == 1.3
        assert document["training"]["learning_rate"] == 1e-5


class TestDeserialization:
    def test_empty_document_is_all_defaults(self) -> None:
        assert from_document({}) == RunConfig()

    def test_partial_section_keeps_other_defaults(self) -> None:
        config = from_document({"training": {"epochs": 7}})
        assert config.training.epochs == 7
        assert config.training.learning_rate == 1e-5

    def test_unknown_top_level_key_rejected(self) -> None:
        with pytest.raises(ConfigValidationError, match="unknown key 'extra'"):
            from_document({"extra": 1})

    def test_unknown_section_key_rejected(self) -> None:
        with pytest.raises(ConfigValidationError, match="training.extra"):
            from_document({"training": {"extra": 1}})

    def test_wrong_type_rejected(self) -> None:
        with pytest.raises(ConfigValidationError, match="training.epochs"):
            from_document({"training": {"epochs": "many"}})
        with pytest.raises(ConfigValidationError, match="expected an integer"):
            from_document({"training": {"epochs": 2.5}})
        with pytest.raises(ConfigValidationError, match="seed"):
            from_document({"seed": True})

    def test_section_must_be_object(self) -> None:
        with pytest.raises(ConfigValidationError, match="^grid: expected a JSON object"):
            from_document({"grid": 64})

    def test_zero_grid_resolution_rejected_before_any_work(self) -> None:
        with pytest.raises(ConfigValidationError, match="resolution"):
            from_document({"grid": {"resolution": 0}})

    def test_grid_resolution_bounds_are_the_grid_spec_bounds(self) -> None:
        assert from_document({"grid": {"resolution": 892}}).grid.resolution == 892
        for resolution in (7, 893):
            with pytest.raises(ConfigValidationError, match=r"\[8, 892\]"):
                from_document({"grid": {"resolution": resolution}})

    def test_out_of_range_value_reports_section(self) -> None:
        with pytest.raises(ConfigValidationError, match="scoring"):
            from_document({"scoring": {"top_k": 0}})

    def test_align_section_rejected(self) -> None:
        # Alignment takes no settings; an old document naming them fails
        # loudly rather than having its values silently ignored.
        with pytest.raises(ConfigValidationError, match="unknown key 'align'"):
            from_document({"align": {"chamfer_threshold": 0.016}})

    def test_nulls_where_allowed(self) -> None:
        config = from_document(
            {
                "io": {"labels": None},
                "network": {"skip_layer": None},
            }
        )
        assert config.io.labels is None
        assert config.network.skip_layer is None

    @pytest.mark.parametrize(
        "text",
        [
            '{"training": {"learning_rate": NaN}}',
            '{"training": {"d_max": Infinity}}',
            '{"training": {"epsilon": -Infinity}}',
            '{"bench": {"magnitude_frac": NaN}}',
            '{"counts": {"bbox_expand": 1e400}}',
            '{"training": {"learning_rate": 1%s}}' % ("0" * 400),
        ],
    )
    def test_non_finite_number_rejected(self, text: str) -> None:
        # json.loads parses NaN and Infinity, reads 1e400 as inf, and
        # reads a 401-digit literal as an int that no float holds.
        with pytest.raises(ConfigValidationError, match="expected a finite number"):
            deserialize(text)

    def test_invalid_json_rejected(self) -> None:
        with pytest.raises(ConfigValidationError, match="not valid JSON"):
            deserialize("{nope")

    def test_non_object_document_rejected(self) -> None:
        with pytest.raises(ConfigValidationError, match="JSON object"):
            deserialize("[1, 2]")

    def test_shipped_configs_load(self) -> None:
        shipped = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
        assert shipped
        for path in shipped:
            assert isinstance(load_config(path), RunConfig), path

    def test_missing_file_names_path(self, tmp_path) -> None:
        missing = tmp_path / "absent.json"
        with pytest.raises(FileNotFoundError, match="absent.json"):
            load_config(missing)


class TestCrossValidation:
    def test_network_encoding_mismatch_rejected(self) -> None:
        with pytest.raises(ConfigValidationError, match="input_dim"):
            RunConfig(encoding=EncodingConfig(num_frequencies=4))

    def test_matching_override_accepted(self) -> None:
        config = RunConfig(
            encoding=EncodingConfig(num_frequencies=4),
            network=NetworkConfig(input_dim=27, hidden_width=64),
        )
        assert config.network.input_dim == 27

    def test_negative_seed_rejected(self) -> None:
        with pytest.raises(ConfigValidationError):
            from_document({"seed": -1})


class TestBenchConfig:
    def test_empty_kind_list_rejected(self) -> None:
        with pytest.raises(ConfigValidationError, match="anomaly_kinds"):
            from_document({"bench": {"anomaly_kinds": []}})

    def test_case_count_key_rejected(self) -> None:
        with pytest.raises(
            ConfigValidationError, match="unknown key 'bench.anomalous_cases'"
        ):
            from_document({"bench": {"anomalous_cases": 10}})

    def test_unknown_shape_rejected(self) -> None:
        with pytest.raises(ConfigValidationError, match="teapot"):
            from_document({"bench": {"shapes": ["teapot"]}})

    def test_unknown_anomaly_kind_rejected(self) -> None:
        document = {"bench": {"anomaly_kinds": ["scratch"]}}
        with pytest.raises(ConfigValidationError, match="scratch"):
            from_document(document)

    @pytest.mark.parametrize("name", ["magnitude_frac", "radius_frac", "crop_radius_frac"])
    def test_nan_size_rejected(self, name: str) -> None:
        with pytest.raises(InvalidParameterError, match=name):
            BenchConfig(**{name: float("nan")})

    def test_default_mix_covers_every_kind(self) -> None:
        bench = BenchConfig()
        assert set(bench.anomaly_kinds) == {"dent", "bulge", "noise_patch"}
        # Crops run on their own repair track rather than the ranking pool.
        assert bench.crop_cases >= 1


class TestImmutability:
    def test_frozen(self) -> None:
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 1  # type: ignore[misc]
