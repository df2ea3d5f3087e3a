import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridfactor import read_system, synthesize_system, write_system
from gridfactor.serialize import (
    ManifestError,
    manifest_digest,
    read_series_csv,
    write_series_csv,
)
from gridfactor.sweep import spec_digest


class TestRoundTrip:
    def test_synthetic_spec_identical(self, tmp_path, small_spec):
        manifest = write_system(small_spec, tmp_path / "sys")
        back = read_system(manifest)
        assert back == small_spec

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, seed):
        spec = synthesize_system(seed=seed, n_countries=2, horizon=24, correlation=0.2)
        directory = tmp_path_factory.mktemp("sys")
        assert read_system(write_system(spec, directory)) == spec

    def test_series_csv_exact_floats(self, tmp_path):
        values = {"AA": np.array([0.1, 1 / 3, 7.25]), "AB": np.array([1e-17, 2.0, 3.0])}
        path = tmp_path / "s.csv"
        write_series_csv(path, values, 3)
        back = read_series_csv(path, 3)
        for k in values:
            assert np.array_equal(back[k], values[k])

    def test_unwritable_spec_leaves_no_file(self, tmp_path, small_spec):
        """The manifest is written first, so a spec it cannot hold leaves no series file."""
        line = dataclasses.replace(small_spec.interconnectors[0], ntc=float("inf"))
        spec = dataclasses.replace(small_spec, interconnectors=(line,))
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_system(spec, tmp_path / "sys")
        assert list((tmp_path / "sys").iterdir()) == []

    def test_invalid_spec_leaves_no_file(self, tmp_path):
        """A spec that ``read_system`` would refuse is refused before any file is written."""
        spec = synthesize_system(seed=7, n_countries=2, horizon=24)
        load = dict(spec.time_series.load)
        load["AA"] = load["AA"].copy()
        load["AA"][3] = np.inf
        spec = dataclasses.replace(
            spec, time_series=dataclasses.replace(spec.time_series, load=load)
        )
        with pytest.raises(
            ManifestError, match="invalid system:\n  country AA: yearly_load_total inconsistent"
        ):
            write_system(spec, tmp_path / "sys")
        assert not (tmp_path / "sys").exists()

    def test_series_csv_bytes(self, tmp_path):
        """Columns in name order, ``repr`` floats and ``\r\n`` line ends."""
        values = {"AB": np.array([0.1, 1e-16, -2.5]), "AA": np.array([1.0, 2.0, 3.0])}
        path = tmp_path / "s.csv"
        write_series_csv(path, values, 3)
        assert path.read_bytes() == b"hour,AA,AB\r\n0,1.0,0.1\r\n1,2.0,1e-16\r\n2,3.0,-2.5\r\n"


class TestRejection:
    def test_unknown_top_level_key(self, tmp_path, small_spec):
        manifest = write_system(small_spec, tmp_path / "sys")
        doc = json.loads(manifest.read_text())
        doc["surprise"] = 1
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="unknown keys"):
            read_system(manifest)

    def test_unknown_technology_key(self, tmp_path, small_spec):
        manifest = write_system(small_spec, tmp_path / "sys")
        doc = json.loads(manifest.read_text())
        doc["technologies"][0]["ramp_rate"] = 0.5
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="unknown keys"):
            read_system(manifest)

    @pytest.mark.parametrize(
        "where,key,message",
        [
            (None, "horizon", "missing keys in manifest: ['horizon']"),
            (None, "series", "missing keys in manifest: ['series']"),
            ("countries", "code", "missing keys in country entry: ['code']"),
            ("technologies", "kind", "missing keys in technology entry: ['kind']"),
            ("interconnectors", "ntc", "missing keys in interconnector entry: ['ntc']"),
            (
                "exogenous_capacities",
                "technology",
                "missing keys in exogenous capacity entry: ['technology']",
            ),
            ("series", "load", "missing keys in series entry: ['load']"),
        ],
    )
    def test_missing_key_named(self, tmp_path, small_spec, where, key, message):
        manifest = write_system(small_spec, tmp_path / "sys")
        doc = json.loads(manifest.read_text())
        parent = doc if where is None else doc[where]
        del (parent[0] if isinstance(parent, list) else parent)[key]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestError) as info:
            read_system(manifest)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("technologies", 0), 5, "technology entry 0 must be an object, got 5"),
            (("horizon",), "x", "horizon must be an integer, got 'x'"),
            (
                ("countries", 1, "yearly_load_total"),
                "lots",
                "country entry 1: yearly_load_total must be a number, got 'lots'",
            ),
            (
                ("interconnectors", 0, "ntc"),
                True,
                "interconnector entry 0: ntc must be a number, got True",
            ),
            (("countries",), 5, "countries must be a list, got 5"),
            (("series",), 5, "series entry must be an object, got 5"),
            (("series",), {"load": 5}, "series entry: load must be a string, got 5"),
            (
                ("series", "capacity_factors"),
                ["cf_solar_pv.csv"],
                "series entry: capacity_factors must be an object, got ['cf_solar_pv.csv']",
            ),
            (
                ("series", "capacity_factors", "solar_pv"),
                1,
                "series entry: capacity_factors: solar_pv must be a string, got 1",
            ),
            (
                ("offshore_overrides",),
                {"AA": 1.0},
                "offshore_overrides must be a list, got {'AA': 1.0}",
            ),
            (
                ("offshore_overrides",),
                [["AA"]],
                "offshore_overrides 0 must be [country code, number], got ['AA']",
            ),
            (
                ("offshore_overrides",),
                ["AA"],
                "offshore_overrides 0 must be [country code, number], got 'AA'",
            ),
            (
                ("offshore_overrides",),
                [["AA", "x"]],
                "offshore_overrides 0: capacity must be a number, got 'x'",
            ),
            (
                ("offshore_overrides",),
                [[1, 2.0]],
                "offshore_overrides 0: country code must be a string, got 1",
            ),
        ],
        ids=[
            "entry",
            "horizon",
            "number",
            "bool-as-number",
            "table",
            "series",
            "series-file",
            "capacity-factor-files",
            "capacity-factor-file",
            "overrides",
            "override-length",
            "override-pair",
            "override-number",
            "override-code",
        ],
    )
    def test_wrong_type_named(self, tmp_path, small_spec, path, value, message):
        manifest = write_system(small_spec, tmp_path / "sys")
        doc = json.loads(manifest.read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestError) as info:
            read_system(manifest)
        assert str(info.value) == message

    def test_wrong_schema(self, tmp_path, small_spec):
        manifest = write_system(small_spec, tmp_path / "sys")
        doc = json.loads(manifest.read_text())
        doc["schema"] = "gridfactor-system/99"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="unsupported schema"):
            read_system(manifest)

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        with pytest.raises(ManifestError, match="invalid JSON"):
            read_system(bad)

    def test_non_contiguous_hours(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("hour,AA\n0,1.0\n2,2.0\n")
        with pytest.raises(ManifestError, match="contiguous"):
            read_series_csv(path, 2)

    @pytest.mark.parametrize(
        "row,message",
        [
            ("1,abc,1.0", "line 3: could not convert string to float: 'abc'"),
            ("1.0,1.0,1.0", "line 3: hour '1.0' is not an integer"),
            ("1,1.0", "line 3: 2 fields, header has 3"),
            ("1,1.0,1.0,1.0", "line 3: 4 fields, header has 3"),
            ("1,nan,1.0", "line 3: value 'nan' is not finite"),
            ("1,1.0,inf", "line 3: value 'inf' is not finite"),
            ("1,-inf,1.0", "line 3: value '-inf' is not finite"),
        ],
        ids=["value", "hour", "short-row", "long-row", "nan", "inf", "-inf"],
    )
    def test_bad_row_named(self, tmp_path, row, message):
        path = tmp_path / "s.csv"
        path.write_text(f"hour,AA,AB\n0,1.0,2.0\n{row}\n")
        with pytest.raises(ManifestError) as info:
            read_series_csv(path, 2)
        assert str(info.value) == f"{path}, {message}"

    def test_repeated_column_named(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("hour,AA,AB,AA\n0,1.0,2.0,3.0\n")
        with pytest.raises(ManifestError) as info:
            read_series_csv(path, 1)
        assert str(info.value) == f"{path}: column 'AA' repeats in the header"

    @pytest.mark.parametrize("header", ["hour,AA,,AB", "hour,AA,AB,"])
    def test_unnamed_column_refused(self, tmp_path, header):
        path = tmp_path / "s.csv"
        path.write_text(f"{header}\n0,1.0,2.0,3.0\n")
        with pytest.raises(ManifestError) as info:
            read_series_csv(path, 1)
        column = header.split(",").index("") + 1
        assert str(info.value) == f"{path}: column {column} has no name"

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("hour,AA\n0,1.0\n")
        with pytest.raises(ManifestError, match="expected 3 rows"):
            read_series_csv(path, 3)


def test_schema_bytes_pinned(tmp_path):
    """Every ledger's ``manifest_hash`` and ``spec_hash`` rest on these bytes."""
    spec = synthesize_system(seed=7, n_countries=2, horizon=24)
    manifest = write_system(spec, tmp_path / "sys")
    assert (
        hashlib.sha256(manifest.read_bytes()).hexdigest()
        == "71e056236ff2054743730043dfabdffaa85d161c8909237fec169b09b5fc9841"
    )
    assert (
        manifest_digest(manifest)
        == "4726dd2e9fa2cacc531dbde8f0b7246a2c6720acd40372ceddb6f72b55f68870"
    )
    assert spec_digest(spec) == "0be45c122f7607af034a1f531c51d871543b389059928873cc4ad01a7f1b4324"
