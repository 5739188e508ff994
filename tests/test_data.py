"""Tests for the observation containers and the dataset CSV reader."""

import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from timopigp.data import (MAP_CHUNK_ROWS, BoundaryCondition, Dataset,
                           read_datasets_csv, write_csv, write_datasets_csv,
                           write_map_csv)
from timopigp.errors import DataFormatError
from timopigp.quantities import QuantityKind

W = QuantityKind.DEFLECTION
EPS = QuantityKind.STRAIN


class TestDataset:
    @pytest.mark.parametrize("field,kw", [
        ("x", dict(x=[0.1, np.nan], y=[0.0, 0.0])),
        ("x", dict(x=[0.1, np.inf], y=[0.0, 0.0])),
        ("y", dict(x=[0.1, 0.2], y=[-np.inf, 0.0])),
        ("z", dict(x=[0.1, 0.2], y=[0.0, 0.0], z=[0.05, np.nan])),
        ("sigma_n", dict(x=[0.1], y=[0.0], sigma_n=np.nan)),
        ("sigma_n", dict(x=[0.1], y=[0.0], sigma_n=np.inf))])
    def test_non_finite_rejected_by_name(self, field, kw):
        with pytest.raises(ValueError, match=f"{field} must be"):
            Dataset(kind=EPS if "z" in kw else W, **kw)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Dataset(kind=W, x=[0.1], y=[0.0], sigma_n=-0.1)


class TestBoundaryCondition:
    def test_zero_values_by_default(self):
        bc = BoundaryCondition(kind=W, x=[0.0, 1.0])
        np.testing.assert_array_equal(bc.y, [0.0, 0.0])

    def test_is_a_noiseless_dataset(self):
        bc = BoundaryCondition(kind=EPS, x=[0.0, 1.0], y=[0.5, -0.5],
                               z=0.05)
        assert isinstance(bc, Dataset)
        assert bc.sigma_n == 0.0 and not bc.learn_noise
        assert bc.label == "__bc__"
        np.testing.assert_array_equal(bc.y, [0.5, -0.5])
        np.testing.assert_array_equal(bc.z, [0.05, 0.05])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            BoundaryCondition(kind=W, x=[0.0, 1.0], y=[0.0, 0.0, 0.0])

    def test_empty_locations_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            BoundaryCondition(kind=W, x=[])

    @pytest.mark.parametrize("field,kw", [
        ("x", dict(x=[0.0, np.inf])),
        ("y", dict(x=[0.0, 1.0], y=[np.nan, 0.0])),
        ("z", dict(x=[0.0, 1.0], z=[0.05, -np.inf]))])
    def test_non_finite_rejected_by_name(self, field, kw):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BoundaryCondition(kind=W, **kw)


class TestCsv:
    def test_round_trip(self, tmp_path):
        ds = [Dataset(kind=W, x=[0.1, 0.5], y=[0.01, 0.02], label="w"),
              Dataset(kind=EPS, x=[0.3], y=[1e-4], z=[0.05], label="e")]
        path = tmp_path / "d.csv"
        write_datasets_csv(path, ds)
        back = read_datasets_csv(path, 1.0)
        assert [d.label for d in back] == ["w", "e"]
        np.testing.assert_array_equal(back[0].y, ds[0].y)
        np.testing.assert_array_equal(back[1].z, ds[1].z)

    @pytest.mark.parametrize("row,field", [("w,0.5,,nan,w", "value"),
                                           ("w,-inf,,0.0,w", "x"),
                                           ("eps,0.5,inf,0.0,e", "z")])
    def test_non_finite_names_file_line_and_field(self, tmp_path, row,
                                                  field):
        path = tmp_path / "d.csv"
        path.write_text("quantity,x,z,value,dataset_id\n"
                        "w,0.1,,0.0,w\n" + row + "\n")
        with pytest.raises(DataFormatError,
                           match=f"d.csv:3: {field} must be finite"):
            read_datasets_csv(path, 1.0)


def _reference_field(value) -> str:
    """A field as CSVs were once formatted: a string as is, None as empty
    and a number as the repr of its Python value."""
    if value is None or isinstance(value, str):
        return value or ""
    return repr(value.item() if isinstance(value, np.generic) else value)


FIELDS = st.one_of(
    st.none(), st.sampled_from(["w", "phi", "", "a,b", 'q"t', "ds 0"]),
    st.floats(), st.floats().map(np.float64), st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.sampled_from([1e16, 5e-324, -0.0, np.float64(-0.0), np.float64(1e16),
                     np.float64(5e-324)]))


@given(rows=st.lists(st.lists(FIELDS, min_size=1, max_size=5), max_size=6))
def test_write_csv_matches_reference_fields(tmp_path_factory, rows):
    """``csv.writer`` fed the values themselves writes the bytes that the
    field-by-field formatting wrote, floats of both types included."""
    d = tmp_path_factory.mktemp("csv")
    write_csv(d / "got.csv", ["h"], rows)
    with open(d / "want.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h"])
        writer.writerows([_reference_field(v) for v in row] for row in rows)
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


def _reference_map(path, n, k, values):
    """An entropy map as ``csv.writer`` writes it, field by field."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subset", "normalized_entropy"])
        writer.writerows(("|".join(map(str, subset)), value) for subset, value
                         in zip(itertools.combinations(range(n), k), values))
    return path.read_bytes()


MAP_VALUES = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([0.0, 1.0, 5e-324, 1e-16, math.nan]))


@st.composite
def entropy_maps(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    size = math.comb(n, k)
    return n, k, draw(st.lists(MAP_VALUES, min_size=size, max_size=size))


@given(entropy_map=entropy_maps(), n_files=st.integers(1, 3),
       as_array=st.booleans())
@example(entropy_map=(5, 1, [0.0, 1.0, 5e-324, 1e-16, math.nan]),
         n_files=2, as_array=True)
@example(entropy_map=(4, 4, [0.5]), n_files=1, as_array=False)
@example(entropy_map=(12, 12, [1.0]), n_files=3, as_array=True)
def test_map_writer_matches_csv_writer(tmp_path_factory, entropy_map,
                                       n_files, as_array):
    """Every file the map writer writes, from a list or from the float64
    array a map is, holds the bytes of ``csv.writer`` fed the subsets'
    labels and the values field by field."""
    n, k, values = entropy_map
    d = tmp_path_factory.mktemp("map")
    paths = [d / f"got{i}.csv" for i in range(n_files)]
    write_map_csv(paths, n, k, np.array(values) if as_array else values)
    want = _reference_map(d / "want.csv", n, k, values)
    assert [path.read_bytes() for path in paths] == [want] * n_files


def test_map_larger_than_a_chunk(tmp_path):
    """A map of several chunks is written whole, in subset order."""
    n, k = 50, 3
    assert MAP_CHUNK_ROWS < math.comb(n, k) < 2 * MAP_CHUNK_ROWS
    values = np.random.default_rng(0).random(math.comb(n, k)).tolist()
    values[::997] = [0.0, 1.0, 5e-324, 1e-16, math.nan] * 4
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    write_map_csv(paths, n, k, values)
    want = _reference_map(tmp_path / "want.csv", n, k, values)
    assert paths[0].read_bytes() == paths[1].read_bytes() == want


def test_map_of_the_wrong_size_refused(tmp_path):
    with pytest.raises(ValueError, match="5 values for the C\\(4, 2\\)"):
        write_map_csv([tmp_path / "m.csv"], 4, 2, [0.0] * 5)
    assert not (tmp_path / "m.csv").exists()
