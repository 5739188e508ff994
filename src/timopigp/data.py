"""Observation containers and CSV serialization.

Dataset CSV schema: header ``quantity,x,z,value,dataset_id``; quantity is one
of {w, phi, eps, M, V, q}; z is empty unless quantity = eps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from timopigp.errors import DataFormatError
from timopigp.quantities import QuantityKind

CSV_HEADER = ["quantity", "x", "z", "value", "dataset_id"]


def _check_finite(owner, *names) -> None:
    """Raise ValueError naming the first field with an inf or NaN value."""
    for name in names:
        values = getattr(owner, name)
        if values is not None and not np.isfinite(values).all():
            bad = float(values[~np.isfinite(values)][0])
            raise ValueError(f"{name} must be finite, got {bad!r}")


@dataclass
class Dataset:
    """One homogeneous block of observations of a single quantity."""

    kind: QuantityKind
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None
    sigma_n: float = 0.0
    learn_noise: bool = False
    label: str = ""

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if self.z is not None:
            self.z = np.broadcast_to(
                np.asarray(self.z, dtype=float), self.x.shape).copy()
        if self.x.shape != self.y.shape or self.x.size < 1:
            raise ValueError("x and y must be equal-length, non-empty vectors")
        _check_finite(self, "x", "y", "z")
        if not 0 <= self.sigma_n < math.inf:
            raise ValueError(f"sigma_n must be non-negative and finite, "
                             f"got {self.sigma_n!r}")
        if self.kind is QuantityKind.STRAIN and self.z is None:
            raise ValueError("strain datasets require depths z")

    def __len__(self) -> int:
        return self.x.size


@dataclass
class BoundaryCondition:
    """Artificial noiseless observations enforcing support constraints."""

    kind: QuantityKind
    x: np.ndarray
    y: np.ndarray | None = None
    z: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if self.y is None:
            self.y = np.zeros_like(self.x)
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if self.z is not None:
            self.z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if self.y.shape != self.x.shape:
            raise ValueError(f"boundary condition has {self.y.size} values "
                             f"for {self.x.size} locations")
        _check_finite(self, "x", "y", "z")

    def as_dataset(self) -> Dataset:
        return Dataset(kind=self.kind, x=self.x, y=self.y, z=self.z,
                       sigma_n=0.0, learn_noise=False, label="__bc__")


def write_datasets_csv(path, datasets: list[Dataset]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i, ds in enumerate(datasets):
            ds_id = ds.label or f"ds{i}"
            for j in range(len(ds)):
                z = "" if ds.z is None else repr(float(ds.z[j]))
                writer.writerow([ds.kind.code, repr(float(ds.x[j])), z,
                                 repr(float(ds.y[j])), ds_id])


def read_datasets_csv(path) -> list[Dataset]:
    """Parse a dataset CSV, grouping rows by dataset_id in file order."""
    groups: dict[str, dict] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(path, 1, "empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataFormatError(path, 1,
                                  f"expected header {','.join(CSV_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise DataFormatError(path, line_no,
                                      f"expected 5 fields, got {len(row)}")
            code, xs, zs, vs, ds_id = [c.strip() for c in row]
            try:
                kind = QuantityKind.from_code(code)
                x = float(xs)
                value = float(vs)
                z = float(zs) if zs else None
            except ValueError as exc:
                raise DataFormatError(path, line_no, str(exc)) from None
            for name, v in (("x", x), ("value", value), ("z", z)):
                if v is not None and not math.isfinite(v):
                    raise DataFormatError(path, line_no,
                                          f"{name} must be finite, got {v!r}")
            if kind is QuantityKind.STRAIN and z is None:
                raise DataFormatError(path, line_no,
                                      "strain rows require a z value")
            grp = groups.setdefault(ds_id, {"kind": kind, "x": [], "y": [],
                                            "z": []})
            if grp["kind"] is not kind:
                raise DataFormatError(
                    path, line_no,
                    f"dataset {ds_id!r} mixes quantities "
                    f"{grp['kind'].code} and {kind.code}")
            grp["x"].append(x)
            grp["y"].append(value)
            grp["z"].append(z)

    datasets = []
    for ds_id, grp in groups.items():
        z = None
        if grp["kind"] is QuantityKind.STRAIN:
            z = np.array(grp["z"], dtype=float)
        datasets.append(Dataset(kind=grp["kind"], x=np.array(grp["x"]),
                                y=np.array(grp["y"]), z=z, label=ds_id))
    return datasets
