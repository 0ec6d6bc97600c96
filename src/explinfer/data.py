"""Tabular CSV ingestion, encoding, sensitive-attribute handling and splits.

A schema names the feature columns (numeric or categorical), the label
column and the sensitive column. Encoding one-hots categoricals with a
vocabulary fitted on the training split and z-scores numerics with training
statistics, so nothing from the held-out splits leaks into the
representation. The sensitive attribute is binarized from the schema and is
included in the feature matrix only when the threat model allows it.

Splits follow a fixed topology: 70% trains the target model, the remaining
30% is the test set, split in half into the adversary's auxiliary set and
the held-out evaluation set.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


class SchemaError(ValueError):
    """The schema file or its relationship to the CSV is invalid."""


class DataError(ValueError):
    """A data value cannot be interpreted under the schema."""


MISSING_MARKERS = {"", "?", "NA", "N/A", "na", "null", "None"}

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass
class TabularSchema:
    columns: list[tuple[str, str]]  # feature columns only: (name, kind)
    label_column: str
    sensitive_column: str
    sensitive_positive_value: str | None = None
    binarization_map: dict[str, int] | None = None
    label_positive_value: str | None = None

    def validate(self) -> None:
        names = [n for n, _ in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature column names")
        for n, kind in self.columns:
            if kind not in (NUMERIC, CATEGORICAL):
                raise SchemaError(f"column {n!r} has unknown kind {kind!r}")
        if self.label_column in names or self.sensitive_column in names:
            raise SchemaError("label and sensitive columns must not be listed as features")
        if self.label_column == self.sensitive_column:
            raise SchemaError("label and sensitive columns must differ")
        if self.sensitive_positive_value is None and not self.binarization_map:
            raise SchemaError(
                "need sensitive_positive_value or binarization_map to binarize s")
        if self.binarization_map is not None:
            if any(v not in (0, 1) for v in self.binarization_map.values()):
                raise SchemaError("binarization_map values must be 0 or 1")

    @property
    def feature_names(self) -> list[str]:
        return [n for n, _ in self.columns]

    @classmethod
    def from_json(cls, path: str) -> "TabularSchema":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            schema = cls(
                columns=[(c["name"], c["kind"]) for c in raw["columns"]],
                label_column=raw["label_column"],
                sensitive_column=raw["sensitive_column"],
                sensitive_positive_value=raw.get("sensitive_positive_value"),
                binarization_map=raw.get("binarization_map"),
                label_positive_value=raw.get("label_positive_value"),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema file {path}: {exc}") from exc
        schema.validate()
        return schema

    def to_json(self, path: str) -> None:
        write_json(path, {
            "columns": [{"name": n, "kind": k} for n, k in self.columns],
            "label_column": self.label_column,
            "sensitive_column": self.sensitive_column,
            "sensitive_positive_value": self.sensitive_positive_value,
            "binarization_map": self.binarization_map,
            "label_positive_value": self.label_positive_value,
        })


def write_csv(path: str, rows) -> None:
    """One comma-joined line per row of values (a header row, then data
    rows): a float as repr, which reads back bit-exact, anything else as
    str. Nothing is quoted, so a one-cell row is written verbatim."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row) + "\n" for row in rows)


def write_json(path: str, obj) -> None:
    """Indented JSON with sorted keys, so equal objects give equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RawTable:
    """Typed rows for the schema columns; missing-value rows already dropped."""

    feature_rows: list[list]  # per row, values aligned with schema.columns
    sensitive_raw: list[str]
    label_raw: list[str]
    row_ids: list[int]
    n_dropped_missing: int

    @property
    def n_rows(self) -> int:
        return len(self.feature_rows)

    def select(self, indices) -> "RawTable":
        idx = [int(i) for i in indices]
        return RawTable(
            feature_rows=[self.feature_rows[i] for i in idx],
            sensitive_raw=[self.sensitive_raw[i] for i in idx],
            label_raw=[self.label_raw[i] for i in idx],
            row_ids=[self.row_ids[i] for i in idx],
            n_dropped_missing=0,
        )


def load_csv(path: str, schema: TabularSchema) -> RawTable:
    """Read and type-check the CSV; rows with missing schema values are
    dropped and counted."""
    schema.validate()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty CSV file: {path}")
        header = [h.strip() for h in header]
        needed = schema.feature_names + [schema.label_column, schema.sensitive_column]
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"CSV is missing schema columns: {missing}")
        col_idx = {c: header.index(c) for c in needed}

        feature_rows, sensitive_raw, label_raw, row_ids = [], [], [], []
        n_dropped = 0
        row_id = 0
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            # a short row lacks its last values: "" is a missing marker
            values = {c: row[col_idx[c]].strip() if col_idx[c] < len(row) else ""
                      for c in needed}
            if any(v in MISSING_MARKERS for v in values.values()):
                n_dropped += 1
                continue
            typed = []
            for name, kind in schema.columns:
                v = values[name]
                if kind == NUMERIC:
                    try:
                        typed.append(float(v))
                    except ValueError:
                        raise DataError(
                            f"{path}:{line_no}: column {name!r} has "
                            f"non-numeric value {v!r}")
                else:
                    typed.append(v)
            feature_rows.append(typed)
            sensitive_raw.append(values[schema.sensitive_column])
            label_raw.append(values[schema.label_column])
            row_ids.append(row_id)
            row_id += 1
    if not feature_rows:
        raise DataError(f"no usable rows in {path}")
    return RawTable(feature_rows, sensitive_raw, label_raw, row_ids, n_dropped)


@dataclass
class EncodingStats:
    """Standardization moments and categorical vocabularies fitted on one split."""

    numeric_mean: dict[str, float]
    numeric_std: dict[str, float]
    vocabularies: dict[str, list[str]]


def fit_encoding(table: RawTable, schema: TabularSchema) -> EncodingStats:
    numeric_mean, numeric_std, vocabularies = {}, {}, {}
    for j, (name, kind) in enumerate(schema.columns):
        col = [row[j] for row in table.feature_rows]
        if kind == NUMERIC:
            arr = np.asarray(col, dtype=np.float64)
            mean = float(arr.mean())
            std = float(arr.std())
            numeric_mean[name] = mean
            # constant columns encode to zero rather than dividing by zero
            numeric_std[name] = std if std > 0 else 1.0
        else:
            vocabularies[name] = sorted(set(col))
    return EncodingStats(numeric_mean, numeric_std, vocabularies)


def _binarize_sensitive(values: list[str], schema: TabularSchema) -> np.ndarray:
    if schema.binarization_map is not None:
        out = []
        for v in values:
            if v not in schema.binarization_map:
                raise DataError(
                    f"sensitive value {v!r} not covered by binarization_map")
            out.append(float(schema.binarization_map[v]))
        return np.asarray(out)
    if schema.sensitive_positive_value is not None:
        return np.asarray(
            [1.0 if v == schema.sensitive_positive_value else 0.0 for v in values])
    raise SchemaError("schema cannot binarize the sensitive column")


def _binarize_label(values: list[str], schema: TabularSchema) -> np.ndarray:
    if schema.label_positive_value is not None:
        return np.asarray(
            [1.0 if v == schema.label_positive_value else 0.0 for v in values])
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            f = float(v)
        except ValueError:
            raise DataError(
                f"label value {v!r} is not 0/1 and no label_positive_value is set")
        if f not in (0.0, 1.0):
            raise DataError(f"numeric label must be 0 or 1, got {v!r}")
        out[i] = f
    return out


@dataclass
class TabularDataset:
    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    column_groups: dict[str, list[int]]
    row_ids: np.ndarray
    unknown_category_count: int = 0

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_columns(self) -> int:
        return self.features.shape[1]


def encode(
    table: RawTable,
    schema: TabularSchema,
    include_sensitive: bool,
    stats: EncodingStats,
) -> TabularDataset:
    """Encode a typed table into the model's feature matrix.

    Numerics are z-scored and categoricals one-hot encoded against `stats`,
    from fit_encoding on the training split. A categorical value unseen at fit
    time encodes as the all-zero pattern within its indicator group and is
    counted. The binarized sensitive attribute becomes one 0/1 column iff
    include_sensitive.
    """
    schema.validate()

    blocks: list[np.ndarray] = []
    column_groups: dict[str, list[int]] = {}
    next_col = 0
    unknown = 0
    n = table.n_rows
    for j, (name, kind) in enumerate(schema.columns):
        col = [row[j] for row in table.feature_rows]
        if kind == NUMERIC:
            if name not in stats.numeric_mean:
                raise SchemaError(f"statistics missing numeric column {name!r}")
            arr = (np.asarray(col, dtype=np.float64) - stats.numeric_mean[name]) / (
                stats.numeric_std[name])
            blocks.append(arr[:, None])
            column_groups[name] = [next_col]
            next_col += 1
        else:
            vocab = stats.vocabularies.get(name)
            if vocab is None:
                raise SchemaError(f"statistics missing categorical column {name!r}")
            lookup = {v: k for k, v in enumerate(vocab)}
            block = np.zeros((n, len(vocab)))
            for r, v in enumerate(col):
                k = lookup.get(v)
                if k is None:
                    unknown += 1
                else:
                    block[r, k] = 1.0
            blocks.append(block)
            column_groups[name] = list(range(next_col, next_col + len(vocab)))
            next_col += len(vocab)

    sensitive = _binarize_sensitive(table.sensitive_raw, schema)
    if include_sensitive:
        blocks.append(sensitive[:, None])
        column_groups[schema.sensitive_column] = [next_col]
        next_col += 1

    return TabularDataset(
        features=np.hstack(blocks) if blocks else np.zeros((n, 0)),
        labels=_binarize_label(table.label_raw, schema),
        sensitive=sensitive,
        column_groups=column_groups,
        row_ids=np.asarray(table.row_ids, dtype=np.int64),
        unknown_category_count=unknown,
    )


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded shuffle then contiguous 70/15/15 slices (train, aux, eval)."""
    if n < 10:
        raise ValueError(f"need at least 10 rows to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.7 * n))
    rest = perm[n_train:]
    n_aux = len(rest) // 2
    return perm[:n_train], rest[:n_aux], rest[n_aux:]


@dataclass
class DatasetSplits:
    target_train: TabularDataset
    aux: TabularDataset
    eval: TabularDataset


def sensitive_base_rate(ds: TabularDataset) -> float:
    """Fraction of rows whose sensitive attribute is 1."""
    if ds.n_rows == 0:
        raise ValueError("empty dataset has no base rate")
    return float(np.mean(ds.sensitive))
