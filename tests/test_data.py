import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from explinfer import data
from explinfer.data import (DataError, RawTable, SchemaError, TabularSchema,
                            encode, fit_encoding, load_csv, sensitive_base_rate,
                            split_indices)
from explinfer.synth import write_synthetic_dataset


def toy_schema():
    return TabularSchema(
        columns=[("age", "numeric"), ("job", "categorical")],
        label_column="outcome",
        sensitive_column="minority",
        sensitive_positive_value="yes",
        label_positive_value="pos",
    )


def write_csv(path, rows, header="age,job,minority,outcome"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        p = write_csv(tmp_path / "t.csv",
                      ["30,nurse,yes,pos", "40,clerk,no,neg", "50,nurse,no,pos"])
        table = load_csv(p, toy_schema())
        assert table.n_rows == 3
        assert table.feature_rows[0] == [30.0, "nurse"]
        assert table.n_dropped_missing == 0

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["30,nurse,yes"], header="age,job,minority")
        with pytest.raises(SchemaError):
            load_csv(p, toy_schema())

    def test_missing_values_dropped_and_counted(self, tmp_path):
        p = write_csv(tmp_path / "t.csv",
                      ["30,nurse,yes,pos", "?,clerk,no,neg", "50,,no,pos",
                       "20,clerk,yes,neg"])
        table = load_csv(p, toy_schema())
        assert table.n_rows == 2
        assert table.n_dropped_missing == 2

    def test_short_row_dropped_and_counted(self, tmp_path):
        # a row that ends before the label and sensitive columns lacks them
        p = write_csv(tmp_path / "t.csv", ["30,nurse,yes,pos", "40,clerk", "50,nurse,no"])
        table = load_csv(p, toy_schema())
        assert table.n_rows == 1
        assert table.n_dropped_missing == 2

    def test_unparseable_numeric(self, tmp_path):
        p = write_csv(tmp_path / "t.csv", ["thirty,nurse,yes,pos"])
        with pytest.raises(DataError):
            load_csv(p, toy_schema())

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv(str(p), toy_schema())

    def test_row_ids_sequential_after_filtering(self, tmp_path):
        p = write_csv(tmp_path / "t.csv",
                      ["30,nurse,yes,pos", "?,clerk,no,neg", "50,aide,no,pos"])
        table = load_csv(p, toy_schema())
        assert table.row_ids == [0, 1]


class TestEncode:
    def make_table(self):
        return RawTable(
            feature_rows=[[1.0, "a"], [2.0, "b"], [3.0, "a"], [6.0, "b"]],
            sensitive_raw=["yes", "no", "no", "yes"],
            label_raw=["pos", "neg", "pos", "neg"],
            row_ids=[0, 1, 2, 3],
            n_dropped_missing=0,
        )

    def test_two_value_categorical_gives_two_indicators(self):
        ds = encode(self.make_table(), toy_schema(), include_sensitive=False,
                    stats=fit_encoding(self.make_table(), toy_schema()))
        job_cols = ds.column_groups["job"]
        assert len(job_cols) == 2
        assert np.all(ds.features[:, job_cols].sum(axis=1) == 1.0)

    def test_censoring_excludes_sensitive_group(self):
        ds = encode(self.make_table(), toy_schema(), include_sensitive=False,
                    stats=fit_encoding(self.make_table(), toy_schema()))
        assert "minority" not in ds.column_groups
        assert ds.n_columns == 3

    def test_sensitive_included_as_single_column(self):
        ds = encode(self.make_table(), toy_schema(), include_sensitive=True,
                    stats=fit_encoding(self.make_table(), toy_schema()))
        cols = ds.column_groups["minority"]
        assert len(cols) == 1
        assert np.array_equal(ds.features[:, cols[0]], ds.sensitive)

    def test_standardized_numeric_moments(self):
        ds = encode(self.make_table(), toy_schema(), include_sensitive=False,
                    stats=fit_encoding(self.make_table(), toy_schema()))
        col = ds.features[:, ds.column_groups["age"][0]]
        # recompute moments independently
        assert abs(sum(col) / len(col)) <= 1e-9
        var = sum(v * v for v in col) / len(col) - (sum(col) / len(col)) ** 2
        assert abs(var**0.5 - 1.0) <= 1e-9

    def test_train_statistics_reused_verbatim(self):
        table = self.make_table()
        stats = fit_encoding(table, toy_schema())
        other = RawTable(
            feature_rows=[[10.0, "a"]], sensitive_raw=["no"], label_raw=["pos"],
            row_ids=[0], n_dropped_missing=0)
        ds = encode(other, toy_schema(), include_sensitive=False, stats=stats)
        expected = (10.0 - stats.numeric_mean["age"]) / stats.numeric_std["age"]
        assert ds.features[0, ds.column_groups["age"][0]] == pytest.approx(expected)

    def test_unseen_category_zero_pattern_and_counted(self):
        table = self.make_table()
        stats = fit_encoding(table, toy_schema())
        other = RawTable(
            feature_rows=[[2.0, "zzz"]], sensitive_raw=["no"], label_raw=["neg"],
            row_ids=[0], n_dropped_missing=0)
        ds = encode(other, toy_schema(), include_sensitive=False, stats=stats)
        assert np.all(ds.features[0, ds.column_groups["job"]] == 0.0)
        assert ds.unknown_category_count == 1

    def test_binarization_map(self):
        schema = toy_schema()
        schema.sensitive_positive_value = None
        schema.binarization_map = {"yes": 1, "no": 0}
        ds = encode(self.make_table(), schema, include_sensitive=False,
                    stats=fit_encoding(self.make_table(), schema))
        assert np.array_equal(ds.sensitive, np.array([1.0, 0.0, 0.0, 1.0]))

    def test_unmapped_sensitive_value_rejected(self):
        schema = toy_schema()
        schema.sensitive_positive_value = None
        schema.binarization_map = {"yes": 1}
        with pytest.raises(DataError):
            encode(self.make_table(), schema, include_sensitive=False,
                   stats=fit_encoding(self.make_table(), schema))

    def test_labels_binarized(self):
        ds = encode(self.make_table(), toy_schema(), include_sensitive=False,
                    stats=fit_encoding(self.make_table(), toy_schema()))
        assert np.array_equal(ds.labels, np.array([1.0, 0.0, 1.0, 0.0]))


class TestSplit:
    def test_exact_70_15_15(self):
        train, aux, ev = split_indices(100, seed=0)
        assert len(train) == 70 and len(aux) == 15 and len(ev) == 15

    def test_deterministic(self):
        a = split_indices(57, seed=9)
        b = split_indices(57, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_partition(self):
        train, aux, ev = split_indices(83, seed=3)
        joined = np.concatenate([train, aux, ev])
        assert sorted(joined) == list(range(83))

    def test_proportions_within_one_row(self):
        for n in (10, 33, 101, 999):
            train, aux, ev = split_indices(n, seed=1)
            assert abs(len(train) - 0.7 * n) <= 1
            assert abs(len(aux) - 0.15 * n) <= 1
            assert abs(len(ev) - 0.15 * n) <= 1
            assert len(train) + len(aux) + len(ev) == n

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            split_indices(9, seed=0)

    def test_split_dataset_topology(self):
        train, aux, ev = split_indices(40, seed=5)
        assert len(train) == 28
        assert len(aux) == 6 and len(ev) == 6
        assert len(aux) + len(ev) == 12
        assert sorted(np.concatenate([train, aux, ev])) == list(range(40))
        # aux and eval together are exactly the 30% the target never trains on
        assert sorted(np.concatenate([aux, ev])) == sorted(set(range(40)) - set(train))


class TestBaseRate:
    def make(self, s):
        s = np.asarray(s, dtype=float)
        return data.TabularDataset(
            features=np.zeros((len(s), 1)), labels=np.zeros(len(s)),
            sensitive=s, column_groups={}, row_ids=np.arange(len(s)))

    def test_half(self):
        assert sensitive_base_rate(self.make([1, 1, 0, 0])) == 0.5

    def test_all_positive(self):
        assert sensitive_base_rate(self.make([1, 1, 1])) == 1.0

    def test_matches_hand_count(self):
        # 3 ones in 8 values
        assert sensitive_base_rate(self.make([0, 1, 0, 0, 1, 0, 1, 0])) == 3 / 8

    def test_empty(self):
        with pytest.raises(ValueError):
            sensitive_base_rate(self.make([]))


class TestSchemaFile:
    def test_roundtrip(self, tmp_path):
        schema = toy_schema()
        path = str(tmp_path / "schema.json")
        schema.to_json(path)
        loaded = TabularSchema.from_json(path)
        assert loaded == schema

    def test_malformed(self, tmp_path):
        p = tmp_path / "schema.json"
        p.write_text('{"columns": []}')
        with pytest.raises(SchemaError):
            TabularSchema.from_json(str(p))

    def test_requires_binarization_rule(self):
        schema = toy_schema()
        schema.sensitive_positive_value = None
        with pytest.raises(SchemaError):
            schema.validate()

    def test_sensitive_must_not_be_a_feature(self):
        schema = toy_schema()
        schema.columns = schema.columns + [("minority", "categorical")]
        with pytest.raises(SchemaError):
            schema.validate()

    def test_label_and_sensitive_must_differ(self):
        schema = toy_schema()
        schema.sensitive_column = schema.label_column
        with pytest.raises(SchemaError):
            schema.validate()


class TestAdultCensus:
    def test_row_count_before_filtering(self):
        # needs the merged public Adult CSV (see README for the recipe)
        from conftest import adult_csv_path, adult_schema_dict

        path = adult_csv_path()
        if path is None:
            pytest.skip("Adult census CSV not available")
        raw = adult_schema_dict()
        schema = TabularSchema(
            columns=[(c["name"], c["kind"]) for c in raw["columns"]],
            label_column=raw["label_column"],
            sensitive_column=raw["sensitive_column"],
            sensitive_positive_value=raw["sensitive_positive_value"],
            label_positive_value=raw["label_positive_value"],
        )
        table = load_csv(path, schema)
        assert table.n_rows + table.n_dropped_missing == 48842


class TestSynthetic:
    def test_generated_dataset_loads_and_encodes(self, tmp_path):
        csv_path, schema_path = write_synthetic_dataset(str(tmp_path), n=60, seed=1)
        schema = TabularSchema.from_json(schema_path)
        table = load_csv(csv_path, schema)
        assert table.n_rows == 60
        ds = encode(table, schema, include_sensitive=True,
                    stats=fit_encoding(table, schema))
        # sensitive flag is exactly the sign of x0, label coincides with it
        x0 = np.array([r[0] for r in table.feature_rows])
        assert np.array_equal(ds.sensitive, (x0 > 0).astype(float))
        assert np.array_equal(ds.labels, ds.sensitive)


# every float (nan, +-inf, -0.0, subnormals), numpy's float64 too, any
# integer, and text without the separators the writer does not quote
CSV_CELLS = st.one_of(
    st.floats(), st.floats().map(np.float64), st.integers(),
    st.text(st.characters(exclude_characters=",\n\r", exclude_categories=("Cs",))))


class TestWriteCsv:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.lists(CSV_CELLS, min_size=1, max_size=6), max_size=6))
    @example([["# base_rate=0.25"],
              [-0.0, 5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan],
              [0, -7, 2**70, "", "a b", "1.0"]])
    def test_roundtrip(self, rows):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "rows.csv")
            data.write_csv(path, rows)
            with open(path, encoding="utf-8", newline="") as fh:
                lines = fh.read().split("\n")
        assert lines.pop() == ""  # each row ends its line
        assert len(lines) == len(rows)
        for row, line in zip(rows, lines):
            cells = line.split(",")
            assert len(cells) == len(row)
            for v, cell in zip(row, cells):
                if isinstance(v, float):
                    # bit-exact; any NaN reads back as the NaN, as repr
                    # keeps no NaN sign or payload
                    expected = math.nan if math.isnan(v) else v
                    assert struct.pack("<d", float(cell)) == struct.pack("<d", expected)
                elif isinstance(v, int):
                    assert cell == str(v) and int(cell) == v
                else:
                    assert cell == v
