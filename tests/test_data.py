import dataclasses
import json
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


def toy_table(age, job, minority, outcome) -> RawTable:
    """A RawTable of toy_schema's columns, one list each."""
    return RawTable(
        columns={"age": np.array(age, dtype=np.float64),
                 "job": np.array(job, dtype=object),
                 "minority": np.array(minority, dtype=object),
                 "outcome": np.array(outcome, dtype=object)},
        row_ids=np.arange(len(age), dtype=np.int64), n_dropped_missing=0)


def write_csv(path, rows, header="age,job,minority,outcome"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        p = write_csv(tmp_path / "t.csv",
                      ["30,nurse,yes,pos", "40,clerk,no,neg", "50,nurse,no,pos"])
        table = load_csv(p, toy_schema())
        assert table.n_rows == 3
        assert [table.columns["age"][0], table.columns["job"][0]] == [30.0, "nurse"]
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
        assert table.row_ids.tolist() == [0, 1]


class TestEncode:
    def make_table(self):
        return toy_table(age=[1.0, 2.0, 3.0, 6.0], job=["a", "b", "a", "b"],
                         minority=["yes", "no", "no", "yes"],
                         outcome=["pos", "neg", "pos", "neg"])

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
        assert ds.sensitive_columns == []
        splits = data.DatasetSplits(target_train=ds, test=ds, n_aux=2)
        assert splits.aux.sensitive_columns == splits.eval.sensitive_columns == []

    def test_sensitive_included_as_single_column(self):
        ds = encode(self.make_table(), toy_schema(), include_sensitive=True,
                    stats=fit_encoding(self.make_table(), toy_schema()))
        cols = ds.column_groups["minority"]
        assert len(cols) == 1
        assert np.array_equal(ds.features[:, cols[0]], ds.sensitive)
        assert ds.sensitive_columns == cols == [
            c for c in range(ds.n_columns) if np.array_equal(ds.features[:, c], ds.sensitive)]
        splits = data.DatasetSplits(target_train=ds, test=ds, n_aux=2)
        assert splits.aux.sensitive_columns == splits.eval.sensitive_columns == cols

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
        other = toy_table(age=[10.0], job=["a"], minority=["no"], outcome=["pos"])
        ds = encode(other, toy_schema(), include_sensitive=False, stats=stats)
        expected = (10.0 - stats.numeric_mean["age"]) / stats.numeric_std["age"]
        assert ds.features[0, ds.column_groups["age"][0]] == pytest.approx(expected)

    def test_unseen_category_zero_pattern_and_counted(self):
        table = self.make_table()
        stats = fit_encoding(table, toy_schema())
        other = toy_table(age=[2.0], job=["zzz"], minority=["no"], outcome=["neg"])
        ds = encode(other, toy_schema(), include_sensitive=False, stats=stats)
        assert np.all(ds.features[0, ds.column_groups["job"]] == 0.0)
        assert ds.unknown_category_count == 1

    def test_binarization_map(self):
        schema = dataclasses.replace(toy_schema(), sensitive_positive_value=None,
                                     binarization_map={"yes": 1, "no": 0})
        ds = encode(self.make_table(), schema, include_sensitive=False,
                    stats=fit_encoding(self.make_table(), schema))
        assert np.array_equal(ds.sensitive, np.array([1.0, 0.0, 0.0, 1.0]))

    def test_unmapped_sensitive_value_rejected(self):
        schema = dataclasses.replace(toy_schema(), sensitive_positive_value=None,
                                     binarization_map={"yes": 1})
        with pytest.raises(DataError):
            encode(self.make_table(), schema, include_sensitive=False,
                   stats=fit_encoding(self.make_table(), schema))

    def test_errors_name_the_first_row_that_fails(self):
        schema = dataclasses.replace(toy_schema(), sensitive_positive_value=None,
                                     binarization_map={"yes": 1, "no": 0})
        table = toy_table(age=[1.0, 2.0, 3.0], job=["a", "b", "a"],
                          minority=["yes", "zz", "aa"], outcome=["pos", "neg", "2"])
        stats = fit_encoding(table, schema)
        with pytest.raises(DataError, match="'zz'"):
            encode(table, schema, include_sensitive=False, stats=stats)
        schema = dataclasses.replace(schema, label_positive_value=None)
        table.columns["minority"][1:] = "no"
        with pytest.raises(DataError, match="'pos'"):
            encode(table, schema, include_sensitive=False, stats=stats)

    def test_labels_binarized(self):
        ds = encode(self.make_table(), toy_schema(), include_sensitive=False,
                    stats=fit_encoding(self.make_table(), toy_schema()))
        assert np.array_equal(ds.labels, np.array([1.0, 0.0, 1.0, 0.0]))


@st.composite
def encodable_tables(draw):
    """(schema, table, fit rows, a, b): a small table with constant numeric
    columns and categories the fit rows may not hold, under either
    binarization rule and either label rule, and two lists of its rows."""
    n = draw(st.integers(1, 10))
    kinds = draw(st.lists(st.sampled_from(["numeric", "categorical"]),
                          min_size=1, max_size=4))
    columns = {}
    for j, kind in enumerate(kinds):
        if kind == "numeric":
            value = st.floats(-1e6, 1e6, allow_nan=False)
            cells = draw(st.one_of(value.map(lambda v: [v] * n),  # a constant column
                                   st.lists(value, min_size=n, max_size=n)))
            columns[f"c{j}"] = np.array(cells, dtype=np.float64)
        else:
            cells = draw(st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))
            columns[f"c{j}"] = np.array(cells, dtype=object)
    sensitive = draw(st.lists(st.sampled_from(["yes", "no"]), min_size=n, max_size=n))
    numeric_label = draw(st.booleans())
    labels = st.sampled_from(["0", "1", "1.0"] if numeric_label else ["pos", "neg"])
    columns["s"] = np.array(sensitive, dtype=object)
    columns["y"] = np.array(draw(st.lists(labels, min_size=n, max_size=n)), dtype=object)
    by_map = draw(st.booleans())
    schema = TabularSchema(
        columns=[(f"c{j}", kind) for j, kind in enumerate(kinds)],
        label_column="y", sensitive_column="s",
        sensitive_positive_value=None if by_map else "yes",
        binarization_map={"yes": 1, "no": 0} if by_map else None,
        label_positive_value=None if numeric_label else "pos")
    table = RawTable(columns, row_ids=np.arange(n, dtype=np.int64) + 5,
                     n_dropped_missing=0)
    rows = st.lists(st.integers(0, n - 1), max_size=8)
    fit = draw(rows.filter(bool))
    return schema, table, fit, draw(rows), draw(rows)


def loop_encode(table, schema, include_sensitive, stats):
    """(features, labels, sensitive, unknown count) of encode, one cell at a
    time: the reference for the columnar encode, bit for bit."""
    features, labels, sensitive, unknown = [], [], [], 0
    for i in range(table.n_rows):
        row = []
        for name, kind in schema.columns:
            v = table.columns[name][i]
            if kind == "numeric":
                row.append((v - stats.numeric_mean[name]) / stats.numeric_std[name])
                continue
            vocab = stats.vocabularies[name]
            row.extend(1.0 if v == u else 0.0 for u in vocab)
            unknown += v not in vocab
        s_value, y_value = table.columns["s"][i], table.columns["y"][i]
        s = float(schema.binarization_map[s_value] if schema.binarization_map
                  else s_value == schema.sensitive_positive_value)
        features.append(row + [s] * include_sensitive)
        sensitive.append(s)
        labels.append(float(y_value == schema.label_positive_value
                            if schema.label_positive_value else y_value))
    width = include_sensitive + sum(1 if kind == "numeric" else len(stats.vocabularies[name])
                                    for name, kind in schema.columns)
    return (np.array(features).reshape(table.n_rows, width), np.array(labels),
            np.array(sensitive), unknown)


class TestEncodeCommutesWithSelection:
    @settings(deadline=None, max_examples=200)
    @given(encodable_tables(), st.booleans())
    def test_matches_a_loop_over_cells(self, drawn, include_sensitive):
        schema, table, fit, a, b = drawn
        stats = fit_encoding(table.select(fit), schema)
        ds = encode(table.select(a + b), schema, include_sensitive, stats)
        features, labels, sensitive, unknown = loop_encode(
            table.select(a + b), schema, include_sensitive, stats)
        for got, want in ((ds.features, features), (ds.labels, labels),
                          (ds.sensitive, sensitive)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ds.unknown_category_count == unknown

    @settings(deadline=None, max_examples=200)
    @given(encodable_tables(), st.booleans())
    def test_encoding_a_join_joins_the_encodings(self, drawn, include_sensitive):
        schema, table, fit, a, b = drawn
        stats = fit_encoding(table.select(fit), schema)
        whole, first, second = (encode(table.select(rows), schema, include_sensitive, stats)
                                for rows in (a + b, a, b))
        for field in ("features", "labels", "sensitive", "row_ids"):
            joined = np.concatenate([getattr(first, field), getattr(second, field)])
            got = getattr(whole, field)
            assert (got.dtype, got.shape) == (joined.dtype, joined.shape), field
            assert got.tobytes() == joined.tobytes(), field
        assert whole.column_groups == first.column_groups == second.column_groups
        assert whole.unknown_category_count == (first.unknown_category_count
                                                + second.unknown_category_count)


def three_way(n, seed):
    """split_indices' train rows, then its test rows cut into aux and eval."""
    train, test, n_aux = split_indices(n, seed)
    return train, test[:n_aux], test[n_aux:]


class TestSplit:
    def test_exact_70_15_15(self):
        train, aux, ev = three_way(100, seed=0)
        assert len(train) == 70 and len(aux) == 15 and len(ev) == 15

    def test_deterministic(self):
        a = split_indices(57, seed=9)
        b = split_indices(57, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_partition(self):
        train, aux, ev = three_way(83, seed=3)
        joined = np.concatenate([train, aux, ev])
        assert sorted(joined) == list(range(83))

    def test_proportions_within_one_row(self):
        for n in (10, 33, 101, 999):
            train, aux, ev = three_way(n, seed=1)
            assert abs(len(train) - 0.7 * n) <= 1
            assert abs(len(aux) - 0.15 * n) <= 1
            assert abs(len(ev) - 0.15 * n) <= 1
            assert len(train) + len(aux) + len(ev) == n

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            split_indices(9, seed=0)

    def test_split_dataset_topology(self):
        train, aux, ev = three_way(40, seed=5)
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
            sensitive=s, column_groups={}, sensitive_columns=[],
            row_ids=np.arange(len(s)))

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
        with pytest.raises(SchemaError):
            dataclasses.replace(toy_schema(), sensitive_positive_value=None)
        with pytest.raises(dataclasses.FrozenInstanceError):  # a built schema stays valid
            toy_schema().sensitive_positive_value = None

    @pytest.mark.parametrize("field,bad", [
        ("columns", [(["age"], "numeric")]),
        ("columns", [("age", ["numeric"])]),
        ("label_column", ["outcome"]),
        ("sensitive_column", 5),
        ("sensitive_positive_value", 1),
        ("label_positive_value", ["pos"]),
        ("binarization_map", ["yes"]),
        ("binarization_map", {"yes": "1"}),
        ("binarization_map", {1: 1}),
        ("binarization_map", {"yes": [1]}),
    ])
    def test_value_of_the_wrong_type(self, field, bad):
        with pytest.raises(SchemaError):
            dataclasses.replace(toy_schema(), **{field: bad})

    def test_built_schema_cannot_be_changed_in_place(self):
        """A built schema keeps read-only copies of its columns and
        binarization_map: changing them raises, and changing the caller's
        list or dict reaches neither."""
        columns, mapping = [["age", "numeric"], ("job", "categorical")], {"yes": 1, "no": 0}
        schema = dataclasses.replace(toy_schema(), columns=columns,
                                     sensitive_positive_value=None, binarization_map=mapping)
        with pytest.raises(TypeError):
            schema.binarization_map["q"] = 5
        with pytest.raises(AttributeError):
            schema.columns.append(("minority", "categorical"))
        with pytest.raises(TypeError):
            schema.columns[0][1] = "categorical"
        columns.append(("minority", "categorical"))
        columns[0][1] = "categorical"
        mapping["q"] = 5
        assert schema.columns == (("age", "numeric"), ("job", "categorical"))
        assert schema.binarization_map == {"yes": 1, "no": 0}
        table = toy_table(age=[1.0, 2.0], job=["a", "b"], minority=["yes", "q"],
                          outcome=["pos", "neg"])
        with pytest.raises(DataError, match="'q'"):
            encode(table, schema, include_sensitive=True, stats=fit_encoding(table, schema))

    def test_schema_with_a_binarization_map_roundtrips(self, tmp_path):
        schema = dataclasses.replace(toy_schema(), sensitive_positive_value=None,
                                     binarization_map={"yes": 1, "no": 0})
        path = tmp_path / "schema.json"
        schema.to_json(str(path))
        assert json.loads(path.read_text())["binarization_map"] == {"no": 0, "yes": 1}
        assert TabularSchema.from_json(str(path)) == schema

    def test_sensitive_must_not_be_a_feature(self):
        schema = toy_schema()
        with pytest.raises(SchemaError):
            dataclasses.replace(schema, columns=[*schema.columns, ("minority", "categorical")])

    def test_label_and_sensitive_must_differ(self):
        schema = toy_schema()
        with pytest.raises(SchemaError):
            dataclasses.replace(schema, sensitive_column=schema.label_column)


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
        x0 = table.columns["x0"]
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
