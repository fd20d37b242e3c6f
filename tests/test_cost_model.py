"""Analytic lookup-cost quotients and their table renderer."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestore import ParameterError, emit_cost_tables, q_btree, q_plain
from cubestore.cost_model import cost_tables_text, format_cost_table, round2, write_cost_csv

# frozen spot values the cost formulas must reproduce
PLAIN_SPOTS = [
    (1.0, 10**3, 5, 1.79),
    (1.0, 10**3, 25, 0.36),
    (1.0, 10**7, 5, 4.45),
    (10.0, 10**3, 5, 6.40),
    (100.0, 10**5, 15, 13.69),
    (1000.0, 10**6, 20, 18.58),
    (1500.0, 10**7, 25, 21.90),
]
BTREE_SPOTS = [
    (1500.0, 10**3, 5, 2.38),
    (1500.0, 10**4, 5, 2.89),
    (1500.0, 10**6, 20, 3.87),
    (1500.0, 10**7, 25, 4.37),
]


class TestFormulas:
    def test_plain_formula(self):
        assert q_plain(10**6, 10, 100.0) == pytest.approx(
            (math.log2(10**6) - 1) / ((10 - 1) / 100.0 + 1)
        )

    def test_btree_formula(self):
        assert q_btree(10**6, 10, 100.0, 89) == pytest.approx(
            (math.log((10**6 + 1) / 2, 89) + 1) / ((10 - 1) / 100.0 + 1)
        )

    def test_one_dimension_needs_no_multiplications(self):
        # k = 1: the quotient is the bare comparison count, whatever p is
        for p in (1.0, 10.0, 1500.0):
            assert q_plain(1024, 1, p) == pytest.approx(math.log2(1024) - 1)

    def test_plain_spots(self):
        for p, r, k, expect in PLAIN_SPOTS:
            assert round2(q_plain(r, k, p)) == expect

    def test_btree_spots(self):
        for p, r, k, expect in BTREE_SPOTS:
            assert round2(q_btree(r, k, p, 89)) == expect

    def test_monotonicity(self):
        # more rows: table loses more ground (both quotients grow with r)
        assert q_plain(10**4, 10, 10.0) < q_plain(10**6, 10, 10.0)
        assert q_btree(10**4, 10, 10.0) < q_btree(10**6, 10, 10.0)
        # more dimensions: the array pays more multiplications
        assert q_plain(10**6, 20, 10.0) < q_plain(10**6, 10, 10.0)
        # cheaper multiplications (large p): the array gains
        assert q_plain(10**6, 10, 100.0) > q_plain(10**6, 10, 1.0)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError, match="row count must be at least 2, got 1"):
            q_plain(1, 5, 1.0)
        with pytest.raises(ParameterError, match="key length must be at least 1, got 0"):
            q_plain(100, 0, 1.0)
        with pytest.raises(ParameterError, match="cost ratio p must be positive, got 0.0"):
            q_plain(100, 5, 0.0)
        with pytest.raises(ParameterError, match="row count must be at least 1, got 0"):
            q_btree(0, 5, 1.0)
        with pytest.raises(ParameterError, match="minimal degree t must be at least 2, got 1"):
            q_btree(100, 5, 1.0, t=1)
        with pytest.raises(ParameterError, match="cost ratio p must be positive, got -1.0"):
            q_btree(100, 5, -1.0)
        # the grid checks every p and t before any row count
        with pytest.raises(ParameterError, match="minimal degree t must be at least 2, got 1"):
            emit_cost_tables((2.0,), (1,), (3,), t=1)
        with pytest.raises(ParameterError, match="cost ratio p must be positive, got -1.0"):
            emit_cost_tables((2.0, -1.0), (1,), (3,))

    def test_btree_minimum(self):
        # a single row costs one page read, scaled by the denominator
        assert q_btree(1, 1, 1.0, 89) == pytest.approx(1.0)

    @given(
        r=st.integers(2, 10**8),
        k=st.integers(1, 40),
        p=st.floats(0.01, 10**4),
    )
    @settings(max_examples=150)
    def test_quotients_finite(self, r, k, p):
        # the plain quotient touches zero exactly at r = 2 (one comparison)
        q = q_plain(r, k, p)
        assert q >= 0 and math.isfinite(q)
        assert (q > 0) == (r > 2)
        q = q_btree(r, k, p)
        assert q > 0 and math.isfinite(q)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round2(0.125) == 0.13
        assert round2(-0.125) == -0.13
        assert round2(2.675000001) == 2.68
        assert round2(1.0) == 1.0
        assert round2(0.994) == 0.99


class TestTables:
    def test_default_shape(self):
        tables = emit_cost_tables()
        assert len(tables) == 7  # one per p value, plus the B-tree table
        total = 0
        for table in tables:
            assert len(table.cells) == 5
            assert all(len(row) == 5 for row in table.cells)
            total += sum(len(row) for row in table.cells)
        assert total == 175

    def test_cells_match_formulas(self):
        tables = emit_cost_tables()
        by_title = {t.title: t for t in tables}
        t12 = by_title["p = 1"]
        assert t12.cells[0][0] == 1.79
        assert t12.cells[0][4] == 0.36
        assert t12.cells[4][0] == 4.45
        tbt = by_title["B-tree index, p = 1500, t = 89"]
        assert tbt.cells[0][0] == 2.38
        assert tbt.cells[4][4] == 4.37

    def test_custom_parameters(self):
        tables = emit_cost_tables((2.0,), (100, 1000), (3, 4), t=4)
        assert len(tables) == 2
        assert tables[0].title == "p = 2"
        assert tables[1].t == 4
        assert tables[0].cells[0][0] == round2(q_plain(100, 3, 2.0))
        assert tables[1].cells[1][1] == round2(q_btree(1000, 4, 2.0, 4))

    def test_formatting(self):
        tables = emit_cost_tables()
        text = format_cost_table(tables[0])
        assert "p = 1" in text
        assert "k=5" in text and "k=25" in text
        assert "1,000" in text and "10,000,000" in text
        assert "1.79" in text
        combined = cost_tables_text(tables)
        assert combined.count("p =") >= 7

    def test_failed_csv_write_leaves_no_file(self, tmp_path):
        good, bad = emit_cost_tables((1.0,), (100, 1000), (3,), t=5)
        bad = dataclasses.replace(bad, cells=((1.0,), ("not a number",)))
        kept = tmp_path / "cost_btree_p1_t5.csv"
        kept.write_bytes(b"old\n")
        with pytest.raises(ValueError):
            write_cost_csv([good, bad], str(tmp_path / "cost"))
        assert kept.read_bytes() == b"old\n"  # the file that failed keeps its bytes
        assert (tmp_path / "cost_p1.csv").read_text(encoding="utf-8").startswith("r,k=3\n")
        kept.unlink()
        with pytest.raises(ValueError):
            write_cost_csv([bad], str(tmp_path / "cost"))
        assert [p.name for p in tmp_path.iterdir()] == ["cost_p1.csv"]  # no partial, no temp

    def test_csv_files(self, tmp_path):
        tables = emit_cost_tables((1.0, 2.0), (100,), (3,), t=5)
        paths = write_cost_csv(tables, str(tmp_path / "cost"))
        assert len(paths) == 3
        names = {p.rsplit("/", 1)[-1] for p in paths}
        assert names == {"cost_p1.csv", "cost_p2.csv", "cost_btree_p2_t5.csv"}
        first = (tmp_path / "cost_p1.csv").read_text().splitlines()
        assert first[0] == "r,k=3"
        assert first[1].startswith("100,")
