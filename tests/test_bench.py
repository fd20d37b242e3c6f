"""Deterministic sampling, synthetic relations, and the benchmark harness."""

import pytest

from cubestore import (
    CapacityError,
    DatasetError,
    EmptyRelationError,
    ParameterError,
    SplitMix64,
    TableStore,
    build_dataset,
    cell_count,
    generate_synthetic,
    materialize_synthetic,
    open_dataset,
    run_benchmark,
    sample_percentage,
)
from cubestore.bench import MAX_SAMPLE_SIZE, draw_sample, report, write_bench_csv
from cubestore.linearizer import delinearize


def synthetic_rows(synth):
    """Yield raw value tuples (dimension values, then decoded measures)."""
    for position, record in synth.cells:
        coords = delinearize(position, synth.schema.cards)
        values = tuple(synth.dimension_values[d][i - 1] for d, i in enumerate(coords))
        if synth.schema.codec.is_presence:
            yield values
        else:
            yield values + synth.schema.codec.unpack(record)


class TestSplitMix64:
    def test_reference_vector(self):
        # reference first outputs for seed 0
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_determinism(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_below_range_and_determinism(self):
        rng = SplitMix64(7)
        values = [rng.below(10) for _ in range(1000)]
        assert all(0 <= v < 10 for v in values)
        assert set(values) == set(range(10))  # every residue appears
        again = SplitMix64(7)
        assert values == [again.below(10) for _ in range(1000)]

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            SplitMix64(1).below(0)

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()


class TestDrawSample:
    def test_shape_and_range(self):
        sample = draw_sample(50, 200, seed=3)
        assert len(sample) == 200
        assert all(1 <= s <= 50 for s in sample)
        assert len(set(sample)) > 1  # with repetition but not constant

    def test_determinism(self):
        assert draw_sample(50, 20, seed=3) == draw_sample(50, 20, seed=3)
        assert draw_sample(50, 20, seed=3) != draw_sample(50, 20, seed=4)

    def test_edges(self):
        assert draw_sample(50, 0, seed=1) == []
        assert draw_sample(1, 5, seed=1) == [1, 1, 1, 1, 1]
        with pytest.raises(ParameterError):
            draw_sample(50, -1, seed=1)
        with pytest.raises(EmptyRelationError):
            draw_sample(0, 5, seed=1)
        with pytest.raises(CapacityError):
            draw_sample(50, MAX_SAMPLE_SIZE + 1, seed=1)


class TestGenerateSynthetic:
    def test_quarter_density(self):
        synth = generate_synthetic(3, (10, 10, 10), 0.25, (4,), seed=5)
        assert synth.r == 250
        positions = [p for p, _ in synth.cells]
        assert positions == sorted(positions)
        assert len(set(positions)) == 250
        assert all(1 <= p <= 1000 for p in positions)
        assert all(len(rec) == 4 for _, rec in synth.cells)

    def test_dense(self):
        synth = generate_synthetic(2, (6, 4), 1.0, (2,), seed=5)
        assert synth.r == cell_count((6, 4)) == 24
        assert [p for p, _ in synth.cells] == list(range(1, 25))

    def test_key_only(self):
        synth = generate_synthetic(2, (5, 5), 0.5, (), seed=5)
        assert synth.schema.codec.is_presence
        assert all(rec == b"\x01" for _, rec in synth.cells)
        assert synth.schema.record_width == 1

    def test_determinism(self):
        a = generate_synthetic(3, (8, 8, 8), 0.3, (3,), seed=11)
        b = generate_synthetic(3, (8, 8, 8), 0.3, (3,), seed=11)
        c = generate_synthetic(3, (8, 8, 8), 0.3, (3,), seed=12)
        assert a.cells == b.cells
        assert a.cells != c.cells

    def test_dimension_values(self):
        synth = generate_synthetic(2, (12, 3), 0.5, (), seed=1)
        assert synth.dimension_values[0][0] == "01"
        assert synth.dimension_values[0][11] == "12"
        assert synth.dimension_values[1] == ("1", "2", "3")

    def test_rows_decode(self):
        synth = generate_synthetic(2, (4, 3), 0.5, (2,), seed=2)
        rows = list(synthetic_rows(synth))
        assert len(rows) == synth.r
        assert all(len(row) == 3 for row in rows)

    def test_bad_density(self):
        with pytest.raises(ParameterError):
            generate_synthetic(2, (4, 3), 0.0, (), seed=1)
        with pytest.raises(ParameterError):
            generate_synthetic(2, (4, 3), 1.5, (), seed=1)

    def test_cardinality_count_must_match_k(self):
        with pytest.raises(ParameterError, match="expected 3 cardinalities, got 2"):
            generate_synthetic(3, (2, 2), 0.5, (), seed=1)


class TestSamplePercentage:
    def test_values(self):
        assert sample_percentage(100000, 150412) == 66.48
        assert sample_percentage(100000, 600350) == 16.66
        assert sample_percentage(5, 5) == 100.00
        assert sample_percentage(1, 3) == 33.33
        assert sample_percentage(1, 16) == 6.25


@pytest.fixture(scope="module")
def built_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench") / "ds"
    synth = generate_synthetic(3, (12, 9, 7), 0.4, (4,), seed=20)
    materialize_synthetic(synth, root)
    build_dataset(root)
    return root


class TestBenchmarkSamples:
    def test_one_stream_across_sizes(self, built_dataset, monkeypatch):
        # the first draw of size 2 continues the stream after size 3;
        # run_benchmark reads each sampled ordinal's row once, in sample order
        seen = []
        read_row = TableStore.read_row

        def recording(table, recno):
            seen.append(recno)
            return read_row(table, recno)

        monkeypatch.setattr(TableStore, "read_row", recording)
        with open_dataset(built_dataset) as db:
            run_benchmark(db, sizes=(3, 2), seed=9)
            rng = SplitMix64(9)
            assert seen == [rng.below(db.manifest.r) + 1 for _ in range(5)]

    def test_validation(self, built_dataset):
        with open_dataset(built_dataset) as db:
            with pytest.raises(ParameterError, match="sample sizes must be positive, got 0"):
                run_benchmark(db, sizes=(3, 0), seed=1)


class TestRunBenchmark:
    def test_smoke(self, built_dataset):
        with open_dataset(built_dataset) as db:
            results = run_benchmark(db, sizes=(200, 50), seed=1)
        assert [b.sample_size for b in results] == [200, 50]
        for b in results:
            assert b.correct
            assert b.table_ns > 0 and b.array_ns > 0
            assert b.quotient == pytest.approx(b.table_ns / b.array_ns, rel=1e-6)
            assert b.sample_pct == sample_percentage(b.sample_size, db.manifest.r)

    def test_warmup_smoke(self, built_dataset):
        with open_dataset(built_dataset) as db:
            results = run_benchmark(db, sizes=(50,), seed=2, warmup=True)
        assert results[0].correct

    def test_requires_both_stores(self, built_dataset):
        class Half:
            table = None
            array = None

        with pytest.raises(DatasetError):
            run_benchmark(Half(), sizes=(10,), seed=1)

    def test_empty_sizes(self, built_dataset):
        with open_dataset(built_dataset) as db:
            assert run_benchmark(db, sizes=(), seed=1) == []


class TestReporting:
    def make_results(self, built_dataset):
        with open_dataset(built_dataset) as db:
            return run_benchmark(db, sizes=(100, 20), seed=3)

    def test_report_layout(self, built_dataset):
        results = self.make_results(built_dataset)
        text = report(results)
        assert "table with B-tree index vs compressed array" in text
        assert "lookup cross-check: OK (every sampled lookup agreed)" in text
        assert "warm-up pass: disabled" in text
        assert "quotient by sample size" in text
        assert "quotient by sample percentage" in text
        assert "100" in text and "20" in text
        warm = report(results, warmup=True)
        assert "warm-up pass: enabled" in warm

    def test_report_flags_disagreement(self, built_dataset):
        results = self.make_results(built_dataset)
        from dataclasses import replace

        broken = [replace(results[0], correct=False)]
        assert "FAILED (representations disagree)" in report(broken)

    def test_csv(self, built_dataset, tmp_path):
        results = self.make_results(built_dataset)
        path = tmp_path / "bench.csv"
        with open(path, "w", newline="") as out:
            write_bench_csv(results, out)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_size,sample_pct,table_ns,array_ns,quotient"
        assert len(lines) == 3
        assert lines[1].startswith("100,")
