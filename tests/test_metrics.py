import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcl.metrics import AccuracyMatrix, faa, ffm, per_task_summary, pra, ssp, write_csv
from growcl.pool import PromptPool
from growcl.encoder import PromptSet


def filled_matrix(grid, hits=None, totals=None):
    grid = np.asarray(grid, dtype=float)
    t = grid.shape[0]
    m = AccuracyMatrix(t)
    for after in range(t):
        for i in range(after + 1):
            h = hits[i][after] if hits is not None else 1
            tot = totals[i][after] if totals is not None else 1
            m.record(i, after, grid[i, after], grid[i, after], h, tot)
    return m


def brute_force_faa(grid):
    t = len(grid)
    return sum(grid[i][t - 1] for i in range(t)) / t


def brute_force_ffm(grid):
    t = len(grid)
    acc = 0.0
    for i in range(t - 1):
        acc += max(grid[i][s] - grid[i][t - 1] for s in range(i, t - 1))
    return acc / (t - 1)


def random_lower_triangular(rng, t):
    grid = np.zeros((t, t))
    for after in range(t):
        for i in range(after + 1):
            grid[i, after] = rng.uniform(0, 1)
    return grid


class TestFaa:
    def test_two_task_arithmetic(self):
        m = filled_matrix([[0.7, 0.8, 0.8], [0.0, 0.85, 0.9], [0.0, 0.0, 0.85]])
        assert faa(m) == pytest.approx((0.8 + 0.9 + 0.85) / 3)

    def test_single_task(self):
        m = filled_matrix([[0.73]])
        assert faa(m) == pytest.approx(0.73)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = int(rng.integers(1, 8))
            grid = random_lower_triangular(rng, t)
            assert faa(filled_matrix(grid)) == pytest.approx(brute_force_faa(grid), abs=1e-12)


class TestFfm:
    def test_simple_drop(self):
        m = filled_matrix([[0.9, 0.8], [0.0, 0.7]])
        assert ffm(m) == pytest.approx(0.1)

    def test_constant_accuracy_zero_forgetting(self):
        m = filled_matrix([[0.8, 0.8, 0.8], [0.0, 0.6, 0.6], [0.0, 0.0, 0.5]])
        assert ffm(m) == pytest.approx(0.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = int(rng.integers(2, 8))
            grid = random_lower_triangular(rng, t)
            assert ffm(filled_matrix(grid)) == pytest.approx(brute_force_ffm(grid), abs=1e-12)


class TestPra:
    def test_all_hits(self):
        m = filled_matrix(np.full((3, 3), 0.5), hits=np.full((3, 3), 7, int),
                          totals=np.full((3, 3), 7, int))
        assert pra(m) == pytest.approx(1.0)

    def test_counter_division(self):
        hits = [[3, 3, 1], [0, 2, 2], [0, 0, 4]]
        totals = [[4, 4, 4], [0, 4, 4], [0, 0, 8]]
        m = filled_matrix(np.full((3, 3), 0.5), hits=hits, totals=totals)
        assert pra(m) == pytest.approx((1 / 4 + 2 / 4 + 4 / 8) / 3)


class TestProperties:
    @settings(max_examples=200)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10_000))
    def test_faa_ffm_match_brute_force(self, t, seed):
        rng = np.random.default_rng(seed)
        grid = random_lower_triangular(rng, t)
        m = filled_matrix(grid)
        assert faa(m) == pytest.approx(brute_force_faa(grid), abs=1e-12)
        assert ffm(m) == pytest.approx(brute_force_ffm(grid), abs=1e-12)

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10_000))
    def test_pra_is_mean_of_final_rates(self, t, seed):
        rng = np.random.default_rng(seed)
        grid = random_lower_triangular(rng, t)
        totals = rng.integers(1, 30, size=(t, t))
        hits = (rng.random((t, t)) * (totals + 1)).astype(int).clip(0, totals)
        m = filled_matrix(grid, hits=hits, totals=totals)
        want = sum(hits[i, t - 1] / totals[i, t - 1] for i in range(t)) / t
        assert pra(m) == pytest.approx(want, abs=1e-12)


class TestSsp:
    def test_counts_pool_sets(self):
        pool = PromptPool()
        for t in range(10):
            pool.add_set(PromptSet(np.zeros((1, 1, 2)), np.ones(2)), task=t)
        assert ssp(pool) == 10


class TestRecording:
    def test_per_task_summary(self):
        m = filled_matrix([[0.9, 0.8], [0.0, 0.7]], hits=[[1, 3], [0, 4]],
                          totals=[[2, 4], [0, 4]])
        rows = per_task_summary(m)
        assert rows[0]["final_acc"] == pytest.approx(0.8)
        assert rows[0]["retrieval_rate"] == pytest.approx(0.75)
        assert rows[1]["retrieval_rate"] == pytest.approx(1.0)

    def test_csv_roundtrip(self, tmp_path):
        m = filled_matrix([[0.9, 0.8], [0.0, 0.7]])
        path = tmp_path / "m.csv"
        write_csv(m, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].split(",")[:3] == ["task", "after_task", "acc"]
        assert len(lines) == 1 + 3  # (0,0), (0,1), (1,1)
