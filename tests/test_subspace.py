import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcl.subspace import (
    Basis,
    HfcValue,
    SubspaceError,
    _fix_signs,
    extend_basis,
    hfc,
    k_rank_basis,
    project_rows,
)


def random_orthonormal(rng, d, k):
    q, _ = np.linalg.qr(rng.standard_normal((d, max(k, 1))))
    return q[:, :k]


def gram_projection_oracle(v, b):
    # Least-squares projection B (B^T B)^-1 B^T v, independent of B B^T v.
    coef = np.linalg.solve(b.T @ b, b.T @ v)
    return b @ coef


def random_rows(rng, d):
    """A stack of 1-8 rows in R^d: the engine projects a segment's rows at once."""
    return rng.standard_normal((int(rng.integers(1, 9)), d))


def assert_rows_match_oracle(rows, got, b, atol=1e-10):
    """Every row of ``got`` is its row of ``rows`` projected by the Gram oracle.
    Within a tolerance: numpy rounds a one-row product differently from a
    many-row one."""
    for v, p in zip(rows, got):
        assert np.allclose(p, gram_projection_oracle(v, b), atol=atol)


class TestBasis:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(SubspaceError):
            Basis(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_too_many_columns(self):
        with pytest.raises(SubspaceError):
            Basis(np.hstack([np.eye(2), np.eye(2)]))

    def test_empty_basis(self):
        b = Basis.empty(4)
        assert b.rank == 0 and b.matrix.shape == (4, 0)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        rows = np.stack([v, -v])
        assert np.array_equal(project_rows(rows, b), np.zeros((2, 4)))
        assert np.array_equal(rows - project_rows(rows, b), rows)


class TestProject:
    def test_axis_projection(self):
        b = Basis(np.array([[1.0], [0.0]]))
        rows = np.array([[3.0, 4.0], [-1.0, 2.0]])
        assert np.allclose(project_rows(rows, b), [[3.0, 0.0], [-1.0, 0.0]])

    def test_full_space_identity(self):
        b = Basis(np.eye(2))
        rows = np.array([[3.0, 4.0], [-1.0, 2.0]])
        assert np.allclose(project_rows(rows, b), rows)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b = random_orthonormal(rng, 5, 2)
            rows = random_rows(rng, 5)
            assert_rows_match_oracle(rows, project_rows(rows, Basis(b)), b)

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(8)
        b = Basis(random_orthonormal(rng, 6, 3))
        rows = random_rows(rng, 6)
        got = project_rows(rows, b)
        assert_rows_match_oracle(rows, got, b.matrix)
        assert np.all(np.abs((rows - got) @ b.matrix) < 1e-8)


class TestProjectComplement:
    """The complement of a span is what ``project_rows`` leaves: rows - P(rows)."""

    def test_axis(self):
        b = Basis(np.array([[1.0], [0.0]]))
        rows = np.array([[3.0, 4.0], [-1.0, 2.0]])
        assert np.allclose(rows - project_rows(rows, b), [[0.0, 4.0], [0.0, 2.0]])

    def test_vector_in_span_gives_zero(self):
        rng = np.random.default_rng(9)
        b = random_orthonormal(rng, 5, 3)
        rows = (b @ rng.standard_normal((3, int(rng.integers(1, 9))))).T
        got = project_rows(rows, Basis(b))
        assert_rows_match_oracle(rows, got, b)
        assert np.allclose(rows - got, 0.0, atol=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            d = rng.integers(2, 9)
            b = Basis(random_orthonormal(rng, d, rng.integers(1, d)))
            rows = random_rows(rng, d)
            p = project_rows(rows, b)
            assert_rows_match_oracle(rows, p, b.matrix)
            assert np.allclose(p + (rows - p), rows, atol=1e-10)


class TestHfc:
    def test_self_projection_zero_angle(self):
        val = hfc(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert val.angle == pytest.approx(0.0, abs=1e-12)

    def test_45_degrees(self):
        val = hfc(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert val.angle == pytest.approx(math.pi / 4, abs=1e-12)

    def test_zero_projection_convention(self):
        val = hfc(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert val.angle == pytest.approx(math.pi / 2)

    def test_zero_gradient_rejected(self):
        with pytest.raises(SubspaceError):
            hfc(np.zeros(3), np.ones(3))

    def test_matches_direct_trig_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = Basis(random_orthonormal(rng, 8, 3))
            rows = random_rows(rng, 8)
            projected = project_rows(rows, b)
            assert_rows_match_oracle(rows, projected, b.matrix)
            for g, p in zip(rows, projected):
                got = hfc(g, p).angle
                # Independent cosine computation.
                cos = sum(x * y for x, y in zip(g, p)) / (
                    math.sqrt(sum(x * x for x in g)) * math.sqrt(sum(y * y for y in p))
                )
                want = math.acos(max(-1.0, min(1.0, cos)))
                assert got == pytest.approx(want, abs=1e-12)

    def test_degrees_roundtrip(self):
        v = HfcValue.from_degrees(30.0)
        assert v.degrees == pytest.approx(30.0)


class TestKRankBasis:
    def test_known_singular_values(self):
        # Diagonal rows give singular values (2, 1): energy 4/5 = 0.8 at k=1.
        rows = np.array([[2.0, 0.0], [0.0, 1.0]])
        b = k_rank_basis(rows, eps=0.8)
        assert b.rank == 1
        b2 = k_rank_basis(rows, eps=0.81)
        assert b2.rank == 2

    def test_eps_one_full_rank(self):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((6, 4))
        b = k_rank_basis(rows, eps=1.0)
        assert b.rank == np.linalg.matrix_rank(rows)

    def test_rank_one_matrix(self):
        rows = np.outer(np.arange(1, 5, dtype=float), np.array([1.0, 2.0, 2.0]))
        for eps in (0.1, 0.5, 0.999, 1.0):
            assert k_rank_basis(rows, eps).rank == 1

    def test_minimality_against_energy_scan(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            rows = rng.standard_normal((rng.integers(2, 12), rng.integers(2, 9)))
            eps = rng.uniform(0.2, 0.999)
            b = k_rank_basis(rows, eps)
            s = np.linalg.svd(rows, compute_uv=False)
            energy = np.cumsum(s * s)
            total = energy[-1]
            # Exhaustive scan: criterion holds at k, fails at k-1.
            assert energy[b.rank - 1] >= eps * total - 1e-9 * total
            if b.rank > 1:
                assert energy[b.rank - 2] < eps * total

    def test_zero_matrix_rejected(self):
        with pytest.raises(SubspaceError):
            k_rank_basis(np.zeros((3, 3)), 0.5)

    @pytest.mark.parametrize("rows", [np.ones(3), np.zeros((0, 3)), np.array([[1.0, np.nan, 0.0]])])
    def test_rows_must_be_2d_nonempty_and_finite(self, rows):
        with pytest.raises(SubspaceError, match="representation matrix"):
            k_rank_basis(rows, 0.5)
        with pytest.raises(SubspaceError, match="representation matrix"):
            extend_basis(Basis(np.eye(3, 1)), rows, 0.5)

    def test_deterministic_signs(self):
        rng = np.random.default_rng(14)
        rows = rng.standard_normal((5, 5))
        b1 = k_rank_basis(rows, 0.9)
        b2 = k_rank_basis(rows.copy(), 0.9)
        assert np.array_equal(b1.matrix, b2.matrix)
        for j in range(b1.rank):
            col = b1.matrix[:, j]
            assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]] > 0


class TestExtendBasis:
    def test_residual_direction_added(self):
        old = Basis(np.array([[1.0], [0.0]]))
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b = extend_basis(old, rows, eps=0.99)
        assert b.rank == 2
        assert np.allclose(b.matrix[:, 0], [1.0, 0.0])

    def test_rows_inside_old_span_no_growth(self):
        rng = np.random.default_rng(15)
        cols = random_orthonormal(rng, 6, 2)
        old = Basis(cols)
        rows = (cols @ rng.standard_normal((2, 10))).T
        b = extend_basis(old, rows, eps=0.95)
        assert b.rank == 2
        assert np.array_equal(b.matrix, old.matrix)

    def test_joint_orthonormality_and_h_minimality(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            old = Basis(random_orthonormal(rng, 6, 2))
            rows = rng.standard_normal((12, 6))
            b = extend_basis(old, rows, eps=0.95)
            gram = b.matrix.T @ b.matrix
            assert np.allclose(gram, np.eye(b.rank), atol=1e-8)
            # Minimality by decrement: dropping the last appended column must
            # break the energy criterion.
            h = b.rank - old.rank
            total = np.sum(rows * rows)
            kept = float(np.sum((rows @ b.matrix) ** 2))
            assert kept >= 0.95 * total - 1e-9 * total
            if h > 0:
                smaller = b.matrix[:, : b.rank - 1]
                kept_smaller = float(np.sum((rows @ smaller) ** 2))
                assert kept_smaller < 0.95 * total

    def test_old_columns_bitwise_unchanged(self):
        rng = np.random.default_rng(17)
        old = Basis(random_orthonormal(rng, 5, 2))
        rows = rng.standard_normal((8, 5))
        b = extend_basis(old, rows, eps=0.99)
        assert np.array_equal(b.matrix[:, :2], old.matrix)


class TestInvariants:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000))
    def test_idempotence_and_decomposition(self, d, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, d + 1))
        b = Basis(random_orthonormal(rng, d, k))
        rows = random_rows(rng, d)
        p = project_rows(rows, b)
        assert_rows_match_oracle(rows, p, b.matrix)
        assert np.allclose(project_rows(p, b), p, atol=1e-10)
        assert np.allclose(p + (rows - p), rows, atol=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=3, max_value=16), st.integers(min_value=0, max_value=10_000))
    def test_nested_basis_monotonicity(self, d, seed):
        # Wider span never increases the angle to the projection.
        rng = np.random.default_rng(seed)
        small = int(rng.integers(1, d - 1))
        extra = int(rng.integers(1, d - small))
        big = random_orthonormal(rng, d, small + extra)
        b1, b2 = Basis(big[:, :small]), Basis(big)
        rows = random_rows(rng, d)
        p1, p2 = project_rows(rows, b1), project_rows(rows, b2)
        assert_rows_match_oracle(rows, p1, b1.matrix)
        assert_rows_match_oracle(rows, p2, b2.matrix)
        for v, q1, q2 in zip(rows, p1, p2):
            if np.linalg.norm(q1) < 1e-9:
                continue
            assert hfc(v, q1).angle >= hfc(v, q2).angle - 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000))
    def test_complement_duality(self, d, seed):
        rng = np.random.default_rng(seed)
        b = Basis(random_orthonormal(rng, d, int(rng.integers(1, d))))
        rows = random_rows(rng, d)
        projected = project_rows(rows, b)
        assert_rows_match_oracle(rows, projected, b.matrix)
        for v, p in zip(rows, projected):
            c = v - p
            if min(np.linalg.norm(p), np.linalg.norm(c)) < 1e-9:
                continue
            assert hfc(v, p).angle + hfc(v, c).angle == pytest.approx(math.pi / 2, abs=1e-9)


def fix_signs_column_loop(u):
    """Reference for ``_fix_signs``, one column at a time: flip a column
    whose first component above 1e-12 in magnitude is negative."""
    for j in range(u.shape[1]):
        col = u[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size and col[nz[0]] < 0:
            u[:, j] = -col
    return u


class TestFixSigns:
    def test_equals_the_column_loop_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for trial in range(600):
            rows, cols = rng.integers(1, 40), rng.integers(0, 40)
            u = rng.standard_normal((rows, cols))
            # zero columns, leading entries at or below 1e-12, and -0.0
            u[:, rng.random(cols) < 0.15] = 0.0
            lead = rng.integers(0, rows, size=cols)
            for j in np.flatnonzero(rng.random(cols) < 0.4):
                u[: lead[j], j] = rng.choice([0.0, -0.0, 1e-12, -1e-12, 3e-13, -5e-13])
            u[rng.random(u.shape) < 0.05] = -0.0
            want = fix_signs_column_loop(u.copy())
            got = _fix_signs(u)
            assert got is u
            assert got.tobytes() == want.tobytes(), trial
