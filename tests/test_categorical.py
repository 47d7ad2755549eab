import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fxam.categorical import (
    CLOSED_FORM_LIMIT,
    ConvergenceError,
    RidgeSystem,
    closed_form_ridge,
    gram_assemble,
    nga_ridge_solve,
    power_iteration_max_eig,
    ridge_objective,
)
from fxam.data import Dataset, build_homogeneous_encoding


def encoding_from_rows(row_indices):
    """Wrap explicit q-hot rows without going through a Dataset."""
    rows = np.asarray(row_indices, dtype=np.int64)
    c = int(rows.max()) + 1 if rows.size else 0

    class _Enc:
        cardinality = c
        row_indices = rows

    return _Enc()


def random_qhot_system(rng, c, n, q=3, ridge=1.0):
    sizes = np.diff(
        np.round(np.linspace(0, c, q + 1)).astype(int)
    )
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    rows = np.stack(
        [offsets[m] + rng.integers(0, sizes[m], n) for m in range(q)],
        axis=1,
    )
    y = rng.normal(0, 2, n)
    return gram_assemble(encoding_from_rows(rows), y, ridge)


class TestGramAssemble:
    def test_cooccurrence_counts(self):
        enc = encoding_from_rows([[0, 2], [1, 2]])
        system = gram_assemble(enc, np.zeros(2), ridge=1.0)
        gram = np.asarray(system.gram)
        # diagonal of Z'Z is per-value occurrence counts, plus the ridge
        np.testing.assert_allclose(np.diag(gram), [2.0, 2.0, 3.0])
        assert gram[0, 2] == gram[2, 0] == 1.0
        assert gram[0, 1] == 0.0

    def test_zero_target_gives_zero_rhs(self):
        enc = encoding_from_rows([[0, 2], [1, 2]])
        system = gram_assemble(enc, np.zeros(2), ridge=1.0)
        np.testing.assert_array_equal(system.rhs, np.zeros(3))

    def test_single_record(self):
        enc = encoding_from_rows([[0]])
        system = gram_assemble(enc, np.array([3.0]), ridge=2.0)
        np.testing.assert_allclose(np.asarray(system.gram), [[3.0]])
        np.testing.assert_allclose(system.rhs, [3.0])

    def test_no_categorical_features_rejected(self):
        ds = Dataset(response=np.zeros(3))
        enc = build_homogeneous_encoding(ds)
        with pytest.raises(ValueError, match="no categorical"):
            gram_assemble(enc, np.zeros(3), ridge=1.0)

    @staticmethod
    def _sparse_case(chunk, widths=(40, 40, 40)):
        rng = np.random.default_rng(0)
        n, c = 2000, sum(widths)
        offsets = np.cumsum((0,) + widths[:-1])
        rows = np.stack([lo + rng.integers(0, w, n)
                         for lo, w in zip(offsets, widths)], axis=1)
        system = gram_assemble(encoding_from_rows(rows), np.zeros(n),
                               ridge=0.5, chunk=chunk)
        z = np.zeros((n, c))
        z[np.arange(n)[:, None], rows] = 1.0
        return system, z.T @ z + 0.5 * np.eye(c)

    def test_sparse_above_threshold(self):
        # dense up to CLOSED_FORM_LIMIT labels, CSR above it
        system, expected = self._sparse_case(chunk=65536)
        assert not sp.issparse(system.gram)
        np.testing.assert_array_equal(system.gram, expected)
        system, expected = self._sparse_case(chunk=65536,
                                             widths=(1000, 40, 40))
        assert sp.issparse(system.gram)
        np.testing.assert_array_equal(system.gram.toarray(), expected)

    @pytest.mark.parametrize("chunk", [1700, 100])
    def test_sparse_across_chunks(self, chunk):
        # 40 x 40 tables fit in 1700-record chunks; pairs with the
        # 1000-label column, and every pair at 100, go through COO -> CSR
        system, expected = self._sparse_case(chunk=chunk)
        assert not sp.issparse(system.gram)
        np.testing.assert_array_equal(system.gram, expected)
        system, expected = self._sparse_case(chunk=chunk,
                                             widths=(1000, 40, 40))
        assert sp.issparse(system.gram)
        np.testing.assert_array_equal(system.gram.toarray(), expected)

    def test_dense_with_few_records_per_chunk(self):
        # every 3 x 2 pair table exceeds min(chunk, n) = 1: the per-chunk
        # COO path, dense out
        rows = np.array([[0, 3], [1, 3], [2, 4], [0, 4], [2, 3]])
        system = gram_assemble(encoding_from_rows(rows), np.zeros(5),
                               ridge=1.0, chunk=1)
        z = np.zeros((5, 5))
        z[np.arange(5)[:, None], rows] = 1.0
        assert not sp.issparse(system.gram)
        np.testing.assert_array_equal(system.gram, z.T @ z + np.eye(5))

    def test_matches_dense_design(self):
        rng = np.random.default_rng(1)
        rows = np.stack([rng.integers(0, 4, 50),
                         4 + rng.integers(0, 3, 50)], axis=1)
        y = rng.normal(0, 1, 50)
        system = gram_assemble(encoding_from_rows(rows), y, ridge=0.5)
        z = np.zeros((50, 7))
        z[np.arange(50)[:, None], rows] = 1.0
        np.testing.assert_allclose(
            np.asarray(system.gram), z.T @ z + 0.5 * np.eye(7)
        )
        np.testing.assert_allclose(system.rhs, z.T @ y)


@st.composite
def qhot_rows(draw):
    """Random q-hot rows: column ranges overlap freely, so one record can
    hold the same label in two columns; some cases exceed the dense limit."""
    n = draw(st.integers(1, 40))
    q = draw(st.integers(1, 4))
    c = draw(st.sampled_from([1, 3, 12, 40, CLOSED_FORM_LIMIT + 30]))
    lows = draw(st.lists(st.integers(0, c - 1), min_size=q, max_size=q))
    rows = np.stack([
        np.array(draw(st.lists(st.integers(lo, c - 1), min_size=n,
                               max_size=n)))
        for lo in lows
    ], axis=1)
    return rows


class TestGramProperty:
    @settings(max_examples=150, deadline=None)
    @given(rows=qhot_rows(), chunk=st.sampled_from([1, 5, 65536]),
           ridge=st.floats(0.01, 10.0))
    @example(rows=np.array([[2, 2], [0, 2], [1, 1]]), chunk=65536,
             ridge=0.3)
    def test_equals_dense_design(self, rows, chunk, ridge):
        n, q = rows.shape
        encoding = encoding_from_rows(rows)
        y = np.linspace(-1.0, 2.0, n)
        system = gram_assemble(encoding, y, ridge, chunk=chunk)
        # the q-hot design counts a label held twice in a record twice
        z = np.zeros((n, encoding.cardinality))
        np.add.at(z, (np.repeat(np.arange(n), q), rows.ravel()), 1.0)
        expected = z.T @ z + ridge * np.eye(encoding.cardinality)
        dense = encoding.cardinality <= CLOSED_FORM_LIMIT
        assert sp.issparse(system.gram) != dense
        gram = system.gram if dense else system.gram.toarray()
        np.testing.assert_array_equal(gram, expected)
        np.testing.assert_allclose(system.rhs, z.T @ y, rtol=1e-12,
                                   atol=1e-12)


class TestPowerIteration:
    def test_diagonal(self):
        assert power_iteration_max_eig(np.diag([3.0, 1.0])) == pytest.approx(
            3.0, rel=1e-8
        )

    def test_identity(self):
        assert power_iteration_max_eig(np.eye(4)) == pytest.approx(1.0)

    def test_two_by_two(self):
        # eigenvalues of [[2,1],[1,2]] are the roots of (2-t)^2 = 1
        gram = np.array([[2.0, 1.0], [1.0, 2.0]])
        oracle = float(np.linalg.eigvalsh(gram).max())
        assert oracle == pytest.approx(3.0)
        assert power_iteration_max_eig(gram) == pytest.approx(
            oracle, rel=1e-8
        )

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            power_iteration_max_eig(np.zeros((3, 3)))

    def test_close_to_dense_eigensolve(self):
        # random PD matrices with a controlled gap; a nearly degenerate
        # leading pair would stall the Rayleigh estimate at the
        # iteration cap
        rng = np.random.default_rng(10)
        for _ in range(20):
            c = int(rng.integers(3, 100))
            spectrum = np.sort(rng.uniform(0.1, 50.0, c))
            spectrum[-1] = spectrum[-2] * 1.1 + 1.0
            basis, _ = np.linalg.qr(rng.normal(size=(c, c)))
            gram = basis @ np.diag(spectrum) @ basis.T
            gram = (gram + gram.T) / 2
            estimate = power_iteration_max_eig(gram)
            truth = float(np.linalg.eigvalsh(gram).max())
            assert estimate >= (1 - 1e-6) * truth
            assert estimate <= truth * (1 + 1e-9)

    def test_sparse_input(self):
        gram = sp.diags([1.0, 5.0, 2.0]).tocsr()
        assert power_iteration_max_eig(gram) == pytest.approx(5.0)


class TestNgaRidgeSolve:
    def test_identity_design(self):
        # Z = I (c=2), ridge 1: (I + I) beta = y
        enc = encoding_from_rows([[0], [1]])
        system = gram_assemble(enc, np.array([2.0, 4.0]), ridge=1.0)
        result = nga_ridge_solve(system, tol=1e-12)
        np.testing.assert_allclose(result.beta, [1.0, 2.0], atol=1e-10)

    def test_zero_rhs(self):
        system = RidgeSystem(gram=np.eye(3) * 2, rhs=np.zeros(3), ridge=1.0)
        result = nga_ridge_solve(system)
        np.testing.assert_array_equal(result.beta, np.zeros(3))
        assert result.iterations == 0

    def test_matches_closed_form_mid_size(self):
        rng = np.random.default_rng(3)
        system = random_qhot_system(rng, c=50, n=500)
        result = nga_ridge_solve(system, tol=1e-12)
        direct = closed_form_ridge(system)
        assert np.max(np.abs(result.beta - direct)) < 1e-6

    def test_residual_contract_on_success(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            system = random_qhot_system(
                rng, c=int(rng.integers(5, 80)), n=300
            )
            tol = 1e-9
            result = nga_ridge_solve(system, tol=tol)
            bound = tol * max(1.0, float(np.max(np.abs(system.rhs))))
            assert result.residual < bound

    def test_objective_close_to_optimum(self):
        rng = np.random.default_rng(5)
        system = random_qhot_system(rng, c=150, n=1000)
        result = nga_ridge_solve(system, tol=1e-12)
        direct = closed_form_ridge(system)
        assert (
            ridge_objective(system, result.beta)
            <= ridge_objective(system, direct) + 1e-10
        )

    def test_warm_start_short_circuits(self):
        rng = np.random.default_rng(6)
        system = random_qhot_system(rng, c=40, n=200)
        first = nga_ridge_solve(system, tol=1e-10)
        again = nga_ridge_solve(system, tol=1e-8, beta0=first.beta)
        assert again.iterations == 0

    def test_non_convergence_carries_iterate(self):
        rng = np.random.default_rng(7)
        system = random_qhot_system(rng, c=60, n=400)
        with pytest.raises(ConvergenceError) as info:
            nga_ridge_solve(system, tol=1e-14, max_iter=3)
        assert info.value.last_iterate is not None
        assert info.value.residual is not None

    def test_requires_positive_ridge(self):
        system = RidgeSystem(gram=np.eye(2), rhs=np.ones(2), ridge=0.0)
        with pytest.raises(ValueError, match="ridge"):
            nga_ridge_solve(system)


class TestClosedFormRidge:
    def test_simple_diagonal(self):
        system = RidgeSystem(gram=2 * np.eye(2), rhs=np.array([4.0, 6.0]),
                             ridge=1.0)
        np.testing.assert_allclose(closed_form_ridge(system), [2.0, 3.0])

    def test_back_substitution(self):
        enc = encoding_from_rows([[0, 2], [1, 2]])
        system = gram_assemble(enc, np.zeros(2), ridge=1.0)
        system = RidgeSystem(gram=system.gram, rhs=np.array([1.0, 1.0, 2.0]),
                             ridge=1.0)
        beta = closed_form_ridge(system)
        np.testing.assert_allclose(
            np.asarray(system.gram) @ beta, system.rhs, atol=1e-12
        )

    def test_size_bound(self):
        system = RidgeSystem(gram=np.eye(1001), rhs=np.zeros(1001), ridge=1.0)
        with pytest.raises(ValueError, match="bounded"):
            closed_form_ridge(system)

    def test_singular_system_reported(self):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        system = RidgeSystem(gram=gram, rhs=np.ones(2), ridge=0.0)
        with pytest.raises(ValueError, match="singular"):
            closed_form_ridge(system)
