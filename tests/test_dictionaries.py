import numpy as np
import pytest
from scipy.interpolate import BSpline

from mscdlra import dictionaries
from mscdlra.dictionaries import build_bspline_dictionary, build_dct2_dictionary
from mscdlra.linalg import normalize_columns
from mscdlra.solvers import omp


def reference_bspline_dictionary(n, d, degree=3):
    """The uncached builder as it stood before banks were cached,
    with its design matrix inlined."""
    if d < degree + 1:
        raise ValueError(f"need d >= {degree + 1} to hold one spline grid")
    atoms = []
    n_basis = degree + 1
    while len(atoms) < d:
        if n_basis > 4 * n:
            raise ValueError(
                f"cannot accumulate {d} atoms on {n} samples; "
                f"collected {len(atoms)} before the splines outran the grid"
            )
        t = np.r_[
            np.zeros(degree),
            np.linspace(0.0, 1.0, n_basis - degree + 1),
            np.ones(degree),
        ]
        x = np.linspace(0.0, 1.0, n)
        M = BSpline.design_matrix(x, t, degree).toarray()
        for j in range(M.shape[1]):
            if len(atoms) >= d:
                break
            col = M[:, j]
            if np.linalg.norm(col) > 0:
                atoms.append(col)
        n_basis += 1
    D, _ = normalize_columns(np.column_stack(atoms))
    return D


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestDct2:
    def test_orthonormal(self):
        D = build_dct2_dictionary(4, 4)
        np.testing.assert_allclose(D.matrix.T @ D.matrix, np.eye(16), atol=1e-10)

    def test_constant_atom_first(self):
        D = build_dct2_dictionary(3, 5)
        first = D.matrix[:, 0]
        np.testing.assert_allclose(first, first[0] * np.ones(15), atol=1e-12)

    def test_row_first_vectorization(self):
        h, w = 3, 4
        D = build_dct2_dictionary(h, w)
        # atom (p, q) must equal the outer product of the 1-D atoms,
        # flattened row by row
        from mscdlra.dictionaries import _dct_basis

        Mh, Mw = _dct_basis(h), _dct_basis(w)
        p, q = 2, 1
        atom = np.outer(Mh[:, p], Mw[:, q]).ravel()
        np.testing.assert_allclose(D.matrix[:, p * w + q], atom, atol=1e-12)

    def test_invalid_patch(self):
        with pytest.raises(ValueError):
            build_dct2_dictionary(0, 3)


class TestBsplines:
    def test_nonneg_unit_norm(self):
        D = build_bspline_dictionary(50, 30)
        assert np.all(D.matrix >= 0)
        np.testing.assert_allclose(np.linalg.norm(D.matrix, axis=0), 1.0, atol=1e-12)

    def test_atom_count(self):
        D = build_bspline_dictionary(40, 25)
        assert D.matrix.shape == (40, 25)

    def test_smooth_signals_fit_with_few_atoms(self):
        n, d = 80, 60
        D = build_bspline_dictionary(n, d)
        x = np.linspace(0.0, 1.0, n)
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, c = rng.uniform(-1, 1, size=3)
            f = rng.uniform(0.5, 2.0)
            y = 1.0 + a * x + b * np.sin(2 * np.pi * f * x) + c * x * x
            code, _ = omp(y, D, 6)
            res = np.linalg.norm(y - D.matrix @ code)
            assert res <= 0.1 * np.linalg.norm(y)

    def test_infeasible_d(self):
        with pytest.raises(ValueError):
            build_bspline_dictionary(4, 2)
        with pytest.raises(ValueError, match="cannot accumulate"):
            build_bspline_dictionary(3, 1000)


class TestBsplineBankCache:
    """The per-process bank cache hands out the uncached builder's
    arrays, bit for bit, as copies."""

    CASES = [(50, 30), (40, 25), (80, 60), (12, 4), (7, 5, 2), (9, 6, 1),
             (np.int64(50), np.int32(30)), (np.int64(26), 20, np.int64(3))]

    @pytest.mark.parametrize("args", CASES)
    def test_matches_the_uncached_builder(self, args):
        want = reference_bspline_dictionary(*args)
        for _ in range(2):
            got = build_bspline_dictionary(*args)
            assert_bits_equal(got.matrix, want.matrix)
            assert_bits_equal(got.column_norms, want.column_norms)

    def test_writing_into_a_result_leaves_the_next_call_intact(self):
        want = reference_bspline_dictionary(50, 30)
        first = build_bspline_dictionary(50, 30)
        assert first.matrix.flags.writeable and first.column_norms.flags.writeable
        first.matrix[:] = -1.0
        first.column_norms[:] = 0.0
        second = build_bspline_dictionary(50, 30)
        assert not np.shares_memory(first.matrix, second.matrix)
        assert_bits_equal(second.matrix, want.matrix)
        assert_bits_equal(second.column_norms, want.column_norms)

    def test_bank_is_built_once(self, monkeypatch):
        calls = []
        design = dictionaries.bspline_design
        monkeypatch.setattr(dictionaries, "bspline_design",
                            lambda *args: calls.append(args) or design(*args))
        build_bspline_dictionary(31, 13)
        built = len(calls)
        build_bspline_dictionary(np.int64(31), 13, degree=3)
        assert built > 0 and len(calls) == built

    @pytest.mark.parametrize("args, match", [((4, 2), "need d >= 4"),
                                             ((3, 1000), "cannot accumulate")])
    def test_infeasible_request_raises_on_every_call(self, args, match):
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                build_bspline_dictionary(*args)
