"""Structured dictionary builders: 2-D cosine bases and B-spline banks."""

import functools
import operator

import numpy as np

from .linalg import Dictionary, normalize_columns


def _dct_basis(n):
    """Orthonormal type-II cosine basis of size n, atoms in columns."""
    x = np.arange(n)
    p = np.arange(n)
    M = np.cos(np.pi * np.outer(2 * x + 1, p) / (2 * n))
    M[:, 0] *= np.sqrt(1.0 / n)
    M[:, 1:] *= np.sqrt(2.0 / n)
    return M


def build_dct2_dictionary(h, w):
    """Full orthonormal 2-D cosine basis over h x w patches.

    Atom (p, q) is the outer product of the 1-D basis vectors p and q,
    vectorized row-first; it sits in column ``p * w + q``. The resulting
    d = h * w atoms satisfy ``D^T D = I``.
    """
    if h < 1 or w < 1:
        raise ValueError("patch sides must be positive")
    D = np.kron(_dct_basis(h), _dct_basis(w))
    return Dictionary(D, np.ones(h * w))


def bspline_design(n, n_basis, degree=3):
    """Sampled clamped uniform B-spline basis on [0, 1].

    Returns an (n, n_basis) nonnegative design matrix; requires
    ``n_basis >= degree + 1``. ``scipy.interpolate`` is imported on the
    first call.
    """
    from scipy.interpolate import BSpline

    if n_basis < degree + 1:
        raise ValueError(f"need at least {degree + 1} basis functions")
    t = np.r_[
        np.zeros(degree),
        np.linspace(0.0, 1.0, n_basis - degree + 1),
        np.ones(degree),
    ]
    x = np.linspace(0.0, 1.0, n)
    return BSpline.design_matrix(x, t, degree).toarray()


def build_bspline_dictionary(n, d, degree=3):
    """Bank of smooth nonnegative atoms from uniform B-spline grids.

    Cubic B-spline bases on clamped uniform knot grids of increasing
    density (basis counts swept from ``degree + 1`` upward) are sampled
    on ``n`` points and stacked until ``d`` atoms accumulate; columns
    are l2-normalized. Atoms that vanish on the sample grid are skipped.

    The bank of each ``(n, d, degree)`` is built once per process (see
    :func:`_bspline_bank`); every call returns a new :class:`Dictionary`
    holding copies of it, so writing into one leaves later calls intact.
    Integer-like arguments, numpy integers included, are read as Python
    ints.
    """
    matrix, norms = _bspline_bank(operator.index(n), operator.index(d),
                                  operator.index(degree))
    return Dictionary(matrix.copy(), norms.copy())


@functools.lru_cache(maxsize=8)
def _bspline_bank(n, d, degree):
    """The normalized atoms and original column norms of
    :func:`build_bspline_dictionary`, as read-only arrays cached per
    ``(n, d, degree)``. An infeasible request raises on every call,
    since a raised call is not cached."""
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
        M = bspline_design(n, n_basis, degree)
        for j in range(M.shape[1]):
            if len(atoms) >= d:
                break
            col = M[:, j]
            if np.linalg.norm(col) > 0:
                atoms.append(col)
        n_basis += 1
    D, _ = normalize_columns(np.column_stack(atoms))
    for a in (D.matrix, D.column_norms):
        a.flags.writeable = False
    return D.matrix, D.column_norms
