"""Dense matrix primitives and the structured least-squares kernel.

Conventions used throughout the package:

* matrices are 2-D float ndarrays, vectorization is row-first (C order),
* a dictionary is a matrix with unit-norm columns, wrapped in
  :class:`Dictionary` together with the norms recorded at normalization,
* a mixing factor is either a dense matrix or a columnwise Kronecker
  (Khatri-Rao) product of two matrices, wrapped in :class:`MixingOperator`
  which exposes Gram and data products without materializing the product
  when it is large; ``_kr_gram`` and ``_kr_product`` form all of them,
* a support is a list with one strictly increasing index array per code
  column; an entry is nonzero when :func:`_support_mask` says so, and a
  support given from outside is canonicalized once, where it enters.

All objects are treated as immutable after construction and every function
here is deterministic and reentrant.

Every symmetric positive definite solve of the package ends in this
module's LAPACK calls, the package's only ones: ``posv``, and ``potrf``
with ``trtrs`` for the NNLS refit. Each caller keeps its own fallback.
The three routines come straight from scipy's compiled LAPACK module, so
importing the package does not load ``scipy.linalg``.
"""

import functools
import importlib.machinery
import importlib.util
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

SUPPORT_TOL = 1e-14

# Ill-conditioning fallback for fixed-support systems: above this condition
# number a ridge of _RIDGE_SCALE * trace/size is added.
_COND_LIMIT = 1e10
_RIDGE_SCALE = 1e-10

# Khatri-Rao products with more rows than this are never materialized.
_MATERIALIZE_LIMIT = 1_000_000


def _load_flapack():
    """scipy's compiled LAPACK module ``scipy.linalg._flapack``, loaded from
    its file without running ``scipy.linalg``, or ``None`` when the file is
    missing or fails to load. The module is registered under its own name,
    so a later ``import scipy.linalg`` reuses it."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        return None
    stem = os.path.join(scipy_spec.submodule_search_locations[0], "linalg", "_flapack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
             if os.path.isfile(stem + suffix)]
    if not paths:
        return None
    try:
        spec = importlib.util.spec_from_file_location(name, paths[0])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    sys.modules[name] = module
    return module


def _lapack_routines():
    """LAPACK ``dposv``, ``dpotrf`` and ``dtrtrs``: the same Fortran objects
    that ``scipy.linalg.get_lapack_funcs`` returns for float64, taken from
    :func:`_load_flapack`'s module, or from ``get_lapack_funcs`` itself when
    that module cannot be loaded."""
    flapack = _load_flapack()
    if flapack is not None:
        return flapack.dposv, flapack.dpotrf, flapack.dtrtrs
    import scipy.linalg
    return scipy.linalg.get_lapack_funcs(("posv", "potrf", "trtrs"), (np.zeros(1),))


_POSV, _POTRF, _TRTRS = _lapack_routines()


def _not_positive_definite(info):
    return np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")


def _cholesky_solve(G, rhs):
    """``G^-1 rhs`` by one LAPACK ``posv`` (Cholesky factor and solve). This
    module makes the package's only LAPACK calls; each caller keeps its own
    fallback for the ``LinAlgError`` of a ``G`` not positive definite."""
    _, x, info = _POSV(G, rhs, lower=1)
    if info > 0:
        raise _not_positive_definite(info)
    return x


def _cholesky_whiten(G, rhs):
    """The upper Cholesky factor ``R`` of ``G = R^T R`` (``potrf``, lower
    triangle zeroed) and ``R^-T rhs`` (``trtrs``): ``||R x - R^-T rhs||^2``
    is ``x^T G x - 2 x^T rhs`` up to a constant."""
    R, info = _POTRF(G, lower=0, clean=1)
    if info > 0:
        raise _not_positive_definite(info)
    return R, _TRTRS(R, rhs, lower=0, trans=1)[0]


def _solve_spd(G, rhs):
    """:func:`_cholesky_solve` with a trace-scaled ridge retry on failure."""
    try:
        return _cholesky_solve(G, rhs)
    except np.linalg.LinAlgError:
        ridge = _RIDGE_SCALE * max(np.trace(G) / G.shape[0], 1.0)
        return _cholesky_solve(G + ridge * np.eye(G.shape[0]), rhs)


def as_matrix(M, name="matrix"):
    """Coerce to a 2-D float array with finite entries."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _check_count(value, name, low=0):
    """Reject a count (an iteration cap, a number of runs) that is not an
    integer of at least ``low``, naming it as ``name``."""
    if not (isinstance(value, numbers.Integral) and value >= low):
        raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")


@dataclass(frozen=True)
class Dictionary:
    """A known basis with unit ell-2 norm columns.

    Attributes
    ----------
    matrix : ndarray, shape (n, d)
        The normalized atoms, one per column.
    column_norms : ndarray, shape (d,)
        Norms of the original columns, recorded so codes can be mapped
        back to the unnormalized basis.
    """

    matrix: np.ndarray
    column_norms: np.ndarray

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def n_atoms(self):
        return self.matrix.shape[1]


def dict_matrix(D):
    """Return the underlying ndarray of a Dictionary or array-like."""
    if isinstance(D, Dictionary):
        return D.matrix
    return as_matrix(D, "dictionary")


def normalize_columns(M):
    """Normalize the columns of ``M`` to unit ell-2 norm.

    Parameters
    ----------
    M : array-like, shape (n, d)

    Returns
    -------
    dictionary : Dictionary
    norms : ndarray, shape (d,)
        The original column norms (also stored on the dictionary).

    Raises
    ------
    ValueError
        If a column has zero norm (including squared-norm underflow).
    """
    A = as_matrix(M)
    norms = np.sqrt(np.einsum("ij,ij->j", A, A))
    bad = np.flatnonzero(norms == 0.0)
    if bad.size:
        raise ValueError(f"column {bad[0]} has zero norm and cannot be normalized")
    return Dictionary(A / norms, norms.copy()), norms


def spectral_norm_sq(M):
    """Largest squared singular value of ``M``: the top ``np.linalg.eigvalsh``
    eigenvalue of the smaller of its two Gram matrices."""
    A = as_matrix(M)
    if not np.any(A):
        raise ValueError("spectral norm of the zero matrix is undefined here")
    G = A.T @ A if A.shape[1] <= A.shape[0] else A @ A.T
    return float(np.linalg.eigvalsh(G)[-1])


def khatri_rao(B, C):
    """Columnwise Kronecker product: both factors checked, then :func:`_khatri_rao`.

    Column ``l`` of the result is ``kron(B[:, l], C[:, l])``; entry
    ``(j, k)`` of that column sits at row ``j * m2 + k`` (row-first).
    """
    return _khatri_rao(*_kr_factors(B, C))


def _kr_factors(B, C):
    """``B`` and ``C`` as finite 2-D arrays with one column count."""
    Bm, Cm = as_matrix(B, "B"), as_matrix(C, "C")
    if Bm.shape[1] != Cm.shape[1]:
        raise ValueError(f"column counts differ: {Bm.shape[1]} vs {Cm.shape[1]}")
    return Bm, Cm


def _khatri_rao(B, C):
    """:func:`khatri_rao` of two factors already checked."""
    return (B[:, None, :] * C[None, :, :]).reshape(B.shape[0] * C.shape[0], B.shape[1])


def _kr_gram(B, C=None):
    """Gram of the mixing ``B``, or of ``khatri_rao(B, C)``: ``B^T B * C^T C``."""
    G = B.T @ B
    return G if C is None else G * (C.T @ C)


def _kr_product(Y, B, C=None):
    """``Y @ B``, or ``Y @ khatri_rao(B, C)``; above ``_MATERIALIZE_LIMIT``
    rows ``Y`` is contracted as an (n, m1, m2) tensor with ``B`` and ``C``."""
    if C is None:
        return Y @ B
    if B.shape[0] * C.shape[0] <= _MATERIALIZE_LIMIT:
        return Y @ _khatri_rao(B, C)
    T = Y.reshape(Y.shape[0], B.shape[0], C.shape[0])
    return np.einsum("ijk,jl,kl->il", T, B, C, optimize=True)


class MixingOperator:
    """Mixing factor providing Gram and data products.

    Either a dense matrix ``B`` (m x r) or the Khatri-Rao product of two
    matrices ``B`` (m1 x r) and ``C`` (m2 x r), in which case the
    effective matrix has shape (m1*m2, r) and is only materialized when
    small. Construction checks the factors and forms the r x r Gram
    matrix by :func:`_kr_gram`; its eigenvalues, behind :meth:`spectral_norm_sq`,
    ``min_singular_value`` and ``rank_deficient``, are computed on the
    first read of any of them and kept. Data products use :func:`_kr_product`.
    """

    def __init__(self, B, C=None):
        self.B = as_matrix(B, "B")
        self.C = None if C is None else as_matrix(C, "C")
        if self.C is not None and self.B.shape[1] != self.C.shape[1]:
            raise ValueError("Khatri-Rao factors must share the column count")
        self.kind = "dense" if self.C is None else "khatri_rao"
        self._gram = _kr_gram(self.B, self.C)
        self.n_rows = self.B.shape[0] * (1 if self.C is None else self.C.shape[0])
        self.n_cols = self.B.shape[1]

    @functools.cached_property
    def _extreme_eigenvalues(self):
        evals = np.linalg.eigvalsh(self._gram)
        return float(evals[0]), float(evals[-1])

    @property
    def min_singular_value(self):
        return float(np.sqrt(max(self._extreme_eigenvalues[0], 0.0)))

    @property
    def rank_deficient(self):
        """Whether the Gram matrix is singular to working precision: its
        smallest eigenvalue is at most ``r * eps`` times its largest, the
        rounding floor of ``eigvalsh``. Most solvers assume full column rank."""
        low, high = self._extreme_eigenvalues
        return bool(low <= self.n_cols * np.finfo(float).eps * high)

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def gram(self):
        """The r x r Gram matrix of the effective mixing matrix."""
        return self._gram

    def materialize(self):
        """The effective mixing matrix as a dense array."""
        if self.kind == "dense":
            return self.B
        if self.n_rows > _MATERIALIZE_LIMIT:
            raise ValueError(f"refusing to materialize a {self.n_rows}-row "
                             "Khatri-Rao product")
        return _khatri_rao(self.B, self.C)

    def data_product(self, Y):
        """Compute ``Y @ B_eff`` without materializing a large product.

        ``Y`` must have ``n_rows`` columns; for the Khatri-Rao kind this
        is the mode-0 unfolding of the data tensor. Each call checks ``Y``
        for shape and finiteness; :meth:`_data_product` is the same product
        on an array already checked.
        """
        Ym = as_matrix(Y, "Y")
        if Ym.shape[1] != self.n_rows:
            raise ValueError(
                f"data has {Ym.shape[1]} columns, operator has {self.n_rows} rows"
            )
        return self._data_product(Ym)

    def _data_product(self, Ym):
        """:meth:`data_product` of a finite (n, ``n_rows``) array."""
        return _kr_product(Ym, self.B, self.C)

    def spectral_norm_sq(self):
        """Largest squared singular value of the effective matrix: the top
        eigenvalue of its Gram matrix, computed on first use."""
        sigma_max_sq = self._extreme_eigenvalues[1]
        if sigma_max_sq <= 0.0:
            raise ValueError("spectral norm of the zero matrix is undefined here")
        return sigma_max_sq


def as_mixing(B):
    """Wrap a dense array as a MixingOperator; pass operators through."""
    if isinstance(B, MixingOperator):
        return B
    return MixingOperator(B)


def canonical_support(S, d):
    """Canonicalize a support given from outside: sorted unique in-range
    index arrays. A non-empty column must be a flat sequence of integers:
    a nested column, or one holding a float or boolean index (also mixed
    among integers), is rejected; an empty one of any type is kept.
    Supports built inside the package already are canonical."""
    out = []
    for i, idx in enumerate(S):
        a = np.asarray(idx)
        if a.size:
            if a.ndim != 1:
                raise ValueError(f"support of column {i} is not a flat index list")
            # asarray upcasts [1, True] to integers, so read each entry's type
            entries = [a] if isinstance(idx, np.ndarray) else map(np.asarray, idx)
            bad = next((e.dtype for e in entries if e.dtype.kind not in "iu"), None)
            if bad is not None:
                raise ValueError(f"support of column {i} has {bad} indices, not integers")
        a = np.unique(a.astype(int))
        if a.size and (a[0] < 0 or a[-1] >= d):
            raise ValueError(f"support of column {i} has indices outside [0, {d})")
        out.append(a)
    return out


def _support_mask(X):
    """The package's one nonzero rule: the entries of ``X`` of magnitude
    above ``SUPPORT_TOL``. Every support, masked code and nonzero count
    is decided here."""
    return np.abs(X) > SUPPORT_TOL


def _masked(X):
    """``X`` with the entries outside :func:`_support_mask` zeroed."""
    return np.where(_support_mask(X), X, 0.0)


def support_from_values(X):
    """Per-column index sets of the entries in :func:`_support_mask`."""
    return [np.flatnonzero(m) for m in _support_mask(np.asarray(X, dtype=float)).T]


@dataclass(frozen=True)
class SparseCodes:
    """A columnwise sparse code matrix together with its support."""

    values: np.ndarray
    support: list

    @classmethod
    def from_values(cls, values):
        """The :func:`_masked` values and the supports they leave."""
        V = _masked(np.asarray(values, dtype=float))
        return cls(V, [np.flatnonzero(v) for v in V.T])

    @property
    def shape(self):
        return self.values.shape

    def nnz_per_column(self):
        return [len(s) for s in self.support]


def _coerce_data(Y, D, B):
    """``Y``, ``D`` and ``B`` as validated arrays and operator, with ``Y``
    of shape (rows of ``D``, rows of ``B``)."""
    Dm, op, Ym = dict_matrix(D), as_mixing(B), as_matrix(Y, "Y")
    expected = (Dm.shape[0], op.n_rows)
    if Ym.shape != expected:
        raise ValueError(f"Y has shape {Ym.shape}, expected {expected} "
                         "(dictionary rows, mixing rows)")
    return Ym, Dm, op


class _Problem:
    """One validated problem ``min ||Y - D X B^T||_F^2``, built once per
    public call, with the pieces every solver works from: ``D``, ``op``,
    ``Y``, ``d``, ``r``, the d x d atom Gram ``U = D^T D`` (8 d^2 bytes),
    ``G = B^T B``, ``N = Y B``, ``M = D^T N`` and ``normY_sq``. A caller
    that codes against one dictionary many times passes its ``U``.
    :meth:`cost` is the one Gram-domain objective that scores iterates."""

    def __init__(self, Y, D, B, U=None):
        self.Y, self.D, self.op = _coerce_data(Y, D, B)
        self.d, self.r = self.D.shape[1], self.op.n_cols
        self.U = self.D.T @ self.D if U is None else U
        self.G = self.op.gram()
        self.N = self.op._data_product(self.Y)
        self.M = self.D.T @ self.N
        self.normY_sq = float(np.einsum("ij,ij->", self.Y, self.Y))

    def start(self, X0):
        """Zeros for ``X0=None``, else a validated (d, r) copy of ``X0``."""
        if X0 is None:
            return np.zeros((self.d, self.r))
        X = np.asarray(X0, dtype=float)
        if X.shape != (self.d, self.r):
            raise ValueError(f"X0 has shape {X.shape}, expected {(self.d, self.r)}")
        return as_matrix(X, "X0").copy()

    def cost(self, X, H=None):
        """``||Y - D X B^T||_F^2`` as ``||Y||^2 - 2<X, M> + <U X G, X>``, clamped
        at 0, without a dense residual. ``H`` is the product ``U @ X @ G``
        when given, and is formed otherwise."""
        fit = np.einsum("ij,ij->", self.U @ X @ self.G if H is None else H, X)
        cross = np.einsum("ij,ij->", X, self.M)
        return max(self.normY_sq - 2.0 * cross + fit, 0.0)


def _assemble_normal_system(Dm, U, V, N, S):
    """Gram matrix and right-hand side of the fixed-support system.

    The unknowns are the support entries taken column by column; block
    ``(i, j)`` of the Gram matrix is ``V[i, j] * U[S_i, S_j]`` with
    ``U = D^T D``. Also returns the row and the code column of each
    unknown.
    """
    idx = np.concatenate(S)
    col = np.repeat(np.arange(len(S)), [len(s) for s in S])
    G = V[np.ix_(col, col)] * U[np.ix_(idx, idx)]
    g = np.concatenate([Dm[:, Si].T @ N[:, i] for i, Si in enumerate(S)])
    return G, g, idx, col


def _solve_on_support(P, S, ridge, solve):
    """Normal system and scatter shared by the fixed-support solvers on
    the problem ``P``, for a canonical support ``S`` (see
    :func:`canonical_support`); ``solve(G, g)`` returns the unknowns of
    the system. ``ridge`` and the column count of ``S`` are checked here."""
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    if len(S) != P.r:
        raise ValueError(f"support has {len(S)} columns, mixing has {P.r}")
    X = np.zeros((P.d, P.r))
    if any(len(s) for s in S):
        G, g, idx, col = _assemble_normal_system(P.D, P.U, P.G, P.N, S)
        X[idx, col] = solve(G, g)
    return SparseCodes.from_values(X)


def _ls_on_support(P, S, ridge, auto_ridge=True):
    """:func:`fixed_support_ls` on the problem ``P``."""

    def solve(G, g):
        eff_ridge = ridge
        if auto_ridge:
            cond = np.linalg.cond(G)
            if not np.isfinite(cond) or cond > _COND_LIMIT:
                eff_ridge = max(ridge, _RIDGE_SCALE * np.trace(G) / G.shape[0])
        A = G if eff_ridge == 0.0 else G + eff_ridge * np.eye(G.shape[0])
        try:
            return _cholesky_solve(A, g)
        except np.linalg.LinAlgError as exc:
            if eff_ridge == 0.0:
                raise ValueError(
                    "singular fixed-support system; pass ridge > 0 or enable auto_ridge"
                ) from exc
            return np.linalg.lstsq(A, g, rcond=None)[0]

    return _solve_on_support(P, S, ridge, solve)


def fixed_support_ls(Y, D, B, S, ridge=0.0, auto_ridge=True):
    """Least-squares codes for a fixed support.

    Minimizes ``||Y - D X B^T||_F^2`` over ``X`` supported on ``S``,
    assembling the normal equations blockwise (block ``(i, j)`` equals
    ``(B^T B)_{ij} * (D^T D)_{S_i S_j}``) so the Kronecker system is
    never formed; the d x d atom Gram ``D^T D`` is formed once per call
    (8 d^2 bytes). When the assembled system has condition number above
    1e10 and ``auto_ridge`` is on, a ridge of ``1e-10 * trace / size``
    (at least ``ridge``) is added.

    Parameters
    ----------
    Y : ndarray, shape (n, m_eff)
        Data matrix; for a Khatri-Rao operator this is the mode-0
        unfolding.
    D : Dictionary or ndarray, shape (n, d)
    B : MixingOperator or ndarray, shape (m, r)
    S : list of r index arrays
    ridge : float
        Explicit ridge added to the normal matrix diagonal.
    auto_ridge : bool
        Enable the ill-conditioning fallback; with ``auto_ridge=False``
        and ``ridge=0`` a singular system raises.

    Returns
    -------
    SparseCodes
    """
    P = _Problem(Y, D, B)
    return _ls_on_support(P, canonical_support(S, P.d), ridge, auto_ridge)


def residual_cost(Y, D, X, B):
    """Squared Frobenius residual ``||Y - D X B^T||_F^2``.

    For a large Khatri-Rao operator the reconstruction is never
    materialized; the cost is expanded through Gram products instead.
    """
    Ym, Dm, op = _coerce_data(Y, D, B)
    Xm = X.values if isinstance(X, SparseCodes) else as_matrix(X, "X")
    if Xm.shape != (Dm.shape[1], op.n_cols):
        raise ValueError(
            f"codes have shape {Xm.shape}, expected {(Dm.shape[1], op.n_cols)}"
        )
    return _residual_cost(Ym, Dm, Xm, op)


def _residual_cost(Ym, Dm, Xm, op):
    """:func:`residual_cost` of arrays and an operator already validated."""
    A = Dm @ Xm
    if op.kind == "dense" or op.n_rows <= _MATERIALIZE_LIMIT:
        R = Ym - A @ op.materialize().T
        return float(np.einsum("ij,ij->", R, R))
    cross = np.einsum("ij,ij->", A, op._data_product(Ym))
    fit = np.einsum("ij,ij->", A.T @ A, op.gram())
    out = float(np.einsum("ij,ij->", Ym, Ym) - 2.0 * cross + fit)
    return max(out, 0.0)
