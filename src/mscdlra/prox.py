"""Thresholding, projection and proximal operators shared by the solvers."""

import numpy as np


def hard_threshold_k(x, k):
    """Keep the ``k`` entries of largest magnitude, zero the rest.

    Ties at the k-th largest magnitude are broken by keeping the entry
    with the smaller index, which makes the operator single valued and
    every solver built on it deterministic.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError("hard_threshold_k expects a vector")
    return hard_threshold_columns(v[:, None], k)[:, 0]


def hard_threshold_columns(X, k):
    """Columnwise :func:`hard_threshold_k` of a matrix, same tie-break."""
    Xm = np.asarray(X, dtype=float)
    if Xm.ndim != 2:
        raise ValueError("hard_threshold_columns expects a matrix")
    if not 0 <= k <= Xm.shape[0]:
        raise ValueError(f"k={k} outside [0, {Xm.shape[0]}]")
    out = np.zeros_like(Xm)
    keep = np.argsort(-np.abs(Xm), axis=0, kind="stable")[:k]
    np.put_along_axis(out, keep, np.take_along_axis(Xm, keep, axis=0), axis=0)
    return out


def soft_threshold(x, lam):
    """Elementwise shrinkage ``sign(x) * max(|x| - lam, 0)``.

    ``lam`` broadcasts against ``x``: a scalar, or one value per column.
    """
    if (np.asarray(lam) < 0).any():
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(x, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def project_nonneg(X):
    """Projection on the nonnegative orthant."""
    return np.maximum(np.asarray(X, dtype=float), 0.0)


def nonneg_soft_threshold(X, lam):
    """``max(X - lam, 0)``, the nonnegative counterpart of shrinkage;
    ``lam`` broadcasts as in :func:`soft_threshold`."""
    if (np.asarray(lam) < 0).any():
        raise ValueError("threshold must be nonnegative")
    return np.maximum(np.asarray(X, dtype=float) - lam, 0.0)


def _l1_shrink_level(abs_desc, cumsum, target):
    """Shrinkage amount mapping a column onto the l1 ball of radius ``target``.

    ``abs_desc`` holds the column magnitudes sorted decreasingly and
    ``cumsum`` their cumulative sums. Returns mu >= 0 such that
    ``sum(max(abs - mu, 0)) == target`` (0 when the column already fits).
    """
    if abs_desc.size == 0 or cumsum[-1] <= target:
        return 0.0
    j = np.arange(1, abs_desc.size + 1)
    mu_cand = (cumsum - target) / j
    rho = np.flatnonzero(abs_desc > mu_cand)[-1]
    return float(mu_cand[rho])


def _shrink_levels(abs_sorted, cums, target):
    """Columnwise version of :func:`_l1_shrink_level` on (d, r) arrays."""
    d = abs_sorted.shape[0]
    j = np.arange(1, d + 1)[:, None]
    mu_cand = (cums - target) / j
    above = abs_sorted > mu_cand
    # index of the last True per column; columns that already fit get 0
    rho = d - 1 - np.argmax(above[::-1], axis=0)
    mu = mu_cand[rho, np.arange(abs_sorted.shape[1])]
    mu[cums[-1] <= target] = 0.0
    return mu


def prox_l11(X, lam, tol=1e-10):
    """Proximal operator of ``lam * max_i ||X_i||_1``.

    Bisection on the shared column l1 level ``t``: at the optimum every
    column whose l1 norm exceeds ``t`` is shrunk onto the l1 ball of
    radius ``t``, and ``t`` solves ``sum_i mu_i(t) = lam`` where
    ``mu_i(t)`` is the per-column shrinkage amount. The bisection runs
    until the bracket on ``t`` is below ``tol``.
    """
    Xm = np.asarray(X, dtype=float)
    if Xm.ndim != 2:
        raise ValueError("prox_l11 expects a matrix")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if lam == 0.0 or Xm.size == 0:
        return Xm.copy()

    abs_sorted = np.sort(np.abs(Xm), axis=0)[::-1]
    cums = np.cumsum(abs_sorted, axis=0)
    sum_inf = float(abs_sorted[0].sum())
    # the zero region is detected with a relative slack far below the
    # bisection resolution, so boundary thresholds scaled by a stepsize
    # still map exactly to zero
    if lam >= sum_inf * (1.0 - 1e-12):
        return np.zeros_like(Xm)

    lo, hi = 0.0, float(cums[-1].max())
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _shrink_levels(abs_sorted, cums, mid).sum() > lam:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    mu = _shrink_levels(abs_sorted, cums, t)
    return np.sign(Xm) * np.maximum(np.abs(Xm) - mu, 0.0)
