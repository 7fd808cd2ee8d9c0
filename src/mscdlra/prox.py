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
    keep = np.argsort(-np.abs(Xm), axis=0, kind="stable")[:k]
    mask = np.zeros(Xm.shape, dtype=bool)
    mask[keep, np.arange(Xm.shape[1])] = True
    return np.where(mask, Xm, 0.0)


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


def prox_l11(X, lam):
    """Proximal operator of ``lam * max_i ||X_i||_1``.

    At the optimum every column whose l1 norm exceeds a shared level
    ``t`` is shrunk onto the l1 ball of radius ``t``, where ``t`` solves
    ``g(t) = sum_i mu_i(t) = lam`` and ``mu_i(t)`` is the per-column
    shrinkage amount. With the magnitudes ``a`` of a column sorted
    decreasingly and ``c`` their cumulative sums, ``mu_i`` is linear with
    slope ``-1/rho`` between the breakpoints ``c_j - j a_j`` (j = 2..d),
    where its active count ``rho`` grows to j, and ``c_d``, where it
    vanishes. One sort of all breakpoints locates the segment on which
    ``g`` falls to ``lam``; ``t`` and each ``mu_i = (c_rho - t) / rho``
    follow there in closed form. By Moreau's identity this is the
    l1,inf-ball projection of Quattoni, Carreras, Collins & Darrell (2009).
    """
    Xm = np.asarray(X, dtype=float)
    if Xm.ndim != 2:
        raise ValueError("prox_l11 expects a matrix")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0.0 or Xm.size == 0:
        return Xm.copy()

    A = np.abs(Xm)
    abs_sorted = np.sort(A, axis=0)[::-1]
    cums = np.cumsum(abs_sorted, axis=0)
    sum_inf = float(abs_sorted[0].sum())
    # the zero region is detected with a relative slack, so boundary
    # thresholds scaled by a stepsize still map exactly to zero
    if lam >= sum_inf * (1.0 - 1e-12):
        return np.zeros_like(Xm)

    d, r = Xm.shape
    j = np.arange(1.0, d + 1.0)[:, None]
    knots = np.empty((d, r))
    np.subtract(cums[1:], j[1:] * abs_sorted[1:], out=knots[:-1])
    knots[-1] = cums[-1]
    rises = np.append(1.0 / j[:-1, 0] - 1.0 / j[1:, 0], 1.0 / d)
    # stable: among equal knots a c_d comes last, so the last knot is
    # where the widest column leaves and g reaches 0
    order = np.argsort(knots, axis=None, kind="stable")
    tau = knots.ravel()[order]
    # g starts at sum_inf with slope -r; the slope of each segment is -r
    # plus the rises of the breakpoints passed before it
    slope = np.concatenate(([0.0], np.cumsum(rises[order[:-1] // r]))) - r
    tau[1:] -= tau[:-1]  # now the segment widths, the first from 0
    below = sum_inf + np.cumsum(slope * tau) <= lam
    below[-1] = True  # rounding may leave g there above a tiny lam
    passed = np.zeros(d * r, dtype=bool)
    passed[order[:np.argmax(below)]] = True
    passed = passed.reshape(d, r)
    rho = 1 + passed[:-1].sum(axis=0)
    active = ~passed[-1]
    c_rho = cums[rho - 1, np.arange(r)]
    t = ((c_rho / rho)[active].sum() - lam) / (1.0 / rho[active]).sum()
    # the shrink level of an active column on this segment; 0 where the
    # column already fits in the l1 ball of radius t
    mu = np.where(active, np.maximum((c_rho - t) / rho, 0.0), 0.0)
    return np.sign(Xm) * np.maximum(A - mu, 0.0)
