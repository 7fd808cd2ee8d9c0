"""Synthetic problem generation and evaluation metrics.

Generators draw dictionary entries uniformly on [0, 1] (making atoms
positively correlated, hence a coherent dictionary), rebuild mixing
matrices with prescribed conditioning through their SVD, and scale noise
so that the empirical signal-to-noise ratio is met exactly. Every
generator is a pure function of its seed.
"""

import warnings

import numpy as np

from .linalg import SparseCodes, normalize_columns
from .solvers import StoppingRule, block_fista, mixed_fista


def derive_seed(master, *key):
    """A well-mixed child seed for the stream identified by ``key``."""
    ss = np.random.SeedSequence([int(master)] + [int(k) for k in key])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def gen_dictionary(n, d, seed):
    """Random coherent dictionary: Uniform[0, 1] entries, normalized columns."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(size=(n, d))
    D, _ = normalize_columns(M)
    return D


def gen_mixing(m, r, cond, seed):
    """Random mixing matrix with prescribed condition number.

    Entries are drawn Uniform[0, 1]; the singular values are then
    replaced by values linearly spaced from 1 down to ``1 / cond``.
    """
    if cond < 1:
        raise ValueError("cond must be at least 1")
    rng = np.random.default_rng(seed)
    M = rng.uniform(size=(m, r))
    U, _, Vt = np.linalg.svd(M, full_matrices=False)
    svals = np.linspace(1.0, 1.0 / cond, r)
    return (U * svals) @ Vt


def gen_codes(d, r, k, seed, nonneg=False):
    """Columnwise k-sparse codes with uniformly drawn supports.

    Nonzero values are standard Gaussian, or Uniform[0, 1] for the
    nonnegative variant.
    """
    if k > d:
        raise ValueError(f"k={k} exceeds the number of atoms {d}")
    rng = np.random.default_rng(seed)
    X = np.zeros((d, r))
    for i in range(r):
        idx = rng.choice(d, size=k, replace=False)
        X[idx, i] = rng.uniform(size=k) if nonneg else rng.standard_normal(k)
    return SparseCodes.from_values(X)


def add_noise_snr(Y, snr_db, seed):
    """Additive Gaussian noise scaled to an exact empirical SNR in dB.

    The noise is rescaled so that ``10 log10(||Y||^2 / ||E||^2)`` equals
    ``snr_db`` exactly; ``snr_db=inf`` returns the data unchanged.
    """
    Ym = np.asarray(Y, dtype=float)
    if snr_db is None or np.isinf(snr_db):
        return Ym.copy()
    norm_y = np.linalg.norm(Ym)
    if norm_y == 0.0:
        raise ValueError("cannot target a finite SNR on zero data")
    rng = np.random.default_rng(seed)
    E = rng.standard_normal(Ym.shape)
    E *= norm_y / (np.linalg.norm(E) * 10.0 ** (snr_db / 20.0))
    return Ym + E


def gen_msc_instance(n, m, d, k, r, snr_db, cond_b, seed, nonneg=False):
    """A full synthetic sparse-coding-in-a-low-rank-model instance.

    Returns a dict with the noisy data ``Y``, the clean data
    ``Y_clean``, the dictionary ``D``, the mixing matrix ``B`` and the
    generating codes ``X``.
    """
    D = gen_dictionary(n, d, derive_seed(seed, 0))
    B = gen_mixing(m, r, cond_b, derive_seed(seed, 1))
    X = gen_codes(d, r, k, derive_seed(seed, 2), nonneg=nonneg)
    Y_clean = D.matrix @ X.values @ B.T
    Y = add_noise_snr(Y_clean, snr_db, derive_seed(seed, 3))
    return {"Y": Y, "Y_clean": Y_clean, "D": D, "B": B, "X": X}


def support_recovery(S_est, S_true, match_columns=False):
    """Percentage of true nonzero positions found by an estimate.

    With ``match_columns`` the estimated columns are first assigned to
    the true columns by maximum support overlap (Hungarian assignment),
    which removes the column permutation ambiguity of low-rank models;
    ``scipy.optimize`` is imported on the first such call.
    """
    if len(S_est) != len(S_true):
        raise ValueError("supports must have the same number of columns")
    total = sum(len(s) for s in S_true)
    if total == 0:
        return 100.0
    est = [np.asarray(s, dtype=int) for s in S_est]
    true = [np.asarray(s, dtype=int) for s in S_true]
    if match_columns:
        from scipy.optimize import linear_sum_assignment

        overlap = np.array([[len(np.intersect1d(e, t)) for t in true] for e in est],
                           dtype=float)
        rows, cols = linear_sum_assignment(-overlap)
        hits = overlap[rows, cols].sum()
    else:
        hits = sum(len(np.intersect1d(e, t)) for e, t in zip(est, true))
    return 100.0 * float(hits) / total


def rel_error(Y, Y_hat):
    """Relative Frobenius error ``||Y - Y_hat||_F / ||Y||_F``."""
    Ym = np.asarray(Y, dtype=float)
    return float(np.linalg.norm(Ym - np.asarray(Y_hat, dtype=float)) / np.linalg.norm(Ym))


def sam(Y, Y_hat, rows=None):
    """Mean spectral angle between matching rows, in radians.

    Each compared row pair contributes ``arccos`` of the normalized
    inner product (clamped to [-1, 1]); rows where either side is zero
    are skipped with a warning.
    """
    Ym = np.asarray(Y, dtype=float)
    Hm = np.asarray(Y_hat, dtype=float)
    if Ym.shape != Hm.shape:
        raise ValueError("compared arrays must have the same shape")
    idx = np.arange(Ym.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    angles = []
    skipped = 0
    for i in idx:
        ny = np.linalg.norm(Ym[i])
        nh = np.linalg.norm(Hm[i])
        if ny == 0.0 or nh == 0.0:
            skipped += 1
            continue
        c = np.clip(Ym[i] @ Hm[i] / (ny * nh), -1.0, 1.0)
        angles.append(np.arccos(c))
    if skipped:
        warnings.warn(f"skipped {skipped} zero rows in the angle average")
    if not angles:
        raise ValueError("no nonzero rows to compare")
    return float(np.mean(angles))


ALPHA_GRID = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)


def auto_alpha(params, solver, seed, grid=ALPHA_GRID, n_instances=3):
    """Pick a regularization ratio from a few simulated instances.

    For each of ``n_instances`` independently generated problems the
    solver is run on every grid point and the ratio with the best
    support recovery is kept (ties keep the smallest ratio; a fully flat
    score profile votes for the grid middle). The arithmetic mean of the
    per-instance picks is returned.

    ``solver`` is ``"block_fista"``, ``"block_fista_nn"`` (its
    nonnegative solve) or ``"mixed_fista"``. ``params`` carries the
    generation parameters: n, m, d, k, r, snr_db, cond_b and optionally
    nonneg, which draws nonnegative codes.
    """
    if solver not in ("block_fista", "block_fista_nn", "mixed_fista"):
        raise ValueError(f"unsupported solver {solver!r}")
    grid = list(grid)
    middle = grid[len(grid) // 2]
    picks = []
    stop = StoppingRule()
    for t in range(n_instances):
        inst = gen_msc_instance(
            params["n"], params["m"], params["d"], params["k"], params["r"],
            params["snr_db"], params["cond_b"], derive_seed(seed, 100 + t),
            nonneg=params.get("nonneg", False),
        )
        scores = []
        for a in grid:
            if solver == "mixed_fista":
                rep = mixed_fista(inst["Y"], inst["D"], inst["B"], a, params["k"], stop=stop)
            else:
                rep = block_fista(inst["Y"], inst["D"], inst["B"], a, params["k"],
                                  stop=stop, nonneg=solver == "block_fista_nn")
            scores.append(support_recovery(rep.codes.support, inst["X"].support))
        scores = np.asarray(scores)
        if scores.max() == scores.min():
            picks.append(middle)
        else:
            picks.append(grid[int(np.argmax(scores))])
    return float(np.mean(picks))
