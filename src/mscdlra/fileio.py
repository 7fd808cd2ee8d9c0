"""File formats: CSV matrices, header-prefixed tensors, index and config files.

Matrices are plain comma-separated values, no header, one row per line.
Tensors start with a line ``dims: n m1 m2`` followed by the n*m1*m2
values whitespace-separated in row-first order. Index files hold one
integer per whitespace-separated token. Config files are flat
``key=value`` lines with ``#`` comments.
"""

import numpy as np

_FLOAT_FMT = "%.17g"


def write_matrix_csv(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    np.savetxt(path, M, delimiter=",", fmt=_FLOAT_FMT)


def read_matrix_csv(path):
    # opened here, so that a missing file raises an OSError naming it
    with open(path) as fh:
        return np.loadtxt(fh, delimiter=",", dtype=float, ndmin=2)


def write_tensor(path, T):
    T = np.asarray(T, dtype=float)
    if T.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got shape {T.shape}")
    with open(path, "w") as fh:
        fh.write("dims: %d %d %d\n" % T.shape)
        for v in T.ravel():
            fh.write(_FLOAT_FMT % v)
            fh.write("\n")


def read_tensor(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("dims:"):
            raise ValueError(f"{path}: first line must be 'dims: n m1 m2'")
        dims = tuple(int(tok) for tok in header[len("dims:"):].split())
        if len(dims) != 3:
            raise ValueError(f"{path}: expected three dimensions, got {dims}")
        values = np.array(fh.read().split(), dtype=float)
    if values.size != dims[0] * dims[1] * dims[2]:
        raise ValueError(
            f"{path}: {values.size} values for dims {dims}"
        )
    return values.reshape(dims)


def is_tensor_file(path):
    with open(path) as fh:
        return fh.readline().startswith("dims:")


def read_index_file(path):
    with open(path) as fh:
        tokens = fh.read().split()
    return np.array([int(t) for t in tokens], dtype=int)


def read_config(path):
    """Flat key=value config; values stay strings, casting is the caller's."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
