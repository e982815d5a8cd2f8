"""The dense Newton path, kept as the tests' oracle for the matrix-free one.

`dense_m` writes M = D_c + k L as an n x n matrix, and `dense_hessian` builds
the interior Hessian M^T W M + C + C^T + diag(w H_yy) from it by column
blocks.  `dense_shifted_solve` stands in for `fracvar.solver._shifted_solve`:
the same Levenberg ladder, with definiteness decided by a Cholesky factor
and the step by `np.linalg.solve`, so a solve patched with it is a dense
Newton iteration.
"""

import itertools

import numpy as np

from fracvar.fracgrid import derivative_stencil

#: Column blocks of the Hessian's upper triangle: with 8 the block products
#: take about n^3/4 multiply-adds, against n^3 for the full product M^T W M.
HESSIAN_BLOCKS = 8


def dense_m(disc):
    """Dense M = D_c + k L, in Fortran order: v is M y plus y(a) times the
    boundary column.  Row i is zero past column i + 2.  Column j of
    k L is k times the weights, shifted down by j.  D_c's bands are the rows
    of the 3 x 3 identity's stencil: node 0, inside, node n - 1."""
    n = disc.p.grid.n
    # each entry of k L is k times L's, so its zeros are 0.0 * k, signed like k
    kw = disc.p.k * disc.left.weights
    m = np.full((n, n), 0.0 * disc.p.k, order="F")
    for j in range(n):
        m[j:, j] = kw[: n - j]
    d = derivative_stencil(np.eye(3), disc.p.grid.h)
    m[0, :3] += d[0]
    m[-1, -3:] += d[2]
    inside = np.arange(1, n - 1)
    m[inside, inside - 1] += d[1, 0]
    m[inside, inside + 1] += d[1, 2]
    return m


def dense_hessian(m, wvv, wyv, wyy):
    """Hessian in the interior node values: M^T W M + C + C^T + diag(wyy),
    with W = diag(wvv) and C = diag(wyv) M.

    Entry (i, j) of M^T W M sums over rows m >= max(i, j) - 2 of M only, so
    each column block c0:c1 of the upper triangle is a product over rows
    from c0 - 2 on, of which the interior entries are kept; C and C^T are
    added block by block, and the lower triangle is mirrored from the upper
    one, so the result is exactly symmetric."""
    n = len(wvv)
    hess = np.empty((n - 2, n - 2), order="F")
    width = -(-n // HESSIAN_BLOCKS)
    for c0 in range(0, n, width):
        c1 = min(c0 + width, n)
        r = max(c0 - 2, 0)
        j0, j1 = max(c0, 1), min(c1, n - 1)  # the block's interior columns
        block = hess[: j1 - 1, j0 - 1 : j1 - 1]
        block[...] = (m[r:, :c1].T @ (wvv[r:, None] * m[r:, c0:c1]))[1:j1, j0 - c0 : j1 - c0]
        # C_ij = wyv_i M_ij and (C^T)_ij = wyv_j M_ji on the block alone
        block += wyv[1:j1, None] * m[1:j1, j0:j1]
        block += (wyv[j0:j1, None] * m[j0:j1, 1:j1]).T
    hess[np.diag_indices(n - 2)] += wyy[1:-1]
    for j in range(n - 3):
        hess[j + 1 :, j] = hess[j, j + 1 :]
    return hess


def hessian_of(disc, lagr, y, v):
    """The dense interior Hessian of the quadrature of lagr at (y, v)."""
    t, w = disc.t, disc.w
    return dense_hessian(dense_m(disc), w * lagr.dvv(t, y, v), w * lagr.dyv(t, y, v), w * lagr.dyy(t, y, v))


def dense_shifted_solve(hess, b, target):
    """`fracvar.solver._shifted_solve` on the dense Hessian of `hess`: on the
    tangent space of u, B = P K P + scale u u^T, shifted by the least mu in
    {0} and {mu0 * 10^j} that lets Cholesky factor it."""
    if not hess.scale > 0.0:
        return None, False
    k = dense_hessian(dense_m(hess.disc), hess.wvv, hess.wyv, hess.wyy)
    if hess.u is not None:
        proj = np.eye(len(b)) - np.outer(hess.u, hess.u)
        k = proj @ k @ proj + hess.scale * np.outer(hess.u, hess.u)
    mu0 = 1e-8 * hess.scale
    for mu in itertools.chain([0.0], (mu0 * 10.0**j for j in itertools.count())):
        shifted = k + mu * np.eye(len(b))
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        return np.linalg.solve(shifted, b), mu > mu0
