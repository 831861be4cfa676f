"""Fast direct solve of the Crank-Nicolson matrix I - dt/2 L on a masked grid.

The operator is read off the grid's stencil (lo0, up0, lo1, up1). On the
box of non-edge nodes it is the Kronecker sum of a tridiagonal operator T0
along axis 0 (x, or rho with its parity row: off-diagonals lo0 and up0,
diagonal -(lo0 + up0)) and the constant stencil c1 (1, -2, 1) along axis 1
(y or z, c1 = lo1 = up1) with Dirichlet end columns. The orthonormal DST-I
diagonalises the axis-1 part, so the box matrix A0 = I - dt/2 (T0 + c1 T1)
splits into one tridiagonal system per sine mode. The modes are stacked
into one tridiagonal matrix, factored once and solved once per step in
the symmetric form of `symmetric_factor` (dpttrf, dpttrs). The scaling D
acts on axis 0 only, so it commutes with the DST along axis 1: it is
folded into the scatter and the gather of the active nodes, and the box
arrays between them hold D times the unscaled box values.

The hole enters by the capacitance matrix method (Buzbee, Dorr, George &
Golub, SIAM J. Numer. Anal. 8 (1971) 722; Proskurowski & Widlund, Math.
Comp. 30 (1976) 433). Sources on the hole nodes next to active nodes are
chosen so that the box solution vanishes there, which cuts the links into
the hole. When the hole ghost factor g is nonzero, sources on the active
nodes next to the hole add back their diagonal shift g * (hole-link
coefficients) (a Woodbury correction). Setup stores, for each box row that
holds a capacitance node, that column of every mode's tridiagonal inverse.
A step then costs one DST pair, one stacked tridiagonal solve, a dense
solve of the capacitance rank and one pass over the stored columns: the
sources are found from the spectral solution at their nodes, and their
response is added in spectral space before the inverse DST.
"""

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dpttrf, dpttrs

from ..errors import NumericalError


def symmetric_factor(lo, di, up):
    """Factor tridiagonal matrices A that a diagonal D makes symmetric positive definite.

    Row i of A holds lo[i] (column i - 1), di[i] and up[i] (column i + 1);
    lo[0] and up[-1] are unused. di may be 2d, one row per matrix: the
    matrices then share lo and up and are stacked into one factor. With
    D[0] = 1 and D[i + 1] / D[i] = sqrt(up[i] / lo[i + 1]), S = D A D^{-1}
    is symmetric, with off-diagonal sign(up[i]) sqrt(lo[i + 1] up[i]).
    Returns (D, d, e), d and e the dpttrf factor of S, so that
    A x = b is x = dpttrs(d, e, D b) / D. Raises NumericalError when a
    coupling product lo[i + 1] up[i] is not positive and finite, or when S
    is not positive definite.
    """
    prod = lo[1:] * up[:-1]
    if not np.all((prod > 0.0) & np.isfinite(prod)):
        raise NumericalError("tridiagonal is not symmetrisable: a coupling product "
                             "lo[i + 1] up[i] is not positive and finite")
    scale = np.concatenate(([1.0], np.cumprod(np.sqrt(up[:-1] / lo[1:]))))
    di = np.atleast_2d(di)
    e = np.tile(np.append(np.copysign(np.sqrt(prod), up[:-1]), 0.0), di.shape[0])[:-1]
    d, e, info = dpttrf(di.ravel(), e)
    if info != 0:
        raise NumericalError(f"symmetric tridiagonal is not positive definite (info {info})")
    return scale, d, e


def _neighbours(mask):
    """mask at the (i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1) neighbours,
    False past the sides of the box."""
    pad = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    pad[1:-1, 1:-1] = mask
    return pad[2:, 1:-1], pad[:-2, 1:-1], pad[1:-1, 2:], pad[1:-1, :-2]


class MaskedCNSolve:
    """solve(b) = (I - dt/2 L)^{-1} b over the active nodes of a masked grid.

    active and hole are node masks, stencil the grid's link coefficients
    (lo0, up0, lo1, up1) and ghost the hole ghost factor of
    `grids.hole_ghost`; L is the operator that `grids.masked_laplacian`
    assembles from them. The box is the node rows from the first to the
    last that hold an active node, without the first and last columns;
    every box node must be active or in the hole, and every node outside
    it lies on the outer edge, where the value is zero. The DST-I needs
    the axis-1 coefficients to be one constant, c1 = up1[0]. `rank` is the
    size of the capacitance system.
    """

    def __init__(self, active, hole, stencil, ghost, dt):
        from scipy.fft import dst  # imported here: heatext.cli does not load scipy.fft

        lo0, up0, _, up1 = stencil
        c1 = up1[0]
        filled = np.flatnonzero(active.any(axis=1))
        rows = slice(filled[0], filled[-1] + 1)
        lo, up = lo0[rows], up0[rows]
        di = -(lo + up)
        act = active[rows, 1:-1]
        in_hole = hole[rows, 1:-1]
        n0, n1 = act.shape
        self._dst = dst
        self._shape = (n1, n0)  # box arrays are mode-major: axis 1 first

        half = 0.5 * dt
        k = np.arange(1, n1 + 1)
        lam = -4.0 * c1 * np.sin(0.5 * np.pi * k / (n1 + 1)) ** 2
        scale, *self._tri = symmetric_factor(
            -half * lo, 1.0 - half * (di[None, :] + lam[:, None]), -half * up)

        pos = np.arange(n0 * n1).reshape(n1, n0).T  # box node (i, j) -> position
        self._pos = pos[act]
        # D at each active node; None where the stencil is symmetric (D = 1)
        self._scale = None if np.all(scale == 1.0) else scale[np.nonzero(act)[0]]

        up_h, lo_h, right_h, left_h = _neighbours(in_hole)
        src = in_hole & np.logical_or.reduce(_neighbours(act))
        weight = np.ones(int(src.sum()))
        if ghost != 0.0:
            hole_coef = (up[:, None] * up_h + lo[:, None] * lo_h
                         + c1 * (right_h.astype(float) + left_h))
            near = act & (up_h | lo_h | right_h | left_h)
            src = src | near
            weight = np.where(near, -half * ghost * hole_coef, 1.0)[src]
        self.rank = int(src.sum())
        if self.rank == 0:
            return

        # Each mode's tridiagonal inverse, column by column for the box rows
        # that hold a capacitance node, times D: a unit source at node (i, j)
        # has the scaled spectral response phi_k(j) * rows_inv[row of i, k].
        i_src, j_src = np.nonzero(src)  # sorted by row
        src_rows, self._row_start, row_of = np.unique(
            i_src, return_index=True, return_inverse=True)
        unit = np.zeros((n1, n0, src_rows.size))
        unit[:, src_rows, np.arange(src_rows.size)] = scale[src_rows]
        rows_inv, _ = dpttrs(*self._tri, unit.reshape(n0 * n1, -1))
        self._rows_inv = rows_inv.T.reshape(src_rows.size, n1, n0)
        # orthonormal DST-I basis at the columns of the capacitance nodes
        self._phi = np.sqrt(2.0 / (n1 + 1)) * np.sin(np.pi * np.outer(k, j_src + 1) / (n1 + 1))
        self._i_src = i_src
        # unscaled box solution at capacitance node a for a unit source at node b
        q = self._rows_inv[:, :, i_src][row_of]  # q[b, k, a]
        resp = np.einsum("ka,bka,kb->ab", self._phi, q, self._phi) / scale[i_src, None]
        # hole nodes: the solution z vanishes; active nodes: s + weight z = 0,
        # which adds their diagonal shift weight = -dt/2 ghost (hole links)
        cap = weight[:, None] * resp
        cap[np.arange(self.rank), np.arange(self.rank)] += ~in_hole[src]
        *self._cap, info = dgetrf(cap)
        rcond = dgecon(self._cap[0], np.abs(cap).sum(axis=0).max())[0] if info == 0 else 0.0
        if rcond <= np.finfo(float).eps:
            raise NumericalError(f"singular capacitance matrix (rank {self.rank}, "
                                 f"reciprocal condition {rcond:.1e})")
        # the right-hand side -weight z of the capacitance system, with z read
        # off the scaled box solution
        self._weight = -weight / scale[i_src]

    def __call__(self, b):
        n1, n0 = self._shape
        box = np.zeros(n1 * n0)
        box[self._pos] = b if self._scale is None else b * self._scale
        spec = self._dst(box.reshape(n1, n0), type=1, axis=0, norm="ortho", overwrite_x=True)
        w, _ = dpttrs(*self._tri, spec.reshape(-1), overwrite_b=True)
        w = w.reshape(n1, n0)
        if self.rank:
            y_src = np.einsum("ka,ka->a", self._phi, w[:, self._i_src])
            s, _ = dgetrs(*self._cap, self._weight * y_src)
            amp = np.add.reduceat(self._phi * s, self._row_start, axis=1)
            w += np.einsum("kr,rkn->kn", amp, self._rows_inv)
        x = self._dst(w, type=1, axis=0, norm="ortho", overwrite_x=True)
        x = x.ravel()[self._pos]
        if self._scale is not None:
            x /= self._scale
        return x
