"""Fast direct solve of the Crank-Nicolson matrix I - dt/2 L on a masked grid.

The operator is read off the grid's stencil (lo0, up0, lo1, up1). On the
box of non-edge nodes it is the Kronecker sum of a tridiagonal operator T0
along axis 0 (x, or rho with its parity row: off-diagonals lo0 and up0,
diagonal -(lo0 + up0)) and the constant stencil c1 (1, -2, 1) along axis 1
(y or z, c1 = lo1 = up1) with Dirichlet end columns. The orthonormal DST-I
diagonalises the axis-1 part, so the box matrix A0 = I - dt/2 (T0 + c1 T1)
splits into one tridiagonal system per sine mode. The modes are stacked
into one tridiagonal matrix, factored once (dgttrf) and solved once per
step (dgttrs).

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
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dgttrf, dgttrs

from ..errors import NumericalError


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
        d = (1.0 - half * (di[None, :] + lam[:, None])).ravel()
        dl = np.tile(np.append(-half * lo[1:], 0.0), n1)[:-1]
        du = np.tile(np.append(-half * up[:-1], 0.0), n1)[:-1]
        *self._tri, info = dgttrf(dl, d, du)
        if info != 0:
            raise NumericalError(f"stacked tridiagonal factorisation failed (info {info})")

        pos = np.arange(n0 * n1).reshape(n1, n0).T  # box node (i, j) -> position
        self._pos = pos[act]

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
        # that hold a capacitance node: a unit source at node (i, j) has the
        # spectral response phi_k(j) * rows_inv[row of i, k].
        i_src, j_src = np.nonzero(src)  # sorted by row
        src_rows, self._row_start, row_of = np.unique(
            i_src, return_index=True, return_inverse=True)
        unit = np.zeros((n1, n0, src_rows.size))
        unit[:, src_rows, np.arange(src_rows.size)] = 1.0
        rows_inv, _ = dgttrs(*self._tri, unit.reshape(n0 * n1, -1))
        self._rows_inv = rows_inv.T.reshape(src_rows.size, n1, n0)
        # orthonormal DST-I basis at the columns of the capacitance nodes
        self._phi = np.sqrt(2.0 / (n1 + 1)) * np.sin(np.pi * np.outer(k, j_src + 1) / (n1 + 1))
        self._i_src = i_src
        # box solution at capacitance node a for a unit source at node b
        q = self._rows_inv[:, :, i_src][row_of]  # q[b, k, a]
        resp = np.einsum("ka,bka,kb->ab", self._phi, q, self._phi)
        # hole nodes: the solution z vanishes; active nodes: s + weight z = 0,
        # which adds their diagonal shift weight = -dt/2 ghost (hole links)
        cap = weight[:, None] * resp
        cap[np.arange(self.rank), np.arange(self.rank)] += ~in_hole[src]
        *self._cap, info = dgetrf(cap)
        rcond = dgecon(self._cap[0], np.abs(cap).sum(axis=0).max())[0] if info == 0 else 0.0
        if rcond <= np.finfo(float).eps:
            raise NumericalError(f"singular capacitance matrix (rank {self.rank}, "
                                 f"reciprocal condition {rcond:.1e})")
        self._weight = weight

    def __call__(self, b):
        n1, n0 = self._shape
        box = np.zeros(n1 * n0)
        box[self._pos] = b
        spec = self._dst(box.reshape(n1, n0), type=1, axis=0, norm="ortho", overwrite_x=True)
        w, _ = dgttrs(*self._tri, spec.reshape(-1, 1), overwrite_b=True)
        w = w.reshape(n1, n0)
        if self.rank:
            y_src = np.einsum("ka,ka->a", self._phi, w[:, self._i_src])
            s, _ = dgetrs(*self._cap, -self._weight * y_src)
            amp = np.add.reduceat(self._phi * s, self._row_start, axis=1)
            w += np.einsum("kr,rkn->kn", amp, self._rows_inv)
        x = self._dst(w, type=1, axis=0, norm="ortho", overwrite_x=True)
        return x.ravel()[self._pos]
