"""Fast direct solve of the Crank-Nicolson matrix I - dt/2 L on a masked grid.

The operator is read off the grid's stencil (lo0, up0, lo1, up1). On the
box of non-edge nodes it is the Kronecker sum of a tridiagonal operator T0
along axis 0 (x, or rho with its parity row: off-diagonals lo0 and up0,
diagonal -(lo0 + up0)) and the constant stencil c1 (1, -2, 1) along axis 1
(y or z, c1 = lo1 = up1) with Dirichlet end columns. The orthonormal DST-I
S (`dst1`, a numpy real FFT of the odd extension) diagonalises the axis-1
part, so the box matrix A0 = I - dt/2 (T0 + c1 T1) splits into one
tridiagonal system per sine mode. The modes are stacked into one
tridiagonal matrix, factored once per step size and solved in the
symmetric form of `symmetric_factor` (dpttrf, dpttrs). The scaling D acts
on axis 0 only, reads only the stencil's up / lo ratios and commutes with
S along axis 1.

A run therefore marches the mode vector U = S (D u) of the box
(`SineModes`): the datum is scattered, scaled and transformed once, and
the values are read back (`from_modes`) only where a snapshot is taken.
Linear functionals a . u become dot products with S (a / D). A step
(`MaskedCNSolve.solve_modes`) is one stacked tridiagonal solve, a dense
solve of the capacitance rank and one pass over stored columns: no DST,
no scatter and no gather.

The hole enters by the capacitance matrix method (Buzbee, Dorr, George &
Golub, SIAM J. Numer. Anal. 8 (1971) 722; Proskurowski & Widlund, Math.
Comp. 30 (1976) 433). Sources on the hole nodes next to active nodes are
chosen so that the box solution vanishes there, which cuts the links into
the hole. When the hole ghost factor g is nonzero, sources on the active
nodes next to the hole add back their diagonal shift g * (hole-link
coefficients) (a Woodbury correction). Setup stores, for each box row that
holds a capacitance node, that column of every mode's tridiagonal inverse:
the sources are found from the spectral solution at their nodes, and their
response is added in spectral space. Every active row of the box system
touches only active nodes and capacitance hole nodes, where the solution
is forced to zero, so the active values never depend on what the box
holds at hole nodes. Those entries start at zero, since the datum
vanishes on the hole, and then evolve by a stable Crank-Nicolson step
with zero boundary values, so they stay at round-off.

The LAPACK routines (dpttrf, dpttrs, dgetrf, dgetrs, dgecon; the radial
march and the profiles take dpttrs from here too) and SuperLU's gssv
(`spsolve`) come from two compiled scipy extensions, `scipy.linalg._flapack`
and `scipy.sparse.linalg._dsolve._superlu`, which `scipy_extension` loads
from their files without running any scipy package init. They are the
routines that scipy.linalg.lapack and scipy.sparse.linalg.spsolve call.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
from numpy.fft import rfft  # numpy loads numpy.fft lazily: load it at import, not in a run

from ..errors import NumericalError
from .grids import hole_links, hole_rim


def scipy_extension(package, name):
    """The compiled scipy module `package.name`, such as ("scipy.linalg", "_flapack").

    The extension file is found under scipy's directory, which
    `importlib.util.find_spec("scipy")` reports without running
    scipy/__init__, and is loaded and registered in sys.modules under its
    own name, so a later import of its package reuses it. No scipy
    package init runs. When the package is already imported, or the file
    cannot be found or loaded, this is the normal import, package inits
    included.
    """
    fullname = f"{package}.{name}"
    if package not in sys.modules and fullname not in sys.modules:
        root = importlib.util.find_spec("scipy")
        for location in getattr(root, "submodule_search_locations", None) or ():
            finder = importlib.machinery.FileFinder(
                os.path.join(location, *package.split(".")[1:]),
                (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
            spec = finder.find_spec(fullname)
            if spec is None:
                continue
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except (ImportError, OSError):
                break
            sys.modules[fullname] = module
            return module
    return importlib.import_module(fullname)


_flapack = scipy_extension("scipy.linalg", "_flapack")
dgecon, dgetrf, dgetrs, dpttrf, dpttrs = (
    _flapack.dgecon, _flapack.dgetrf, _flapack.dgetrs, _flapack.dpttrf, _flapack.dpttrs)
_superlu = scipy_extension("scipy.sparse.linalg._dsolve", "_superlu")


def spsolve(csc, b):
    """x with L x = b, for L the CSC arrays (n, data, indices, indptr) of
    `grids.masked_laplacian`: SuperLU's gssv with the column ordering
    MMD_AT_PLUS_A, the solve scipy.sparse.linalg.spsolve(L, b,
    permc_spec="MMD_AT_PLUS_A") makes. Raises NumericalError when L is
    exactly singular."""
    n, data, indices, indptr = csc
    x, info = _superlu.gssv(n, data.size, data, indices, indptr, b, 1,
                            options={"ColPerm": "MMD_AT_PLUS_A"})
    if info != 0:
        raise NumericalError(f"sparse LU: the matrix is exactly singular (info {info})")
    return x


def tridiagonal_scale(lo, up):
    """D[0] = 1, D[i + 1] / D[i] = sqrt(up[i] / lo[i + 1]): the diagonal that
    makes a tridiagonal with these off-diagonals symmetric. It reads only
    their ratios, so I - dt/2 L takes the same D for every dt."""
    return np.concatenate(([1.0], np.cumprod(np.sqrt(up[:-1] / lo[1:]))))


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
    scale = tridiagonal_scale(lo, up)
    di = np.atleast_2d(di)
    e = np.tile(np.append(np.copysign(np.sqrt(prod), up[:-1]), 0.0), di.shape[0])[:-1]
    d, e, info = dpttrf(di.ravel(), e)
    if info != 0:
        raise NumericalError(f"symmetric tridiagonal is not positive definite (info {info})")
    return scale, d, e


def dst1(x):
    """The orthonormal DST-I of x along axis 0, its own inverse.

    X[k] = sqrt(2 / (n + 1)) sum_j x[j] sin(pi (j + 1)(k + 1) / (n + 1)), read
    off numpy's real FFT of the odd extension [0, x, 0, -x[::-1]] of length
    2 (n + 1): X = -Im(rfft)[1:n + 1] sqrt(1 / (2 (n + 1))). This is
    scipy.fft.dst(x, type=1, axis=0, norm="ortho") to round-off, without
    loading scipy.fft.
    """
    n = x.shape[0]
    odd = np.zeros((2 * (n + 1),) + x.shape[1:])
    odd[1:n + 1] = x
    odd[n + 2:] = -x[::-1]
    return -rfft(odd, axis=0)[1:n + 1].imag * np.sqrt(1.0 / (2 * (n + 1)))


class SineModes:
    """The sine-mode space of a masked grid's box.

    The box is the node rows from the first to the last that hold an
    active node (`rows`), without the first and last columns; every node
    outside it lies on the outer edge, where the value is zero. A mode
    vector is U = S (D u), flattened from shape `shape` (mode-major: axis
    1 first): the active-node values u, scaled by the stencil's D along
    axis 0 (`scale`, `tridiagonal_scale` of the axis-0 links) and
    scattered into the box with zeros elsewhere, then transformed by the
    orthonormal DST-I S (`dst1`) along axis 1. S is symmetric and
    orthogonal, so a . u = functional(a) . U for any active-node weights a.
    """

    def __init__(self, active, stencil):
        lo0, up0 = stencil[:2]
        filled = np.flatnonzero(active.any(axis=1))
        self.rows = slice(filled[0], filled[-1] + 1)
        self._act = active[self.rows, 1:-1]
        n0, n1 = self._act.shape
        self.shape = (n1, n0)
        self.scale = tridiagonal_scale(lo0[self.rows], up0[self.rows])
        self._node_scale = self.scale[np.nonzero(self._act)[0]]  # D at each active node

    def _transform(self, values):
        box = np.zeros(self.shape)
        box.T[self._act] = values
        return dst1(box).ravel()

    def to_modes(self, u):
        """U = S (D u) of the active-node values u."""
        return self._transform(u * self._node_scale)

    def functional(self, a):
        """The mode vector S (a / D), whose dot product with to_modes(u) is a . u."""
        return self._transform(a / self._node_scale)

    def from_modes(self, modes):
        """The active-node values u of the mode vector U = S (D u)."""
        x = dst1(modes.reshape(self.shape)).T[self._act]
        return x / self._node_scale


class MaskedCNSolve(SineModes):
    """solve(b) = (I - dt/2 L)^{-1} b over the active nodes of a masked grid.

    active and hole are node masks, stencil the grid's link coefficients
    (lo0, up0, lo1, up1) and ghost the hole ghost factor of
    `grids.hole_ghost`; L is the operator that `grids.masked_laplacian`
    assembles from them. Every box node (see `SineModes`) must be active
    or in the hole. The DST-I needs the axis-1 coefficients to be one
    constant, c1 = up1[0]. The capacitance nodes are the hole rim
    (`grids.hole_rim`), joined for ghost != 0 by the active nodes with a
    hole link, whose link sums come from `grids.hole_links`. `solve_modes`
    is the solve on mode vectors,
    the one a march calls each step; calling the solver on active-node
    values is from_modes(solve_modes(to_modes(b))). `rank` is the size of
    the capacitance system.
    """

    def __init__(self, active, hole, stencil, ghost, dt):
        super().__init__(active, stencil)
        lo0, up0, _, up1 = stencil
        c1 = up1[0]
        lo, up = lo0[self.rows], up0[self.rows]
        di = -(lo + up)
        in_hole = hole[self.rows, 1:-1]
        n1, n0 = self.shape
        scale = self.scale

        half = 0.5 * dt
        k = np.arange(1, n1 + 1)
        lam = -4.0 * c1 * np.sin(0.5 * np.pi * k / (n1 + 1)) ** 2
        _, *self._tri = symmetric_factor(
            -half * lo, 1.0 - half * (di[None, :] + lam[:, None]), -half * up)

        # the hole rim, and for ghost != 0 the active nodes linked into the hole
        if ghost != 0.0:
            sums, rim = (a[self.rows, 1:-1] for a in hole_links(active, hole, stencil))
            src = rim | (sums != 0.0)
            weight = np.where(in_hole, 1.0, -half * ghost * sums)[src]
        else:
            src = hole_rim(active, hole)[self.rows, 1:-1]
            weight = np.ones(int(src.sum()))
        self.rank = int(src.sum())
        if self.rank == 0:
            return

        # Each mode's tridiagonal inverse, column by column for the box rows
        # that hold a capacitance node, times D: a unit source at node (i, j)
        # has the scaled spectral response phi_k(j) * rows_inv[k, row of i].
        i_src, j_src = np.nonzero(src)
        src_rows, row_of = np.unique(i_src, return_inverse=True)
        unit = np.zeros((src_rows.size, n1, n0))  # solved in place, column by column
        unit[np.arange(src_rows.size), :, src_rows] = scale[src_rows, None]
        rows_inv, _ = dpttrs(*self._tri, unit.reshape(src_rows.size, -1).T, overwrite_b=True)
        self._rows_inv = np.ascontiguousarray(rows_inv.T.reshape(-1, n1, n0).transpose(1, 0, 2))
        self._in_row = np.eye(src_rows.size)[row_of]  # [a, r]: node a lies in source row r
        # orthonormal DST-I basis at the columns of the capacitance nodes
        self._phi = np.sqrt(2.0 / (n1 + 1)) * np.sin(np.pi * np.outer(k, j_src + 1) / (n1 + 1))
        self._i_src = i_src
        # unscaled box solution at capacitance node a for a unit source at node b
        q = self._rows_inv[:, :, i_src][:, row_of]  # q[k, b, a]
        resp = np.einsum("ka,kba,kb->ab", self._phi, q, self._phi) / scale[i_src, None]
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

    def solve_modes(self, modes):
        """to_modes((I - dt/2 L)^{-1} u) for modes = to_modes(u), to round-off.

        The active part of the result does not depend on the hole entries
        of modes, and the hole entries of the result are round-off; modes
        is not changed.
        """
        w, _ = dpttrs(*self._tri, modes)
        if self.rank:
            w = w.reshape(self.shape)
            y_src = np.einsum("ka,ka->a", self._phi, w[:, self._i_src])
            s, _ = dgetrs(*self._cap, self._weight * y_src)
            amp = self._phi @ (s[:, None] * self._in_row)  # [k, r]: the sources of row r
            w += (amp[:, None, :] @ self._rows_inv).reshape(self.shape)
        return w.ravel()

    def __call__(self, b):
        return self.from_modes(self.solve_modes(self.to_modes(b)))
