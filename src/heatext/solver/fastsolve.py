"""Fast direct solve of the Crank-Nicolson matrix I - dt/2 L on a masked grid.

The operator is read off the grid's stencil (lo0, up0, lo1, up1). On the
box of non-edge nodes it is the Kronecker sum of a tridiagonal operator T0
along axis 0 (x, or rho with its parity row: off-diagonals lo0 and up0,
diagonal -(lo0 + up0)) and the constant stencil c1 (1, -2, 1) along axis 1
(y or z, c1 = lo1 = up1) with Dirichlet end columns. Both parts are
diagonalised (`SineModes`): along axis 1 by the orthonormal DST-I S
(`dst1`, a numpy real FFT of the odd extension), with eigenvalues
lam_k = -4 c1 sin^2(pi k / (2 (n1 + 1))); along axis 0 by the orthonormal
eigenvectors Q0 and eigenvalues mu_j of the symmetric tridiagonal
D T0 D^{-1} (LAPACK dstevd), D the diagonal of `tridiagonal_scale`. In
this joint eigenbasis the box matrix I - dt/2 L is the diagonal
1 - dt/2 (lam_k + mu_j), so a box solve is an elementwise multiply. The
decomposition reads only the stencil: a run computes it once, for every
step size, and the same code serves the planar grid and the axisymmetric
one with its parity row.

A run therefore marches the mode vector V = (S x Q0^T)(D u) of the box
(`SineModes`): the datum is scattered, scaled and transformed once, and
the values are read back (`from_modes`) only where a snapshot is taken.
Linear functionals a . u become dot products with the transform of
a / D. A step (`MaskedCNSolve.solve2_modes`, twice the solve) is an
elementwise multiply plus a rank-r capacitance correction, written into
a buffer the run owns: no transform, no scatter, no gather and no new
mode-sized array. Every mode mixes every box node, so each value read
back carries round-off of order 1e-16 max|u0|: far from the datum a
snapshot holds values of that size, of either sign.

The hole enters by the capacitance matrix method (Buzbee, Dorr, George &
Golub, SIAM J. Numer. Anal. 8 (1971) 722; Proskurowski & Widlund, Math.
Comp. 30 (1976) 433). Sources on the hole nodes next to active nodes are
chosen so that the box solution vanishes there, which cuts the links into
the hole. When the hole ghost factor g is nonzero, sources on the active
nodes next to the hole add back their diagonal shift g * (hole-link
coefficients) (a Woodbury correction). A source at node (i, j) has the
mode vector S[:, j] Q0[i, :] (times D[i]), so the sources are found from
the box solution sampled at their nodes through the columns of S and the
rows of Q0 there, and their response is added in mode space. Per step
size a build keeps only twice the diagonal inverse, its one mode-sized
array, and the LU factor of the r x r capacitance matrix. Every active
row of the box system touches only active nodes and capacitance hole
nodes, where the solution is forced to zero, so the active values never
depend on what the box holds at hole nodes. Those entries start at zero,
since the datum vanishes on the hole, and then evolve by a stable
Crank-Nicolson step with zero boundary values, so they stay at round-off.

The LAPACK routines (dstevd, or dsyevd where scipy binds no dstevd;
dgetrf, dgetrs, dgecon; dpttrf and dpttrs for the radial march and the
profiles) and SuperLU's gssv (`spsolve`) come
from two compiled scipy extensions, `scipy.linalg._flapack` and
`scipy.sparse.linalg._dsolve._superlu`, which `scipy_extension` loads
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


def dense_stevd(d, e):
    """dstevd's (w, z, info) for the symmetric tridiagonal with diagonal d
    and off-diagonal e, from dsyevd on the dense matrix: the same
    eigendecomposition, two to three times slower, for the older scipy
    releases whose _flapack binds no dstevd."""
    return _flapack.dsyevd(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


dstevd = getattr(_flapack, "dstevd", dense_stevd)
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


def capacitance_nodes(links, ghost):
    """(nodes, sums): the node indices (i, j) of a masked grid's capacitance
    nodes, in row-major order, and their hole-link sums, from links =
    `grids.hole_links` of its masks and stencil. The nodes are the hole
    rim, joined for ghost != 0 by the active nodes with a link into the
    hole; all of them lie in the box of `SineModes`."""
    sums, rim = links
    nodes = np.nonzero(rim | (sums != 0.0) if ghost != 0.0 else rim)
    return nodes, sums[nodes]


def tridiagonal_scale(lo, up):
    """D[0] = 1, D[i + 1] / D[i] = sqrt(up[i] / lo[i + 1]): the diagonal that
    makes a tridiagonal with these off-diagonals symmetric. It reads only
    their ratios, so I - dt/2 L takes the same D for every dt."""
    return np.concatenate(([1.0], np.cumprod(np.sqrt(up[:-1] / lo[1:]))))


def symmetrised(lo, up):
    """(D, e): the diagonal D of `tridiagonal_scale` and the off-diagonal
    e[i] = sign(up[i]) sqrt(lo[i + 1] up[i]) of the symmetric D A D^{-1},
    for A a tridiagonal with off-diagonals lo (row i, column i - 1) and up
    (row i, column i + 1). Raises NumericalError when a coupling product
    lo[i + 1] up[i] is not positive and finite."""
    prod = lo[1:] * up[:-1]
    if not np.all((prod > 0.0) & np.isfinite(prod)):
        raise NumericalError("tridiagonal is not symmetrisable: a coupling product "
                             "lo[i + 1] up[i] is not positive and finite")
    return tridiagonal_scale(lo, up), np.copysign(np.sqrt(prod), up[:-1])


def symmetric_factor(lo, di, up):
    """Factor a tridiagonal matrix A that a diagonal D makes symmetric positive definite.

    Row i of A holds lo[i] (column i - 1), di[i] and up[i] (column i + 1);
    lo[0] and up[-1] are unused. S = D A D^{-1} is the symmetric matrix of
    `symmetrised`. Returns (D, d, e), d and e the dpttrf factor of S, so
    that A x = b is x = dpttrs(d, e, D b) / D. Raises NumericalError when
    a coupling product lo[i + 1] up[i] is not positive and finite, or when
    S is not positive definite.
    """
    scale, e = symmetrised(lo, up)
    d, e, info = dpttrf(di, e)
    if info != 0:
        raise NumericalError(f"symmetric tridiagonal is not positive definite (info {info})")
    return scale, d, e


DST_COLUMNS = 32  # columns per real FFT in dst1


def dst1(x):
    """The orthonormal DST-I of x along axis 0, its own inverse.

    X[k] = sqrt(2 / (n + 1)) sum_j x[j] sin(pi (j + 1)(k + 1) / (n + 1)), read
    off numpy's real FFT of the odd extension [0, x, 0, -x[::-1]] of length
    2 (n + 1): X = -Im(rfft)[1:n + 1] sqrt(1 / (2 (n + 1))). This is
    scipy.fft.dst(x, type=1, axis=0, norm="ortho") to round-off, without
    loading scipy.fft. The columns go through the FFT DST_COLUMNS at a time,
    so the temporaries are 2 (n + 1) x DST_COLUMNS, not the whole odd
    extension and its complex transform; each column's FFT is independent
    of the others, so dst1(x)[:, j] is bitwise dst1(x[:, j]).
    """
    n = x.shape[0]
    columns = x.reshape(n, -1)
    out = np.empty(columns.shape)
    odd = np.zeros((2 * (n + 1), min(DST_COLUMNS, columns.shape[1])))
    for start in range(0, columns.shape[1], DST_COLUMNS):
        chunk = columns[:, start:start + DST_COLUMNS]
        width = chunk.shape[1]
        odd[1:n + 1, :width] = chunk
        np.negative(chunk[::-1], out=odd[n + 2:, :width])
        out[:, start:start + width] = rfft(odd[:, :width], axis=0)[1:n + 1].imag
    out *= -np.sqrt(1.0 / (2 * (n + 1)))
    return out.reshape(x.shape)


class SineModes:
    """The joint eigenbasis of a masked grid's box operator.

    The box is the node rows from the first to the last that hold an
    active node (`rows`), without the first and last columns; every node
    outside it lies on the outer edge, where the value is zero. A mode
    vector is V = (S x Q0^T)(D u), flattened from shape `shape` (n1, n0),
    axis 1's sine mode k first: the active-node values u, scaled by the
    stencil's D along axis 0 (`scale`) and scattered into the box with
    zeros elsewhere, then transformed by the orthonormal DST-I S (`dst1`)
    along axis 1 and by Q0^T along axis 0. Q0 (`basis`, n0 x n0) holds
    the orthonormal eigenvectors of the symmetrised axis-0 tridiagonal
    D T0 D^{-1}, with eigenvalues `mu` (dstevd); `lam` are the sine
    modes' eigenvalues, so mode (k, j) has the box eigenvalue
    lam[k] + mu[j]. Both transforms are orthogonal, so
    a . u = functional(a) . V for any active-node weights a. All of it
    reads only the stencil: a run builds it once, for every step size.
    """

    def __init__(self, active, stencil):
        lo0, up0, _, up1 = stencil
        filled = np.flatnonzero(active.any(axis=1))
        self.rows = slice(filled[0], filled[-1] + 1)
        self._act = active[self.rows, 1:-1]
        n0, n1 = self._act.shape
        self.shape = (n1, n0)
        lo, up = lo0[self.rows], up0[self.rows]
        self.scale, off = symmetrised(lo, up)
        self.mu, self.basis, info = dstevd(-(lo + up), off)
        if info != 0:
            raise NumericalError(f"axis-0 eigendecomposition failed (dstevd info {info})")
        self.lam = -4.0 * up1[0] * np.sin(0.5 * np.pi * np.arange(1, n1 + 1) / (n1 + 1)) ** 2
        self._node_scale = self.scale[np.nonzero(self._act)[0]]  # D at each active node

    def _transform(self, values):
        box = np.zeros(self.shape)
        box.T[self._act] = values
        return (dst1(box) @ self.basis).ravel()

    def to_modes(self, u):
        """V = (S x Q0^T)(D u) of the active-node values u."""
        return self._transform(u * self._node_scale)

    def functional(self, a):
        """The mode vector of a / D, whose dot product with to_modes(u) is a . u."""
        return self._transform(a / self._node_scale)

    def from_modes(self, modes):
        """The active-node values u of the mode vector V = (S x Q0^T)(D u)."""
        x = dst1(modes.reshape(self.shape) @ self.basis.T).T[self._act]
        return x / self._node_scale


class MaskedCNSolve:
    """solve(b) = (I - dt/2 L)^{-1} b over the active nodes of a masked grid.

    space is the run's `SineModes` of the grid's active mask and stencil
    (lo0, up0, lo1, up1), hole the hole node mask and ghost the hole ghost
    factor of `grids.hole_ghost`; L is the operator that
    `grids.masked_laplacian` assembles from them. Every box node must be
    active or in the hole. The DST-I needs the axis-1 coefficients to be
    one constant, c1 = up1[0]. cap_nodes is `capacitance_nodes` of the
    grid's hole links, which a run computes once for all its builds. A
    build keeps twice the box inverse, 2 / (1 - dt/2 (lam_k + mu_j)), and
    the LU factor of the capacitance matrix. `solve2_modes`, twice the
    solve on mode vectors, is the march's kernel; `solve_modes` is its
    output halved; calling the solver on active-node values is
    from_modes(solve_modes(to_modes(b))). `rank` is the size of the
    capacitance system.
    """

    def __init__(self, space, hole, ghost, dt, cap_nodes):
        self.space = space
        half = 0.5 * dt
        self._inv2 = 2.0 / (1.0 - half * (space.lam[:, None] + space.mu))

        nodes, sums = cap_nodes
        on_hole = hole[nodes]
        weight = np.where(on_hole, 1.0, -half * ghost * sums)
        self.rank = on_hole.size
        if self.rank == 0:
            return

        n1 = space.shape[0]
        i_src, j_src = nodes[0] - space.rows.start, nodes[1] - 1  # box indices
        # orthonormal DST-I basis at the columns of the capacitance nodes and
        # Q0 at their rows: a unit source at node b has the scaled mode vector
        # D[i_b] phi[:, b] q[b]
        self._phi = np.sqrt(2.0 / (n1 + 1)) * np.sin(
            np.pi * np.outer(np.arange(1, n1 + 1), j_src + 1) / (n1 + 1))
        self._q = space.basis[i_src]
        self._qt = np.ascontiguousarray(self._q.T)  # BLAS reads a transposed view at half speed
        self._d = space.scale[i_src]
        # unscaled box solution at capacitance node a for a unit source at node b,
        # one box row of nodes a at a time; the doubled inverse gives it twice
        resp = np.empty((self.rank, self.rank))
        for row in set(i_src.tolist()):  # np.unique would load numpy.ma in a run
            at = i_src == row
            resp[at] = self._phi[:, at].T @ (((self._inv2 * space.basis[row]) @ self._qt)
                                             * self._phi)
        resp *= 0.5 * self._d[None, :] / self._d[:, None]
        # hole nodes: the solution z vanishes; active nodes: s + weight z = 0,
        # which adds their diagonal shift weight = -dt/2 ghost (hole links)
        cap = weight[:, None] * resp
        cap[np.arange(self.rank), np.arange(self.rank)] += ~on_hole
        *self._cap, info = dgetrf(cap)
        rcond = dgecon(self._cap[0], np.abs(cap).sum(axis=0).max())[0] if info == 0 else 0.0
        if rcond <= self.rank * np.finfo(float).eps:  # singular to working precision
            raise NumericalError(f"singular capacitance matrix (rank {self.rank}, "
                                 f"reciprocal condition {rcond:.1e})")
        # the right-hand side -weight z of the capacitance system, with z read
        # off the scaled box solution
        self._weight = -weight / self._d

    def solve2_modes(self, modes, out):
        """out = 2 solve_modes(modes), out a flat array other than modes.

        Every mode-sized product is taken in place in out, so a call
        allocates nothing mode-sized. The doubled inverse doubles the
        sources s too, and 0.5 s undoes that exactly.
        """
        w = out.reshape(self._inv2.shape)
        np.multiply(self._inv2, modes.reshape(w.shape), out=w)
        if self.rank:
            y_src = np.einsum("ka,ka->a", self._phi, w @ self._qt)
            s, _ = dgetrs(*self._cap, self._weight * y_src)
            np.matmul(self._phi * ((0.5 * s) * self._d), self._q, out=w)
            w += modes.reshape(w.shape)
            w *= self._inv2
        return out

    def solve_modes(self, modes):
        """to_modes((I - dt/2 L)^{-1} u) for modes = to_modes(u), to round-off.

        The active part of the result does not depend on the hole entries
        of modes, and the hole entries of the result are round-off; modes
        is not changed.
        """
        x = self.solve2_modes(modes, np.empty(modes.size))
        x *= 0.5
        return x

    def __call__(self, b):
        return self.space.from_modes(self.solve_modes(self.space.to_modes(b)))
