"""CSV and polygonal-mesh export of sampled surface geometry.

All reals are serialized as ``'%.17g'`` writes them (:func:`fmt`): 17
significant digits, which round-trip binary64 exactly, so identical
inputs produce byte-identical files.  Every file is written atomically:
a run that fails leaves no partial file and does not touch a file already
at the target path.

The exporters evaluate the grid in blocks of whole u lines, about
:data:`BLOCK_POINTS` points each, with one array call of the surface
engine per block.  The bytes are those of one float call per point, and
an error names the first failing point in row-major order, as one call
per point would: a block that fails is evaluated again point by point.
Memory grows with the block, not with the grid, apart from the profile
memos of a parabolic patch (see :func:`~minksurf.meridian.build_parabolic`),
which hold one entry per block of u lines and one for the v row.

Tables of reals (the CSV rows and the OBJ vertex lines) are written by
``minksurf._fmt17.table_text``: uint64 numpy passes produce the digits of
chunks of up to 4096 values, and any value whose rounding they cannot
certify is formatted with ``'%.17g' %``, so the text is that of ``%`` on
every field.  That module and its tables are imported on the first write,
so a run that exports nothing does not pay for them.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from functools import partial
from typing import Sequence

import numpy as np

from .errors import Error, SingularProjection
from .minkowski import first_failure
from .surface import GridSpec, SurfacePatch, jet_eval_surface, point_data

CSV_HEADER = "u,v,x1,x2,x3,x4,E,F,G,L,M,N,k,kappa,K,H1,H2,H3,H4,HdotH"

POSITIONS_HEADER = "u,v,x1,x2,x3,x4"

# Points per evaluated block: k = max(1, BLOCK_POINTS // nv) whole u lines.
BLOCK_POINTS = 1000

DEFAULT_PROJECTION: tuple[tuple[float, ...], ...] = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
)


def fmt(x: float) -> str:
    return f"{x:.17g}"


@contextmanager
def atomic_writer(path: str):
    """A text file handle whose contents appear at ``path`` only if the
    block completes.

    The text goes to a fresh temporary file in the target's directory,
    which ``os.replace`` moves onto ``path`` on success and which is
    removed on failure.
    """
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="ascii", newline="\n")
    except OSError as exc:   # report the target, not the temporary name
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _table(columns) -> np.ndarray:
    """Columns of floats or broadcastable arrays as a 2-D table, one row
    per point in row-major order."""
    cols = np.broadcast_arrays(*columns)
    return np.stack(cols, axis=-1).reshape(-1, len(cols))


def _blocks(grid: GridSpec, evaluate):
    """``evaluate(U, V)`` per block of whole u lines, in grid order.

    U is a (k, 1) column of u samples and V the (1, nv) row of v samples,
    so broadcasting yields the block's points in the row-major order of
    :meth:`GridSpec.points`.  A block that raises an :class:`Error` is
    evaluated again one float point at a time, so the error raised is the
    one of the first failing point.
    """
    us = grid.u_range.linspace(grid.u_samples)
    vs = grid.v_range.linspace(grid.v_samples)
    row = np.array(vs)[None, :]
    k = max(1, BLOCK_POINTS // len(vs))
    for i in range(0, len(us), k):
        lines = us[i:i + k]
        try:
            block = evaluate(np.array(lines)[:, None], row)
        except Error:
            for u in lines:
                for v in vs:
                    evaluate(u, v)
            raise
        yield block


def _write_tables(fh, tables, sep: str = ",", lead: str = "") -> int:
    """Write each row of each table as ``lead``, its fields as :func:`fmt`
    writes them joined by ``sep``, and a newline; returns the number of
    rows."""
    from ._fmt17 import table_text     # its tables are built on first use
    rows = 0
    for table in tables:
        fh.write(table_text(table, sep, lead))
        rows += len(table)
    return rows


def write_csv(path: str, header: str, tables) -> int:
    """Write ``header`` and the rows of each 2-D table of reals to a CSV
    file, atomically; returns the number of data rows."""
    with atomic_writer(path) as fh:
        fh.write(header + "\n")
        return _write_tables(fh, tables)


def _positions(patch: SurfacePatch, u, v) -> np.ndarray:
    """The (u, v, x1..x4) table of a point or a block of points."""
    return _table((u, v, *jet_eval_surface(patch, u, v).value().coords()))


def export_grid_csv(patch: SurfacePatch, grid: GridSpec, path: str) -> int:
    """Write the full invariant table, one row per grid point.

    Rows are in row-major order (u outer, v inner).  H1..H4 are the
    orthonormal coordinates of the mean curvature vector; HdotH is its
    self inner product.  Returns the number of data rows.
    """
    def evaluate(u, v):
        p = point_data(patch, u, v)
        return _table((u, v, *p.z.coords(), p.E, p.F, p.G, p.L, p.M, p.N,
                       p.k, p.kappa_normal, p.K, *p.H.coords(),
                       p.h_dot_h()))

    return write_csv(path, CSV_HEADER, _blocks(grid, evaluate))


def export_positions_csv(patch: SurfacePatch, grid: GridSpec, path: str) -> int:
    """Write sampled positions only (u, v, x1..x4); returns the row count."""
    return write_csv(path, POSITIONS_HEADER,
                      _blocks(grid, partial(_positions, patch)))


def export_obj(patch: SurfacePatch, grid: GridSpec,
               projection: Sequence[Sequence[float]] = DEFAULT_PROJECTION,
               path: str = "surface.obj") -> tuple[int, int]:
    """Project samples to 3-space and write a triangulated `v`/`f` mesh.

    The projection is a full-rank 3x4 matrix (default: drop x4).  Each
    grid cell becomes two triangles; returns (vertex count, face count).
    """
    proj = np.asarray(projection, dtype=float)
    if proj.shape != (3, 4):
        raise SingularProjection(f"projection must be 3x4, got {proj.shape}")
    sv = np.linalg.svd(proj, compute_uv=False)
    if not sv[2] > 1e-12 * sv[0]:
        raise SingularProjection(
            f"projection matrix has rank < 3 (singular values {sv})")

    def evaluate(u, v):
        table = _positions(patch, u, v)
        # One 3x4 by 4x1 product per vertex, stacked: the bits of
        # ``proj @ z`` for each vertex z.
        xyz = (proj @ table[:, 2:, None])[:, :, 0]
        bad = first_failure(~np.isfinite(xyz).all(axis=1),
                            table[:, 0], table[:, 1])
        if bad:
            raise SingularProjection(
                "non-finite projected vertex at (u,v)=({},{})".format(*bad))
        return xyz

    nu, nv = grid.u_samples, grid.v_samples
    # The cell between u lines i, i + 1 and v samples j, j + 1 has the
    # 1-based corners a = i*nv + j + 1, b = a + 1, c = a + nv, d = c + 1
    # and becomes the triangles (a, b, d) and (a, d, c).
    a = np.arange(1, nv)
    first_line = np.stack([a, a + 1, a + nv + 1, a, a + nv + 1, a + nv],
                          axis=1).ravel()
    faces = "f %d %d %d\nf %d %d %d\n" * (nv - 1)
    with atomic_writer(path) as fh:
        _write_tables(fh, _blocks(grid, evaluate), " ", "v ")
        for i in range(nu - 1):
            fh.write(faces % tuple((first_line + i * nv).tolist()))
    return nu * nv, 2 * (nu - 1) * (nv - 1)
