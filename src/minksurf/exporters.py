"""CSV and polygonal-mesh export of sampled surface geometry.

All reals are serialized as ``'%.17g'`` writes them (:func:`fmt`): 17
significant digits, which round-trip binary64 exactly, so identical
inputs produce byte-identical files.

:func:`export_grid` writes every requested file of an export (the CSV
table, the OBJ mesh or both) in one pass over the grid, in blocks of
whole u lines of about :data:`BLOCK_POINTS` points:

* The line jets of a parabolic patch (``SurfacePatch.lines``) are
  evaluated once per export, on the column of all u samples and the row
  of v samples, after the grid is checked to lie in the patch's domain,
  and the profile inequalities are checked on them first.
* Each block is evaluated once, with one array call of the surface
  engine (``point_data`` for the invariant table, else
  ``jet_eval_surface``) on the block's rows of those line jets, and
  feeds both files.
* Each distinct value is formatted once (``minksurf._fmt17.GridText``):
  v once per export, u once per line, and an OBJ vertex field is copied
  from the CSV's x1..x3 field wherever the projection reproduces that
  coordinate bit for bit.  The face lines come from a vectorised integer
  layout, built per block of lines.
* All or nothing: the files are written to temporaries that replace
  their targets only after the whole pass succeeds, so a run that fails
  leaves neither file and does not touch a file already at a target.

The bytes are those of one ``%`` per value, whatever the blocks, and an
error names the first failing point in row-major order: a block that
fails is evaluated again point by point.
Memory grows with the block, not with the grid, apart from the line jets,
which grow with nu + nv.

``minksurf._fmt17`` formats reals in uint64 numpy passes over chunks of
up to 4096 values; any value whose rounding they cannot certify is
formatted with ``'%.17g' %``, so the text is that of ``%`` on every
field.  That module and its tables are imported on the first write, so
a run that exports nothing does not pay for them.
"""

from __future__ import annotations

import errno
import os
from contextlib import ExitStack, contextmanager
from typing import Sequence

import numpy as np

from .errors import Error, SingularProjection, UsageError
from .minkowski import first_failure
from .surface import (GridSpec, SurfacePatch, checked_lines,
                      jet_eval_surface, point_data)

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
    if os.path.isdir(path):     # refused before any file is written
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
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


def _table(u, v, columns) -> np.ndarray:
    """Columns of floats or arrays that broadcast with u and v as a 2-D
    table, one row per point in row-major order."""
    cols = np.broadcast_arrays(u, v, *columns)[2:]
    return np.stack(cols, axis=-1).reshape(-1, len(cols))


def _blocks(us: np.ndarray, row: np.ndarray, k: int, lines, evaluate):
    """``(U, evaluate(U, row, L))`` per block U of k rows of the (nu, 1)
    column ``us`` of u samples, in grid order, with L the block's rows of
    the grid's line jets ``lines`` (None for a generic patch).  Broadcast
    with the (1, nv) row of v samples, U gives the block's points in
    row-major order.  A block that raises an :class:`Error` is evaluated
    again one point at a time, so the error raised is the one of the
    first failing point.
    """
    for i in range(0, len(us), k):
        block_us = us[i:i + k]
        try:
            block = evaluate(block_us, row,
                             None if lines is None
                             else lines.u_rows(slice(i, i + k)))
        except Error:
            with np.errstate(over="ignore", invalid="ignore"):
                for u in block_us:
                    for v in row.T:
                        evaluate(u, v)
            raise
        yield block_us, block


def write_csv(path: str, header: str, tables) -> int:
    """Write ``header`` and the rows of each 2-D table of reals to a CSV
    file, atomically; returns the number of data rows."""
    from ._fmt17 import table_text     # its tables are built on first use
    rows = 0
    with atomic_writer(path) as fh:
        fh.write(header + "\n")
        for table in tables:
            fh.write(table_text(table))
            rows += len(table)
    return rows


def _projection(projection: Sequence[Sequence[float]]) -> np.ndarray:
    """The projection as a 3x4 array, checked to have rank 3."""
    proj = np.asarray(projection, dtype=float)
    if proj.shape != (3, 4):
        raise SingularProjection(f"projection must be 3x4, got {proj.shape}")
    sv = np.linalg.svd(proj, compute_uv=False)
    if not sv[2] > 1e-12 * sv[0]:
        raise SingularProjection(
            f"projection matrix has rank < 3 (singular values {sv})")
    return proj


def export_grid(patch: SurfacePatch, grid: GridSpec, csv: str | None = None,
                obj: str | None = None,
                projection: Sequence[Sequence[float]] = DEFAULT_PROJECTION,
                positions_only: bool = False) -> tuple[int, int, int]:
    """Write the grid's CSV table, its OBJ mesh or both, in one pass.

    The CSV has one row per grid point in row-major order (u outer, v
    inner): u, v, x1..x4 and, unless ``positions_only``, the invariants
    of :data:`CSV_HEADER`; H1..H4 are the orthonormal coordinates of the
    mean curvature vector and HdotH its self inner product.  The OBJ
    projects each point to 3-space with ``projection``, a full-rank 3x4
    matrix (default: drop x4), and splits each grid cell into two
    triangles.  The files replace their targets only after the whole
    pass has succeeded.  Returns (rows, vertices, faces).  CSV and OBJ
    that resolve to one file are refused before anything is written.
    """
    if csv and obj and os.path.realpath(csv) == os.path.realpath(obj):
        raise UsageError(f"CSV and OBJ would both be written to {obj}")
    from ._fmt17 import GridText, face_text     # built on first use
    proj = _projection(projection) if obj else None
    us, row = grid.lines()
    nu, nv = us.size, row.size
    # Blocks of k = max(1, BLOCK_POINTS // nv) whole u lines.
    k = max(1, BLOCK_POINTS // nv)
    header = POSITIONS_HEADER if positions_only else CSV_HEADER

    if csv and not positions_only:
        def evaluate(u, v, lines=None):
            p = point_data(patch, u, v, lines=lines)
            return _table(u, v, (*p.z.coords(), p.E, p.F, p.G, p.L, p.M,
                                 p.N, p.k, p.kappa_normal, p.K,
                                 *p.H.coords(), p.h_dot_h()))
    else:
        def evaluate(u, v, lines=None):
            z = jet_eval_surface(patch, u, v, lines=lines).value()
            return _table(u, v, z.coords())

    with ExitStack() as files:
        csv_fh = csv and files.enter_context(atomic_writer(csv))
        obj_fh = obj and files.enter_context(atomic_writer(obj))
        # The grid checked in the domain, then the profile jets of every
        # u line and of the v row, checked; the blocks check neither.
        lines = None if patch.lines is None else checked_lines(patch, us, row)
        if csv_fh:
            csv_fh.write(header + "\n")
        text = GridText(us.ravel(), row.ravel(),
                        len(header.split(",")) if csv else 0, bool(obj))
        xyz = None
        for b, (block_us, table) in enumerate(
                _blocks(us, row, k, lines, evaluate)):
            if obj:
                # One 3x4 by 4x1 product per vertex, stacked: the bits of
                # ``proj @ z`` for each vertex z.  An overflow is reported
                # below as a non-finite vertex.
                with np.errstate(over="ignore", invalid="ignore"):
                    xyz = (proj @ table[:, :4, None])[:, :, 0]
                bad = first_failure(
                    ~np.isfinite(xyz).all(axis=1).reshape(len(block_us), nv),
                    block_us, row)
                if bad:
                    raise SingularProjection(
                        "non-finite projected vertex at (u,v)=({},{})"
                        .format(*bad))
            for rows, vertices in text.chunks(b * k * nv, table, xyz):
                if csv_fh:
                    csv_fh.write(rows)
                if obj_fh:
                    obj_fh.write(vertices)
        if obj_fh:
            for i in range(0, nu - 1, k):
                obj_fh.write(face_text(nv, i, min(i + k, nu - 1)))
        # A failing flush then leaves neither file, not just its own.
        for fh in (csv_fh, obj_fh):
            if fh:
                fh.flush()
    return nu * nv, nu * nv, 2 * (nu - 1) * (nv - 1)


def export_grid_csv(patch: SurfacePatch, grid: GridSpec, path: str) -> int:
    """Write the full invariant table (see :func:`export_grid`); returns
    the number of data rows."""
    return export_grid(patch, grid, csv=path)[0]


def export_positions_csv(patch: SurfacePatch, grid: GridSpec, path: str) -> int:
    """Write sampled positions only (u, v, x1..x4); returns the row count."""
    return export_grid(patch, grid, csv=path, positions_only=True)[0]


def export_obj(patch: SurfacePatch, grid: GridSpec,
               projection: Sequence[Sequence[float]] = DEFAULT_PROJECTION,
               path: str = "surface.obj") -> tuple[int, int]:
    """Write the triangulated `v`/`f` mesh (see :func:`export_grid`);
    returns (vertex count, face count)."""
    return export_grid(patch, grid, obj=path, projection=projection)[1:]
