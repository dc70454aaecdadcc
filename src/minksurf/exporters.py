"""CSV and polygonal-mesh export of sampled surface geometry.

All reals are serialized with 17 significant digits, which round-trips
binary64 exactly; identical inputs therefore produce byte-identical files.
Every file is written atomically: a run that fails leaves no partial file
and does not touch a file already at the target path.

The exporters evaluate one point at a time, so memory does not grow with
the number of points.  It grows only with the profile memos of a
parabolic patch (see :func:`~minksurf.meridian.build_parabolic`): one
entry per distinct u and per distinct v, nu + nv on an nu x nv grid.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .errors import SingularProjection
from .surface import SurfacePatch, jet_eval_surface, point_data
from .verify import GridSpec

CSV_HEADER = "u,v,x1,x2,x3,x4,E,F,G,L,M,N,k,kappa,K,H1,H2,H3,H4,HdotH"

POSITIONS_HEADER = "u,v,x1,x2,x3,x4"

DEFAULT_PROJECTION: tuple[tuple[float, ...], ...] = (
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0),
)


def fmt(x: float) -> str:
    return f"{x:.17g}"


def row_format(n: int, sep: str = ",") -> str:
    """A ``%`` format string for one row of n reals joined by ``sep`` and
    ended by a newline: each field reads as :func:`fmt` would write it."""
    return sep.join(["%.17g"] * n) + "\n"


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


def export_grid_csv(patch: SurfacePatch, grid: GridSpec, path: str) -> int:
    """Write the full invariant table, one row per grid point.

    Rows are in row-major order (u outer, v inner).  H1..H4 are the
    orthonormal coordinates of the mean curvature vector; HdotH is its
    self inner product.  Returns the number of data rows.
    """
    line = row_format(CSV_HEADER.count(",") + 1)
    rows = 0
    with atomic_writer(path) as fh:
        fh.write(CSV_HEADER + "\n")
        for u, v in grid.points():
            p = point_data(patch, u, v)
            fh.write(line % (u, v, *p.z.coords(), p.E, p.F, p.G, p.L, p.M,
                             p.N, p.k, p.kappa_normal, p.K, *p.H.coords(),
                             p.h_dot_h()))
            rows += 1
    return rows


def export_positions_csv(patch: SurfacePatch, grid: GridSpec, path: str) -> int:
    """Write sampled positions only (u, v, x1..x4); returns the row count."""
    line = row_format(POSITIONS_HEADER.count(",") + 1)
    rows = 0
    with atomic_writer(path) as fh:
        fh.write(POSITIONS_HEADER + "\n")
        for u, v in grid.points():
            z = jet_eval_surface(patch, u, v).value()
            fh.write(line % (u, v, *z.coords()))
            rows += 1
    return rows


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

    nu, nv = grid.u_samples, grid.v_samples
    vertex = "v " + row_format(3, " ")
    with atomic_writer(path) as fh:
        for u, v in grid.points():
            z = np.array(jet_eval_surface(patch, u, v).value().coords())
            x, y, w = proj @ z
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(w)):
                raise SingularProjection(
                    f"non-finite projected vertex at (u,v)=({u},{v})")
            fh.write(vertex % (x, y, w))
        faces = 0
        for i in range(nu - 1):
            for j in range(nv - 1):
                a = i * nv + j + 1
                b = a + 1
                c = a + nv
                d = c + 1
                fh.write(f"f {a} {b} {d}\n")
                fh.write(f"f {a} {d} {c}\n")
                faces += 2
    return nu * nv, faces
