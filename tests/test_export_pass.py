"""One export pass writes the CSV and the OBJ together: the same bytes as
one file at a time, one evaluation per block, and no file when it fails."""

import random
import tempfile
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import exporters
from minksurf.cli import run_cli
from minksurf.errors import (AdmissibilityError, Error, ExprError,
                             NotSpacelike, SingularProjection)
from minksurf.exporters import DEFAULT_PROJECTION, export_grid
from minksurf.jets import Jet2, Jet2Vec4
from minksurf.meridian import ProfileCurvePhi, ProfilePair, build_parabolic
from minksurf.surface import (GridSpec, Interval, Rect, SurfacePatch,
                              jet_eval_surface, point_data)

from helpers import (grid_points, nan_near, random_parabolic_patch,
                     reproducer_pair, row_format)

FLIP = ((-1.0, 0.0, 0.0, 0.0), (0.0, 0.0, -1.0, 0.0), (0.0, 1.0, 0.0, 0.5))


def flat_patch():
    fp = ProfilePair(f=lambda j: j, g=lambda j: -j, domain=Interval(0.5, 2.0))
    phi = ProfileCurvePhi(phi=lambda j: Jet2.constant(1.0),
                          domain=Interval(0.0, 6.3))
    return build_parabolic(fp, phi)


def negative_zero_patch():
    """Positions only: x1 is -0.0 at every point."""
    base = flat_patch()

    def immersion(ju, jv):
        z = base.immersion(ju, jv)
        return Jet2Vec4(ju * -0.0, z.x2, z.x3, z.x4)

    return SurfacePatch(immersion, base.domain)


def read_export(patch, grid, **kwargs):
    """The bytes of each file export_grid writes, and its return value."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(Path(tmp) / name) if name in kwargs else None
                 for name in ("csv", "obj")}
        kwargs = {k: (paths[k] if k in paths else v)
                  for k, v in kwargs.items()}
        counts = export_grid(patch, grid, **kwargs)
        files = {name: Path(path).read_bytes()
                 for name, path in paths.items() if path}
        assert sorted(p.name for p in Path(tmp).iterdir()) == sorted(files)
    return files, counts


def per_point_obj(patch, grid, projection) -> bytes:
    """Vertex lines from one float call and one ``proj @ z`` per vertex."""
    proj = np.asarray(projection)
    line = "v " + row_format(3, " ")
    return "".join(
        line % tuple((proj @ np.array(
            jet_eval_surface(patch, u, v).value().coords())).tolist())
        for u, v in grid_points(grid)).encode()


PATCHES = {"flat": flat_patch, "negative-zero": negative_zero_patch}


@given(kind=st.sampled_from(["flat", "negative-zero", "random"]),
       seed=st.integers(0, 50), nu=st.integers(2, 9), nv=st.integers(2, 9),
       projection=st.sampled_from([DEFAULT_PROJECTION, FLIP]),
       positions_only=st.booleans(), block=st.sampled_from([3, 8, 1000]))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_both_files_equal_one_file_at_a_time(kind, seed, nu, nv, projection,
                                             positions_only, block):
    if kind == "random":
        patch = random_parabolic_patch(random.Random(seed))
    else:
        patch = PATCHES[kind]()
        positions_only = True     # neither patch has a full invariant table
    grid = GridSpec.for_patch(patch, nu, nv)
    saved, exporters.BLOCK_POINTS = exporters.BLOCK_POINTS, block
    try:
        both, counts = read_export(patch, grid, csv=1, obj=1,
                                   projection=projection,
                                   positions_only=positions_only)
        csv, rows = read_export(patch, grid, csv=1,
                                positions_only=positions_only)
        obj, mesh = read_export(patch, grid, obj=1, projection=projection)
    finally:
        exporters.BLOCK_POINTS = saved
    assert both == {**csv, **obj}
    assert counts == (rows[0], *mesh[1:]) == (nu * nv, nu * nv,
                                              2 * (nu - 1) * (nv - 1))
    vertices = obj["obj"][:obj["obj"].index(b"f ")]
    assert vertices == per_point_obj(patch, grid, projection)
    if kind == "negative-zero" and projection is DEFAULT_PROJECTION:
        # The CSV keeps x1 = -0, but 1*x1 + 0*x2 + ... is +0.
        assert b",-0," in csv["csv"]
        assert vertices.startswith(b"v 0 ") and b"v -0 " not in vertices


def test_one_evaluation_per_block(monkeypatch, tmp_path):
    calls = []

    def counting(patch, u, v, lines=None):
        calls.append(np.size(u) * np.size(v))
        return jet_eval_surface(patch, u, v, lines)

    monkeypatch.setattr(exporters, "jet_eval_surface", counting)
    grid = GridSpec(150, 10, Interval(0.6, 1.9), Interval(0.1, 6.0))
    export_grid(flat_patch(), grid, str(tmp_path / "m.csv"),
                str(tmp_path / "m.obj"), positions_only=True)
    assert calls == [1000, 500]


def test_writes_grow_with_the_block_not_the_grid(monkeypatch, tmp_path):
    writes = []
    real_writer = exporters.atomic_writer

    @contextmanager
    def recording_writer(path):
        with real_writer(path) as fh:
            yield SimpleNamespace(
                write=lambda text: writes.append(len(text)) or fh.write(text),
                flush=fh.flush)

    monkeypatch.setattr(exporters, "atomic_writer", recording_writer)
    grid = GridSpec(400, 25, Interval(0.6, 1.9), Interval(0.1, 6.0))
    export_grid(flat_patch(), grid, str(tmp_path / "m.csv"),
                str(tmp_path / "m.obj"), positions_only=True)
    total = sum(p.stat().st_size for p in tmp_path.iterdir())
    blocks = grid.u_samples * grid.v_samples / exporters.BLOCK_POINTS
    assert max(writes) <= 2 * total / blocks


def mid_grid_failure():
    # The immersion raises in the second block of u lines.
    base = flat_patch()
    grid = GridSpec(150, 10, Interval(0.6, 1.9), Interval(0.1, 6.0))
    u_fail = grid.u_range.linspace(grid.u_samples)[120]

    def failing(ju, jv):
        if np.any(ju.val >= u_fail):
            raise ExprError("fails mid-grid", 0)
        return base.immersion(ju, jv)

    return SurfacePatch(failing, base.domain), grid


@pytest.mark.parametrize("projection, error", [
    (((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)), SingularProjection),
    (((1e308, 1e308, 0, 0), (0, 1e308, 0, 0), (0, 0, 1e308, 1e308)),
     SingularProjection),
    (DEFAULT_PROJECTION, ExprError),
])
def test_a_failing_pass_leaves_no_file(tmp_path, projection, error):
    patch, grid = mid_grid_failure()
    if error is SingularProjection:
        patch = flat_patch()
    with pytest.raises(error) as obj_only:
        export_grid(patch, grid, obj=str(tmp_path / "m.obj"),
                    projection=projection)
    with pytest.raises(error) as both:
        export_grid(patch, grid, str(tmp_path / "m.csv"),
                    str(tmp_path / "m.obj"), projection, positions_only=True)
    assert str(both.value) == str(obj_only.value)
    assert list(tmp_path.iterdir()) == []


def test_a_block_run_again_names_the_first_point_without_a_warning(
        tmp_path):
    # z = (u, 1e100 v, 5e199 (u - 1)^2, 0): E = 1 + (1e200 (u - 1))^2 is
    # inf for u > 1, so the block fails its metric check there.  At u = 1
    # the metric is finite, but G z_uu = 1e400 e3 overflows in the mean
    # curvature trace: run again one point at a time, the block fails at
    # its first point, with no numpy warning (an error under -W error).
    def immersion(ju, jv):
        d = ju - 1.0
        return Jet2Vec4(ju, 1e100 * jv, 5e199 * d * d, Jet2.constant(0.0))

    patch = SurfacePatch(immersion, Rect(Interval(0.0, 3.0),
                                         Interval(0.0, 1.0)))
    grid = GridSpec(3, 2, Interval(1.0, 2.0), Interval(0.0, 1.0))
    with pytest.raises(NotSpacelike):
        point_data(patch, *grid.lines())
    with pytest.raises(Error) as first:
        point_data(patch, 1.0, 0.0)
    with pytest.raises(Error) as export:
        export_grid(patch, grid, str(tmp_path / "x.csv"))
    assert str(export.value) == str(first.value) == (
        "non-finite coordinate x3=inf")
    assert list(tmp_path.iterdir()) == []


def flipped_near(x0: float):
    """The profile j, times -1 within 1e-9 of x0: a sign flip that the 41
    samples of build_parabolic step over."""
    def profile(j: Jet2) -> Jet2:
        s = np.where(abs(j.val - x0) < 1e-9, -1.0, 1.0)
        return j * Jet2(s if s.ndim else float(s))
    return profile


@pytest.mark.parametrize("positions_only", [False, True])
def test_u_samples_are_checked_before_v_samples(tmp_path, positions_only):
    # -f'*g' > 0 fails from u = 0.5150753768844221 on, and phi is NaN at
    # the v sample 1/3; neither shows at the 41 samples of the build.
    patch = build_parabolic(reproducer_pair(), ProfileCurvePhi(
        nan_near(1.0 / 3.0), Interval(0.0, 1.0)))
    grid = GridSpec(200, 4, Interval(0.5, 2.0), Interval(0.0, 1.0))
    with pytest.raises(AdmissibilityError) as err:
        export_grid(patch, grid, str(tmp_path / "q.csv"),
                    str(tmp_path / "q.obj"), positions_only=positions_only)
    assert str(err.value) == "-f'*g' > 0 violated at u = 0.5150753768844221"
    assert list(tmp_path.iterdir()) == []


def test_f_positive_is_named_when_both_fail_at_one_u(tmp_path):
    # f = -u and f' = -1 at the fourth u sample only, so f > 0 and
    # -f'*g' > 0 fail there together; -f'*g' > 0 is checked second.
    grid = GridSpec(10, 4, Interval(0.5, 2.0), Interval(0.0, 1.0))
    u_bad = grid.u_range.linspace(grid.u_samples)[3]
    fp = ProfilePair(flipped_near(u_bad), lambda j: -j, grid.u_range)
    patch = build_parabolic(fp, ProfileCurvePhi(lambda j: Jet2.constant(1.0),
                                                grid.v_range))
    with pytest.raises(AdmissibilityError) as err:
        export_grid(patch, grid, str(tmp_path / "q.csv"))
    assert (err.value.inequality, err.value.value) == ("f > 0", u_bad)
    assert list(tmp_path.iterdir()) == []


SAMPLE = ["sample", "--f-expr", "u", "--g-expr=-u", "--phi-expr", "1",
          "--u", "0.5:2:9", "--v", "0:1:5"]


@pytest.mark.parametrize("obj, extra, error", [
    ("m.obj", ["--projection", "1,0,0,0,0,1,0,0,1,1,0,0"],
     "error: projection matrix has rank < 3"),
    ("m.obj", ["--projection", "1,0,0"],
     "error: --projection needs 12 comma-separated reals, got 3\n"),
    ("m.obj", ["--projection", "1e308,1e308,0,0,0,1e308,0,0,0,0,1e308,1e308"],
     "error: non-finite projected vertex at (u,v)=(1.4375,0.5)\n"),
    ("no/m.obj", [], "io error: [Errno 2] No such file or directory: "),
])
def test_cli_failure_leaves_neither_file(tmp_path, capsys, obj, extra, error):
    argv = SAMPLE + extra + ["--obj", str(tmp_path / obj)]
    assert run_cli(argv) == 2
    obj_only = capsys.readouterr().err
    assert run_cli(argv + ["--csv", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err == obj_only
    assert obj_only.startswith(error)
    assert list(tmp_path.iterdir()) == []


def test_a_directory_target_leaves_neither_file(tmp_path, capsys):
    (tmp_path / "d.csv").mkdir()
    argv = SAMPLE + ["--csv", str(tmp_path / "d.csv"),
                     "--obj", str(tmp_path / "m.obj")]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        f"io error: [Errno 21] Is a directory: '{tmp_path / 'd.csv'}'\n")
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
