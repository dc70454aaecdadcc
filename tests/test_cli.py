import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minksurf
from minksurf import cli, exporters
from minksurf.cli import run_cli
from minksurf.errors import SingularProjection
from minksurf.exporters import (CSV_HEADER, DEFAULT_PROJECTION,
                                POSITIONS_HEADER, export_grid_csv,
                                export_obj, export_positions_csv, fmt)
from minksurf.expr import compile_profile
from minksurf.errors import ExprError, NotSpacelike
from minksurf.jets import Jet2, Jet2Vec4
from minksurf.meridian import (MTFamilyParams, PlaneSection, ProfileCurvePhi,
                               ProfilePair, build_parabolic, kappa_bar,
                               mt_general_profile, plane_section_phi,
                               profile_v)
from minksurf.surface import (GridSpec, Interval, SurfacePatch,
                              jet_eval_surface, point_data)

from helpers import math_rounding, row_format

MT_ARGS = ["family", "--type", "parabolic-mt", "--a", "-1", "--b", "0",
           "--c", "1", "--sign", "plus",
           "--section", "A=0,B=0,C=-0.5,root=plus"]


def flat_patch():
    fp = ProfilePair(f=lambda j: j, g=lambda j: -j, domain=Interval(0.5, 2.0))
    phi = ProfileCurvePhi(phi=lambda j: Jet2.constant(1.0),
                          domain=Interval(0.0, 6.3))
    return build_parabolic(fp, phi)


class TestExpressionGrammar:
    def test_basic_arithmetic(self):
        fn = compile_profile("2 + 3*u - u^2", "u")
        j = fn(Jet2.seed_u(2.0))
        assert j.val == 4.0
        assert j.du == -1.0
        assert j.duu == -2.0

    def test_functions_and_parens(self):
        fn = compile_profile("sin(u) * exp(-u/2) + sqrt(u + 1)", "u")
        x = 0.7
        want = math.sin(x) * math.exp(-x / 2) + math.sqrt(x + 1)
        assert abs(fn(Jet2.seed_u(x)).val - want) <= 1e-15

    def test_right_associative_power(self):
        fn = compile_profile("2^u^2", "u")  # 2^(u^2)
        assert abs(fn(Jet2.seed_u(1.5)).val - 2.0 ** 2.25) <= 1e-14

    def test_negative_exponent(self):
        fn = compile_profile("u^-1", "u")
        assert abs(fn(Jet2.seed_u(4.0)).val - 0.25) <= 1e-16

    def test_wrong_variable_rejected_with_position(self):
        with pytest.raises(ExprError) as err:
            compile_profile("1 + v", "u")
        assert err.value.pos == 4

    def test_malformed_input_has_position(self):
        with pytest.raises(ExprError) as err:
            compile_profile("sin(u", "u")
        assert "position" in str(err.value)

    def test_unknown_identifier(self):
        with pytest.raises(ExprError):
            compile_profile("foo(u)", "u")


class TestCsvExport:
    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "out.csv"
        grid = GridSpec(2, 2, Interval(0.8, 1.2), Interval(0.1, 0.6))
        rows = export_grid_csv(flat_patch(), grid, str(path))
        lines = path.read_text().splitlines()
        assert rows == 4
        assert len(lines) == 5
        assert lines[0] == CSV_HEADER

    def test_row_major_order(self, tmp_path):
        path = tmp_path / "out.csv"
        grid = GridSpec(2, 3, Interval(0.8, 1.2), Interval(0.1, 0.7))
        export_grid_csv(flat_patch(), grid, str(path))
        lines = path.read_text().splitlines()[1:]
        us = [float(line.split(",")[0]) for line in lines]
        vs = [float(line.split(",")[1]) for line in lines]
        assert us == sorted(us)
        assert vs[:3] == sorted(vs[:3])

    def test_round_trip_within_one_ulp(self, tmp_path):
        path = tmp_path / "out.csv"
        grid = GridSpec(4, 4, Interval(0.6, 1.9), Interval(0.2, 5.9))
        patch = flat_patch()
        export_grid_csv(patch, grid, str(path))
        header, *lines = path.read_text().splitlines()
        names = header.split(",")
        for line in lines:
            values = dict(zip(names, map(float, line.split(","))))
            p = point_data(patch, values["u"], values["v"])
            recomputed = {
                "x1": p.z.x1, "x2": p.z.x2, "x3": p.z.x3, "x4": p.z.x4,
                "E": p.E, "F": p.F, "G": p.G, "L": p.L, "M": p.M, "N": p.N,
                "k": p.k, "kappa": p.kappa_normal, "K": p.K,
                "H1": p.H.x1, "H2": p.H.x2, "H3": p.H.x3, "H4": p.H.x4,
                "HdotH": p.h_dot_h(),
            }
            for name, want in recomputed.items():
                got = values[name]
                assert abs(got - want) <= math.ulp(max(abs(got), abs(want),
                                                       1e-300)), name

    def test_serialization_is_lossless(self):
        for x in (1 / 3, math.pi, -2.5e-17, 1e300, 0.1):
            assert float(fmt(x)) == x

    EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -1.7976931348623157e308, math.inf, -math.inf, math.nan)

    @given(row=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(),
                                  st.floats().map(np.float64),
                                  st.integers(-2 ** 1000, 2 ** 1000)),
                        min_size=1, max_size=24),
           sep=st.sampled_from([",", " "]))
    @example(row=[*EDGE_FLOATS, 0, -7, 2 ** 64], sep=",")
    @settings(max_examples=300, deadline=None)
    def test_row_format_writes_what_fmt_writes(self, row, sep):
        # The reference format of the exporters' table writer must give
        # the bytes of fmt on every field: signed zero, subnormals, the
        # largest finite floats, inf, nan, ints and numpy scalars.
        assert (row_format(len(row), sep) % tuple(row)
                == sep.join(fmt(x) for x in row) + "\n")


class TestObjExport:
    def test_counts(self, tmp_path):
        path = tmp_path / "mesh.obj"
        grid = GridSpec(3, 3, Interval(0.8, 1.2), Interval(0.1, 0.6))
        nverts, nfaces = export_obj(flat_patch(), grid, DEFAULT_PROJECTION,
                                    str(path))
        assert (nverts, nfaces) == (9, 8)
        lines = path.read_text().splitlines()
        assert sum(1 for s in lines if s.startswith("v ")) == 9
        assert sum(1 for s in lines if s.startswith("f ")) == 8

    def test_faces_reference_valid_vertices(self, tmp_path):
        path = tmp_path / "mesh.obj"
        grid = GridSpec(3, 4, Interval(0.8, 1.2), Interval(0.1, 0.6))
        nverts, _ = export_obj(flat_patch(), grid, DEFAULT_PROJECTION,
                               str(path))
        for line in path.read_text().splitlines():
            if line.startswith("f "):
                ids = [int(x) for x in line.split()[1:]]
                assert all(1 <= i <= nverts for i in ids)

    def test_rank_deficient_projection(self, tmp_path):
        bad = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0))
        grid = GridSpec(2, 2, Interval(0.8, 1.2), Interval(0.1, 0.6))
        with pytest.raises(SingularProjection):
            export_obj(flat_patch(), grid, bad, str(tmp_path / "m.obj"))


class TestCliCommands:
    def test_family_csv_export(self, tmp_path, capsys):
        out = tmp_path / "mt.csv"
        code = run_cli(MT_ARGS + ["--u", "0.2:3:20", "--v", "0:6.283:10",
                                  "--csv", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 201
        hcol = CSV_HEADER.split(",").index("HdotH")
        for line in lines[1:]:
            assert abs(float(line.split(",")[hcol])) <= 1e-9

    def test_family_is_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = MT_ARGS + ["--u", "0.2:3:15", "--v", "0:6.283:7"]
        assert run_cli(argv + ["--csv", str(out1)]) == 0
        assert run_cli(argv + ["--csv", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_family_rejects_zero_c(self, tmp_path, capsys):
        code = run_cli(["family", "--type", "parabolic-mt", "--a", "-1",
                        "--b", "0", "--c", "0", "--sign", "plus",
                        "--section", "A=0,B=0,C=-0.5,root=plus",
                        "--u", "0.2:3:10", "--v", "0:6.283:10",
                        "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "c != 0" in capsys.readouterr().err

    def test_cone_family_flat_columns(self, tmp_path):
        out = tmp_path / "cone.csv"
        code = run_cli(["family", "--type", "cone", "--a", "-0.5", "--b", "0",
                        "--section", "A=0,B=0,C=-0.5,root=plus",
                        "--u", "0.2:3:8", "--v", "0:6.283:8",
                        "--csv", str(out)])
        assert code == 0
        names = CSV_HEADER.split(",")
        for line in out.read_text().splitlines()[1:]:
            row = dict(zip(names, map(float, line.split(","))))
            assert abs(row["L"]) <= 1e-12
            assert abs(row["M"]) <= 1e-12
            assert abs(row["N"]) <= 1e-12

    def test_cone_rejects_zero_curvature_phi(self, tmp_path, capsys):
        code = run_cli(["family", "--type", "cone", "--a", "-0.5", "--b", "0",
                        "--phi-expr", "1/cos(v)",
                        "--u", "0.2:3:8", "--v=-1.2:1.2:8",
                        "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "cone constraint" in capsys.readouterr().err

    def test_invariants_with_expressions(self, tmp_path):
        out = tmp_path / "inv.csv"
        code = run_cli(["invariants", "--f-expr", "u",
                        "--g-expr=-(u^3)/3", "--phi-expr", "2 + sin(v)",
                        "--u", "0.5:2:6", "--v", "0:6.283:6",
                        "--csv", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 37

    def test_sample_positions_only(self, tmp_path):
        out = tmp_path / "pos.csv"
        code = run_cli(["sample", "--f-expr", "u", "--g-expr=-u",
                        "--phi-expr", "1 + 0*v",
                        "--u", "0.5:2:4", "--v", "0:6.283:4",
                        "--csv", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "u,v,x1,x2,x3,x4"
        assert len(lines) == 17

    def test_malformed_expression_exits_2(self, tmp_path, capsys):
        code = run_cli(["sample", "--f-expr", "u", "--g-expr=-u",
                        "--phi-expr", "2 + sin(v",
                        "--u", "0.5:2:4", "--v", "0:6.283:4",
                        "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "position" in capsys.readouterr().err

    def test_obj_export_via_cli(self, tmp_path):
        out = tmp_path / "mesh.obj"
        code = run_cli(MT_ARGS + ["--u", "0.2:3:3", "--v", "0:6.283:3",
                                  "--obj", str(out)])
        assert code == 0
        assert out.exists()

    def test_singular_projection_via_cli(self, tmp_path, capsys):
        code = run_cli(MT_ARGS + [
            "--u", "0.2:3:3", "--v", "0:6.283:3",
            "--obj", str(tmp_path / "m.obj"),
            "--projection", "1,0,0,0,0,1,0,0,1,1,0,0"])
        assert code == 2
        assert "rank" in capsys.readouterr().err

    def test_section_command(self, capsys):
        code = run_cli(["section", "--A", "3", "--B", "4", "--C", "0",
                        "--root", "plus", "--samples", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "curvature: -0.2" in out

    def test_section_param_error(self, capsys):
        code = run_cli(["section", "--A", "0", "--B", "0", "--C", "1"])
        assert code == 2

    def test_verify_suite(self, capsys):
        code = run_cli(["verify", "--suite", "paper", "--tol", "1e-9"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("claim:") >= 9
        assert out.count("passed: True") >= 9
        assert "passed 10 of 10 claims" in out

    def test_grid_syntax_errors(self, tmp_path, capsys):
        code = run_cli(MT_ARGS + ["--u", "0.2:3", "--v", "0:6.283:10",
                                  "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        code = run_cli(MT_ARGS + ["--u", "0.2:3:1", "--v", "0:6.283:10",
                                  "--csv", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_output_is_usage_error(self, capsys):
        code = run_cli(MT_ARGS + ["--u", "0.2:3:4", "--v", "0:6.283:4"])
        assert code == 2

    def test_inadmissible_profile_exits_2(self, tmp_path, capsys):
        code = run_cli(["invariants", "--f-expr", "u", "--g-expr", "u",
                        "--phi-expr", "1 + 0*v",
                        "--u", "0.5:2:4", "--v", "0:6.283:4",
                        "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "-f'*g' > 0" in capsys.readouterr().err

    def test_verify_exits_1_when_a_claim_fails(self, capsys):
        code = run_cli(["verify", "--suite", "paper", "--tol", "1e-18"])
        assert code == 1
        assert "passed: False" in capsys.readouterr().out

    def test_unknown_suite_exits_2(self, capsys):
        code = run_cli(["verify", "--suite", "nonsense"])
        assert code == 2

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        code = run_cli(MT_ARGS + ["--u", "0.2:3:3", "--v", "0:6.283:3",
                                  "--csv", str(tmp_path / "no" / "dir.csv")])
        assert code == 2
        assert "io error" in capsys.readouterr().err


class TestRejectedInputs:
    """Bad input exits 2 with one error line, no traceback and no file."""

    @staticmethod
    def assert_rejected(capsys, code, *wanted):
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        for text in wanted:
            assert text in err
        return out

    @pytest.mark.parametrize("samples", ["1", "0"])
    def test_section_needs_two_samples(self, tmp_path, capsys, samples):
        out = tmp_path / "s.csv"
        code = run_cli(["section", "--A", "1", "--B", "0", "--C", "-1",
                        "--samples", samples, "--csv", str(out)])
        self.assert_rejected(capsys, code,
                             f"--samples needs count >= 2, got {samples}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("f_expr,u_axis,wanted", [
        ("exp(1000*u)", "0.5:2:3", "exp: argument"),
        # 2^400.5 still fits a float; 8^400.5 does not.
        ("u^400.5", "2:8:3", "pow-by-real: argument"),
        # At u = 0.875 exp(700) fits but f'' = 800^2 exp(700) does not;
        # the first argument beyond float range is 730 at u = 0.9125.
        ("exp(800*u)", "0.5:2:3", "exp: argument"),
    ], ids=["exp", "pow", "exp-slot"])
    def test_overflowing_profile(self, tmp_path, capsys, f_expr, u_axis,
                                 wanted):
        out = tmp_path / "y.csv"
        code = run_cli(["invariants", "--f-expr", f_expr, "--g-expr=-u",
                        "--phi-expr", "1", "--u", u_axis, "--v", "0:1:3",
                        "--csv", str(out)])
        self.assert_rejected(capsys, code, wanted, "within float range")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf"])
    def test_verify_tolerance_must_be_finite_and_positive(self, capsys, tol):
        code = run_cli(["verify", "--suite", "paper", f"--tol={tol}"])
        out = self.assert_rejected(capsys, code,
                                   "--tol needs a finite value > 0")
        assert out == ""

    # Each of these ran on with a nan or inf: a traceback (exit 1), a
    # `sampled mean: nan` (exit 0), or an error naming a symptom.
    @pytest.mark.parametrize("argv,wanted", [
        (["section", "--A", "nan", "--B", "1", "--C", "0", "--csv", "o"],
         "--A needs a finite real, got 'nan'"),
        (["section", "--A", "inf", "--B", "1", "--C", "0", "--csv", "o"],
         "--A needs a finite real, got 'inf'"),
        (["invariants", "--f-expr", "u", "--g-expr=-u", "--phi-expr", "1",
          "--u", "0.5:inf:3", "--v", "0:1:3", "--csv", "o"],
         "--u end needs a finite real, got 'inf'"),
        (MT_ARGS + ["--u", "0.2:3:5", "--v", "0:6:5", "--obj", "o",
                    "--projection", "1,0,0,0,0,1,0,0,0,0,1,nan"],
         "--projection entry needs a finite real, got 'nan'"),
        (["family", "--type", "cone", "--a", "nan", "--b", "0",
          "--section", "A=0,B=0,C=-0.5,root=plus",
          "--u", "0.2:3:5", "--v", "0:6:5", "--csv", "o"],
         "--a needs a finite real, got 'nan'"),
        (["family", "--type", "cone", "--a", "-0.5", "--b", "0",
          "--section", "A=0,B=-inf,C=-0.5,root=plus",
          "--u", "0.2:3:5", "--v", "0:6:5", "--csv", "o"],
         "--section B needs a finite real, got '-inf'"),
    ], ids=["section-nan", "section-inf", "axis-inf", "projection-nan",
            "family-nan", "section-entry-inf"])
    def test_non_finite_real(self, tmp_path, capsys, argv, wanted):
        out = str(tmp_path / "o")
        code = run_cli([out if a == "o" else a for a in argv])
        self.assert_rejected(capsys, code, wanted)
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_section_is_named(self, tmp_path, capsys):
        # theta^2 = (1e200 cos v)^2 overflows in the jets of phi; the
        # inf that results fails phi'^2 + phi^2 > 0, with no numpy
        # warning first.
        out = tmp_path / "s.csv"
        code = run_cli(["section", "--A", "1e200", "--B", "0", "--C", "-1",
                        "--samples", "5", "--csv", str(out)])
        self.assert_rejected(capsys, code, "error: phi'^2 + phi^2 > 0 "
                             "violated at v = 0.12566370614359174\n")
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_metric_is_not_spacelike(self, tmp_path, capsys):
        # -2 f'g' overflows to inf, which the admissibility samples reject
        # at build time, naming the inequality rather than E = inf - inf.
        out = tmp_path / "z.csv"
        code = run_cli(["invariants", "--f-expr", "1e200*u",
                        "--g-expr=-1e200*u", "--phi-expr", "1",
                        "--u", "0.5:2:3", "--v", "0:1:3", "--csv", str(out)])
        self.assert_rejected(capsys, code,
                             "error: -f'*g' > 0 violated at u = 0.5\n")
        assert list(tmp_path.iterdir()) == []

    def test_v_range_must_stay_on_the_section_arc(self, tmp_path, capsys):
        # C > 0: the section profile lives on one arc around v = 0.
        argv = ["family", "--type", "parabolic-mt",
                "--a", "0.3779644730092272", "--b", "0", "--c", "1",
                "--sign", "plus", "--section", "A=3,B=0,C=1,root=plus",
                "--u", "0.2:1:5"]
        out = tmp_path / "e.csv"
        code = run_cli(argv + ["--v", "0:3:5", "--csv", str(out)])
        self.assert_rejected(
            capsys, code, "--v range [0.0, 3.0] exits the section's arc "
            "[-1.0799136485054517, 1.0799136485054517]")
        assert list(tmp_path.iterdir()) == []
        assert run_cli(argv + ["--v=-1:1:5", "--csv", str(out)]) == 0


def per_line_csv(patch, grid, positions_only=False) -> bytes:
    """The exporters' CSV from one engine call per u line of the grid
    (the exporters evaluate blocks of lines), each row written with
    ``row_format``."""
    header = POSITIONS_HEADER if positions_only else CSV_HEADER
    line = row_format(header.count(",") + 1)
    out = [header + "\n"]
    us, vs = grid.lines()
    for u in us:
        if positions_only:
            columns = jet_eval_surface(patch, u, vs).value().coords()
        else:
            p = point_data(patch, u, vs)
            columns = (*p.z.coords(), p.E, p.F, p.G, p.L, p.M, p.N, p.k,
                       p.kappa_normal, p.K, *p.H.coords(), p.h_dot_h())
        table = np.stack([np.ravel(c) for c in
                          np.broadcast_arrays(u, vs, *columns)], axis=-1)
        out.extend(line % tuple(row) for row in table.tolist())
    return "".join(out).encode()


def per_line_obj(patch, grid) -> bytes:
    """``export_obj``'s default-projection mesh from one engine call per
    u line and one ``proj @ z`` per vertex."""
    proj = np.asarray(DEFAULT_PROJECTION)
    vertex = "v " + row_format(3, " ")
    us, vs = grid.lines()
    out = []
    for u in us:
        z = np.broadcast_arrays(
            *jet_eval_surface(patch, u, vs).value().coords())
        out.extend(vertex % tuple((proj @ np.array(coords)).tolist())
                   for coords in zip(*(np.ravel(x).tolist() for x in z)))
    nv = grid.v_samples
    for i in range(grid.u_samples - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            out.append(f"f {a} {a + 1} {a + nv + 1}\n"
                       f"f {a} {a + nv + 1} {a + nv}\n")
    return "".join(out).encode()


class TestPerLineMemoOutput:
    """Exports from one patch, a block of u lines per array call, match
    rows built from one call per u line, byte for byte."""

    U, V = "0.4:2.5:7", "0.1:6.2:5"
    GRID = GridSpec(7, 5, Interval(0.4, 2.5), Interval(0.1, 6.2))

    @staticmethod
    def expression_patch(exprs, grid):
        fp = ProfilePair(compile_profile(exprs["f"], "u"),
                         compile_profile(exprs["g"], "u"), grid.u_range)
        phi = ProfileCurvePhi(compile_profile(exprs["phi"], "v"),
                              grid.v_range)
        return build_parabolic(fp, phi)

    def test_sample_csv_and_obj(self, tmp_path):
        exprs = {"f": "1.5 + exp(-u)", "g": "u + u^3/3",
                 "phi": "2 + 0.5*sin(v)*exp(-v/4)"}
        code = run_cli(["sample", "--f-expr", exprs["f"],
                        "--g-expr=" + exprs["g"], "--phi-expr", exprs["phi"],
                        "--u", self.U, "--v", self.V,
                        "--csv", str(tmp_path / "s.csv"),
                        "--obj", str(tmp_path / "s.obj")])
        assert code == 0
        ref = self.expression_patch(exprs, self.GRID)
        assert ((tmp_path / "s.csv").read_bytes()
                == per_line_csv(ref, self.GRID, positions_only=True))
        assert (tmp_path / "s.obj").read_bytes() == per_line_obj(ref,
                                                                 self.GRID)

    def test_family_csv(self, tmp_path):
        code = run_cli(MT_ARGS + ["--u", self.U, "--v", self.V,
                                  "--csv", str(tmp_path / "f.csv")])
        assert code == 0

        def build():
            params = MTFamilyParams(a=-1.0, b=0.0, c=1.0,
                                    section=PlaneSection(0.0, 0.0, -0.5))
            prof = mt_general_profile(params)
            fp = ProfilePair(prof.f, prof.g, self.GRID.u_range)
            phi = ProfileCurvePhi(plane_section_phi(0.0, 0.0, -0.5).phi,
                                  self.GRID.v_range)
            return build_parabolic(fp, phi)

        assert ((tmp_path / "f.csv").read_bytes()
                == per_line_csv(build(), self.GRID))

    def test_invariants_csv_with_exp_ln_and_real_powers(self, tmp_path):
        # numpy's ** and exp round differently from float ** and
        # math.exp: with either in the engine this CSV differs from the
        # reference, which calls math on one element at a time, from line
        # 553 (**) and from line 1852 (exp).
        exprs = {"f": "1.5 + exp(-u)", "g": "ln(u) + u^1.5",
                 "phi": "2 + 0.5*sin(v)"}
        grid = GridSpec(60, 50, Interval(0.5, 2.0), Interval(0.0, 6.283))
        code = run_cli(["invariants", "--f-expr", exprs["f"],
                        "--g-expr=" + exprs["g"], "--phi-expr", exprs["phi"],
                        "--u", "0.5:2:60", "--v", "0:6.283:50",
                        "--csv", str(tmp_path / "i.csv")])
        assert code == 0
        with math_rounding():
            want = per_line_csv(self.expression_patch(exprs, grid), grid)
        assert (tmp_path / "i.csv").read_bytes() == want


class TestAtomicOutput:
    """A failing run leaves no partial file and no temporary file."""

    # Admissible at the 41 samples build_parabolic checks, but not at the
    # grid's u samples, which the export checks before it evaluates.
    REPRODUCER = ["invariants", "--f-expr", "2 + 0.001*sin(167.55*(u-0.5))",
                  "--g-expr=-u", "--phi-expr", "2",
                  "--u", "0.5:2:200", "--v", "0:6.283:5"]

    def test_failed_export_leaves_no_file(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        assert run_cli(self.REPRODUCER + ["--csv", str(out)]) == 2
        assert (capsys.readouterr().err
                == "error: -f'*g' > 0 violated at u = 0.5150753768844221\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_export_keeps_an_existing_file(self, tmp_path):
        out = tmp_path / "q.csv"
        out.write_bytes(b"earlier output\n")
        assert run_cli(self.REPRODUCER + ["--csv", str(out)]) == 2
        assert out.read_bytes() == b"earlier output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["q.csv"]

    @pytest.mark.parametrize("export", ["positions", "obj", "grid"])
    def test_position_exporters_are_atomic(self, tmp_path, monkeypatch,
                                           export):
        # The immersion fails in the second block of u lines, after the
        # first block's rows were written to the temporary file.
        base = flat_patch()
        grid = GridSpec(150, 10, Interval(0.6, 1.9), Interval(0.1, 6.0))
        assert exporters.BLOCK_POINTS // grid.v_samples == 100
        u_fail = grid.u_range.linspace(grid.u_samples)[120]
        rows = []

        def failing(ju, jv):
            if np.any(ju.val >= u_fail):
                raise ExprError("fails mid-grid", 0)
            return base.immersion(ju, jv)

        real_writer = exporters.atomic_writer

        @contextmanager
        def counting_writer(path):
            with real_writer(path) as fh:
                yield SimpleNamespace(
                    write=lambda text: rows.append(text.count("\n"))
                    or fh.write(text))

        monkeypatch.setattr(exporters, "atomic_writer", counting_writer)
        patch = SurfacePatch(failing, base.domain)
        out = tmp_path / "m.out"
        out.write_bytes(b"earlier output\n")
        with pytest.raises(ExprError):
            if export == "obj":
                export_obj(patch, grid, DEFAULT_PROJECTION, str(out))
            elif export == "grid":
                export_grid_csv(patch, grid, str(out))
            else:
                export_positions_csv(patch, grid, str(out))
        assert sum(rows) >= 1000
        assert out.read_bytes() == b"earlier output\n"
        assert [p.name for p in tmp_path.iterdir()] == ["m.out"]

    def test_a_failing_block_names_its_first_failing_point(self, tmp_path):
        # z_u is timelike everywhere, and the immersion raises further on
        # in the same block of u lines.  One float call per point would
        # stop at the first point, so the export does too.
        base = flat_patch()
        grid = GridSpec(5, 4, Interval(0.6, 1.9), Interval(0.1, 6.0))
        u_late = grid.u_range.linspace(grid.u_samples)[3]

        def immersion(ju, jv):
            if np.any(ju.val >= u_late):
                raise ExprError("fails further on", 0)
            z = base.immersion(ju, jv)
            return Jet2Vec4(z.x1, z.x2, z.x3, z.x4 + 10.0 * ju)

        patch = SurfacePatch(immersion, base.domain)
        with pytest.raises(NotSpacelike) as err:
            export_grid_csv(patch, grid, str(tmp_path / "b.csv"))
        assert (err.value.u, err.value.v) == (0.6, 0.1)
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_the_target(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        out.write_text("stale\n")
        assert run_cli(["section", "--A", "3", "--B", "4", "--C", "0",
                        "--samples", "5", "--csv", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "v,phi,kappa_bar"
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    @pytest.mark.parametrize("obj", ["same", "../out/same"])
    def test_one_file_for_csv_and_obj_is_refused(self, tmp_path, capsys,
                                                 obj):
        # Both targets resolve to one file, so one would replace the
        # other: refused before anything is written.
        out = tmp_path / "out"
        out.mkdir()
        (out / "same").write_bytes(b"earlier output\n")
        argv = ["sample", "--f-expr", "u", "--g-expr=-u", "--phi-expr", "2",
                "--u", "0.5:2:3", "--v", "0:1:3", "--csv", str(out / "same"),
                "--obj", str(out / obj)]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == (
            f"error: CSV and OBJ would both be written to {out / obj}\n")
        assert (out / "same").read_bytes() == b"earlier output\n"
        assert [p.name for p in out.iterdir()] == ["same"]

    def test_unwritable_directory_names_the_target(self, tmp_path, capsys):
        target = tmp_path / "no" / "dir.csv"
        assert run_cli(MT_ARGS + ["--u", "0.2:3:3", "--v", "0:6.283:3",
                                  "--csv", str(target)]) == 2
        assert str(target) in capsys.readouterr().err


class TestSectionCsv:
    def test_phi_is_evaluated_once_per_sample(self, tmp_path, monkeypatch,
                                              capsys):
        calls = []

        def counting_section(*args):
            base = plane_section_phi(*args)

            def phi(jv):
                calls.append(jv.val)
                return base.phi(jv)
            return ProfileCurvePhi(phi, base.domain)

        monkeypatch.setattr(cli, "plane_section_phi", counting_section)
        out = tmp_path / "s.csv"
        assert run_cli(["section", "--A", "1", "--B", "0", "--C", "-1",
                        "--samples", "1000", "--csv", str(out)]) == 0
        phi = plane_section_phi(1.0, 0.0, -1.0)
        vs = phi.domain.linspace(1000, inset=0.02)
        # One call, on all samples.
        assert len(calls) == 1 and calls[0].tolist() == vs
        # Rows from phi and kappa_bar on 7 pieces of the samples, with
        # math rounding each element.
        rows = []
        with math_rounding():
            for piece in np.array_split(np.array(vs), 7):
                rows += zip(piece, profile_v(phi.phi, piece).val,
                            kappa_bar(phi, piece))
        want = "v,phi,kappa_bar\n" + "".join(
            ",".join(fmt(x) for x in row) + "\n" for row in rows)
        assert out.read_bytes() == want.encode("ascii")


class TestBlasThreads:
    """Importing minksurf keeps numpy's BLAS in the calling thread unless
    the environment already says otherwise."""

    SHOW = ("import os, minksurf; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS', '-'), "
            "len(os.listdir('/proc/self/task')) "
            "if os.path.isdir('/proc/self/task') else 1)")

    def run_import(self, given):
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(minksurf.__file__).parents[1])
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        got = subprocess.run([sys.executable, "-c", self.SHOW], env=env,
                             capture_output=True, text=True, check=True)
        value, threads = got.stdout.split()
        return value, int(threads)

    def test_default_is_one_thread_and_no_pool(self):
        assert self.run_import(None) == ("1", 1)

    def test_explicit_setting_wins(self):
        assert self.run_import("2")[0] == "2"


def test_each_subcommand_imports_only_what_it_runs(tmp_path):
    """In one fresh interpreter: ``import minksurf.cli`` loads no
    dataclasses, verify no table writer (minksurf._fmt17, loaded by the
    first write) and only sample the expression grammar (minksurf.expr,
    loaded by the first expression)."""
    cli_modules = ["minksurf", "minksurf.cli", "minksurf.errors",
                   "minksurf.exporters", "minksurf.jets", "minksurf.meridian",
                   "minksurf.minkowski", "minksurf.surface", "minksurf.verify"]
    runs = [
        (["verify", "--suite", "paper"], cli_modules),
        (MT_ARGS + ["--u", "0.2:3:4", "--v", "0:6.283:4",
                    "--csv", str(tmp_path / "f.csv")],
         cli_modules + ["minksurf._fmt17"]),
        (["sample", "--f-expr", "u", "--g-expr=-u", "--phi-expr", "2",
          "--u", "0.5:2:3", "--v", "0:1:3", "--csv", str(tmp_path / "s.csv"),
          "--obj", str(tmp_path / "s.obj")],
         cli_modules + ["minksurf._fmt17", "minksurf.expr"]),
    ]
    report = tmp_path / "modules.json"
    code = ("import json, pathlib, sys\n"
            "before = set(sys.modules)\n"
            "from minksurf.cli import run_cli\n"
            "added = 'dataclasses' in set(sys.modules) - before\n"
            "loaded = []\n"
            f"for argv in {[argv for argv, _ in runs]!r}:\n"
            "    loaded.append((run_cli(argv), sorted(\n"
            "        m for m in sys.modules if m.startswith('minksurf'))))\n"
            f"pathlib.Path({str(report)!r}).write_text(\n"
            "    json.dumps([added, loaded]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(minksurf.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   capture_output=True, text=True)
    added, loaded = json.loads(report.read_text())
    assert not added
    assert loaded == [[0, sorted(modules)] for _, modules in runs]
