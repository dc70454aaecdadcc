"""Command-line front end.

Subcommands:

* ``family``     build a closed-form family (general lightlike-H or cone)
                 and export CSV / OBJ grids.
* ``sample``     sample a custom parabolic patch (profile expressions) to a
                 positions-only CSV / OBJ.
* ``invariants`` full invariant CSV for a custom parabolic patch.
* ``section``    report a plane section of the paraboloid: curvature,
                 domain, constancy check; optional per-sample CSV.
* ``verify``     run the claim suite and print one report block per claim.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error.
Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

import numpy as np

from .errors import Error, UsageError
from .meridian import (MTFamilyParams, PlaneSection, ProfileCurvePhi,
                       ProfilePair, RootBranch, SignBranch, build_parabolic,
                       kappa_bar_of_jet, mt_cone_patch, mt_general_profile,
                       plane_section_curvature, plane_section_phi, profile_v)
from .minkowski import out_of_bound, quiet
from .surface import GridSpec, Interval
from .verify import claim_suite, render_reports
from . import exporters

# verify and exporters are imported here, not per subcommand:
# perfbench/probe.py times set-up up to parsing for verify and up to
# _export for exports, so an import moved past that point would be
# counted as evaluation.


def compile_profile(src: str, variable: str):
    """:func:`minksurf.expr.compile_profile`, importing that module on
    the first call: ``verify`` and ``family --section`` parse no
    expression, so they do not load it."""
    from .expr import compile_profile as compile_expr
    return compile_expr(src, variable)


def _real(text: str, what: str, positive: bool = False) -> float:
    """The finite real (> 0 if ``positive``) that ``text`` spells, else a
    UsageError; as an argparse ``type`` it bypasses argparse's errors."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if out_of_bound(x, 0.0 if positive else -math.inf):
        need = "value > 0" if positive else "real"
        raise UsageError(f"{what} needs a finite {need}, got {text!r}")
    return x


def _parse_axis(spec: str, name: str) -> tuple[float, float, int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"--{name} must be start:end:count, got {spec!r}")
    lo = _real(parts[0], f"--{name} start")
    hi = _real(parts[1], f"--{name} end")
    try:
        count = int(parts[2])
    except ValueError:
        raise UsageError(f"--{name} must be start:end:count, got {spec!r}") from None
    if count < 2:
        raise UsageError(f"--{name} needs count >= 2, got {count}")
    if not lo < hi:
        raise UsageError(f"--{name} needs start < end, got {spec!r}")
    return lo, hi, count


def _parse_section(spec: str) -> PlaneSection:
    fields: dict[str, str] = {}
    for item in spec.split(","):
        if "=" not in item:
            raise UsageError(f"--section entries must be key=value, got {item!r}")
        key, _, val = item.partition("=")
        fields[key.strip()] = val.strip()
    missing = {"A", "B", "C", "root"} - set(fields)
    if missing:
        raise UsageError(f"--section is missing {sorted(missing)}")
    a, b, c = (_real(fields[k], f"--section {k}") for k in "ABC")
    root = _parse_branch(fields["root"], RootBranch, "--section root")
    return PlaneSection(a, b, c, root)


def _parse_branch(text: str, enum_cls, what: str):
    try:
        return enum_cls[text.strip().upper()]
    except KeyError:
        raise UsageError(f"{what} must be plus or minus, got {text!r}") from None


def _parse_projection(spec: str):
    entries = [_real(x, "--projection entry") for x in spec.split(",")]
    if len(entries) != 12:
        raise UsageError(
            f"--projection needs 12 comma-separated reals, got {len(entries)}")
    return tuple(tuple(entries[r * 4:(r + 1) * 4]) for r in range(3))


def _check_range(name: str, rng: Interval, domain: Interval, what: str):
    if not (domain.contains(rng.lo) and domain.contains(rng.hi)):
        raise UsageError(f"--{name} range [{rng.lo}, {rng.hi}] exits the "
                         f"{what} [{domain.lo}, {domain.hi}]")


def _grid(args) -> GridSpec:
    if args.u is None or args.v is None:
        raise UsageError("both --u and --v grid ranges are required")
    ulo, uhi, un = _parse_axis(args.u, "u")
    vlo, vhi, vn = _parse_axis(args.v, "v")
    return GridSpec(un, vn, Interval(ulo, uhi), Interval(vlo, vhi))


def _export(patch, grid, args, positions_only: bool = False) -> None:
    if not (args.csv or args.obj):
        raise UsageError("nothing to do: pass --csv and/or --obj")
    projection = (_parse_projection(args.projection)
                  if args.obj and args.projection
                  else exporters.DEFAULT_PROJECTION)
    rows, nv, nf = exporters.export_grid(patch, grid, args.csv or None,
                                         args.obj or None, projection,
                                         positions_only)
    if args.csv:
        print(f"wrote {rows} rows to {args.csv}", file=sys.stderr)
    if args.obj:
        print(f"wrote {nv} vertices, {nf} faces to {args.obj}", file=sys.stderr)


def _phi_from_args(args, section, v_range: Interval) -> ProfileCurvePhi:
    if section is not None:
        base = plane_section_phi(section.A, section.B, section.C,
                                 section.root_branch)
        if section.C > 0.0:     # else phi is periodic, defined for every v
            _check_range("v", v_range, base.domain, "section's arc")
        return ProfileCurvePhi(base.phi, v_range)
    if getattr(args, "phi_expr", None):
        return ProfileCurvePhi(compile_profile(args.phi_expr, "v"), v_range)
    raise UsageError("a generating profile is required: --section or --phi-expr")


def _cmd_family(args) -> int:
    grid = _grid(args)
    section = _parse_section(args.section) if args.section else None
    if args.type == "parabolic-mt":
        for name in ("a", "b", "c"):
            if getattr(args, name) is None:
                raise UsageError(f"--{name} is required for parabolic-mt "
                                 f"(c != 0, a != 0)")
        if args.sign is None:
            raise UsageError("--sign is required for parabolic-mt")
        if section is None:
            raise UsageError("--section is required for parabolic-mt")
        branch = _parse_branch(args.sign, SignBranch, "--sign")
        params = MTFamilyParams(a=args.a, b=args.b, c=args.c,
                                sign_branch=branch, section=section)
        prof = mt_general_profile(params)
        _check_range("u", grid.u_range, prof.domain,
                     "admissible profile domain")
        fp = ProfilePair(prof.f, prof.g, grid.u_range)
        phi = _phi_from_args(args, section, grid.v_range)
        patch = build_parabolic(fp, phi)
    elif args.type == "cone":
        for name in ("a", "b"):
            if getattr(args, name) is None:
                raise UsageError(f"--{name} is required for cone")
        phi = _phi_from_args(args, section, grid.v_range)
        patch = mt_cone_patch(args.a, args.b, phi, u_range=grid.u_range)
    else:
        raise UsageError(f"unknown family type {args.type!r}")
    _export(patch, grid, args)
    return 0


def _custom_parabolic(args):
    grid = _grid(args)
    for name in ("f_expr", "g_expr", "phi_expr"):
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")
    fp = ProfilePair(compile_profile(args.f_expr, "u"),
                     compile_profile(args.g_expr, "u"),
                     grid.u_range)
    phi = ProfileCurvePhi(compile_profile(args.phi_expr, "v"), grid.v_range)
    return build_parabolic(fp, phi), grid


def _cmd_sample(args) -> int:
    patch, grid = _custom_parabolic(args)
    _export(patch, grid, args, positions_only=True)
    return 0


def _cmd_invariants(args) -> int:
    patch, grid = _custom_parabolic(args)
    _export(patch, grid, args)
    return 0


def _cmd_section(args) -> int:
    if args.samples < 2:
        raise UsageError(f"--samples needs count >= 2, got {args.samples}")
    root = _parse_branch(args.root, RootBranch, "--root")
    phi = plane_section_phi(args.A, args.B, args.C, root)
    curvature = plane_section_curvature(args.A, args.B, args.C, root)
    vs = np.array(phi.domain.linspace(args.samples, inset=0.02))
    # One jet of all samples feeds both the curvatures and the CSV rows.
    with quiet():
        pj = profile_v(phi.phi, vs)
        kb = kappa_bar_of_jet(pj, vs)
    # Python's sum adds in sample order; np.sum pairs, with other bits.
    values = kb.tolist()
    mean = sum(values) / len(values)
    print(f"domain: [{exporters.fmt(phi.domain.lo)}, {exporters.fmt(phi.domain.hi)}]")
    print(f"curvature: {exporters.fmt(curvature)}")
    print(f"sampled mean: {exporters.fmt(mean)}")
    print(f"sampled max deviation: "
          f"{exporters.fmt(max(abs(x - curvature) for x in values))}")
    if args.csv:
        rows = exporters.write_csv(
            args.csv, "v,phi,kappa_bar",
            [np.column_stack((vs, pj.val, kb))])
        print(f"wrote {rows} rows to {args.csv}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    if args.suite != "paper":
        raise UsageError(f"unknown suite {args.suite!r}")
    reports = claim_suite(tol=args.tol)
    sys.stdout.write(render_reports(reports))
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minksurf",
        description="Invariants and lightlike-H certificates for meridian "
                    "surfaces in Minkowski 4-space.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_and_output(p):
        p.add_argument("--u", help="u grid as start:end:count")
        p.add_argument("--v", help="v grid as start:end:count")
        p.add_argument("--csv", help="output CSV path")
        p.add_argument("--obj", help="output OBJ path")
        p.add_argument("--projection",
                       help="3x4 projection, 12 comma-separated reals "
                            "(row major; default drops x4)")

    fam = sub.add_parser("family", help="build a closed-form family")
    fam.add_argument("--type", required=True, choices=["parabolic-mt", "cone"])
    fam.add_argument("--a", type=partial(_real, what="--a"))
    fam.add_argument("--b", type=partial(_real, what="--b"))
    fam.add_argument("--c", type=partial(_real, what="--c"))
    fam.add_argument("--sign", help="plus or minus")
    fam.add_argument("--section", help="A=..,B=..,C=..,root=plus|minus")
    fam.add_argument("--phi-expr", dest="phi_expr",
                     help="generating profile as an expression of v")
    add_grid_and_output(fam)
    fam.set_defaults(func=_cmd_family)

    for name, fn, helptext in (
            ("sample", _cmd_sample, "positions of a custom parabolic patch"),
            ("invariants", _cmd_invariants,
             "full invariant table of a custom parabolic patch")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--f-expr", dest="f_expr",
                       help="meridian profile f as an expression of u")
        p.add_argument("--g-expr", dest="g_expr",
                       help="meridian profile g as an expression of u")
        p.add_argument("--phi-expr", dest="phi_expr",
                       help="generating profile as an expression of v")
        add_grid_and_output(p)
        p.set_defaults(func=fn)

    sec = sub.add_parser("section", help="plane section of the paraboloid")
    sec.add_argument("--A", type=partial(_real, what="--A"), required=True)
    sec.add_argument("--B", type=partial(_real, what="--B"), required=True)
    sec.add_argument("--C", type=partial(_real, what="--C"), required=True)
    sec.add_argument("--root", default="plus", help="plus or minus")
    sec.add_argument("--samples", type=int, default=1000)
    sec.add_argument("--csv", help="per-sample CSV path")
    sec.set_defaults(func=_cmd_section)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", default="paper")
    ver.add_argument("--tol", default=1e-9,
                     type=partial(_real, what="--tol", positive=True))
    ver.set_defaults(func=_cmd_verify)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse usage errors already carry code 2
        return int(exc.code or 0)
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
