"""Seeded inputs and output checks for the three benchmark workloads.

A generator draws its inputs from ``random.Random(seed)``.  When a draw is
inadmissible it is rejected and the next draw comes from the same stream,
so one seed always yields the same argv.  A checker reads the outputs of
one invocation and returns the problems it found; an empty list means the
outputs are correct.

The generators and checkers import ``minksurf`` itself, so the caller puts
the checkout's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
# Reserved for confirming a claimed gain: never tune a change against it.
HELD_OUT_SEED = 20121

MAX_DRAWS = 100
# Closed-form comparisons on the family CSV run on about this many rows;
# the cheap per-row checks run on every row.
SAMPLED_ROWS = 400
MAX_PROBLEMS = 5

CSV_HEADER = "u,v,x1,x2,x3,x4,E,F,G,L,M,N,k,kappa,K,H1,H2,H3,H4,HdotH"
POSITIONS_HEADER = "u,v,x1,x2,x3,x4"

# The claim suite in the order ``minksurf verify --suite paper`` prints it.
PAPER_CLAIMS = (
    "flat-normal-connection",
    "second-form-degenerate",
    "closed-form-invariants",
    "general-family-lightlike-H",
    "cone-family-lightlike-H",
    "profile-ode-chain",
    "section-curvature-constant",
    "zero-curvature-hyperplane",
    "meridian-planarity",
    "cone-lightlike-hyperplane",
)


@dataclass(frozen=True)
class Invocation:
    """One generated CLI invocation and what is needed to check it."""

    workload: str
    seed: int
    argv: tuple[str, ...]        # arguments after ``minksurf``
    outputs: tuple[Path, ...]    # files the invocation writes
    params: dict                 # the drawn values
    draws: int                   # draws made, rejected ones included


@dataclass(frozen=True)
class Check:
    problems: list[str]
    points: int                  # output points the invocation produced


def digests(paths) -> list[str]:
    """sha256 of each output file, in order."""
    out = []
    for path in paths:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out.append(h.hexdigest())
    return out


def _axis(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n}"


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    # Same formula as the CLI's grid, so u and v columns compare exactly.
    from minksurf.surface import Interval
    return Interval(lo, hi).linspace(n)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1.0)


# ---------------------------------------------------------------------------
# family-csv: the general lightlike-H family to a full invariant CSV
# ---------------------------------------------------------------------------

def family_csv(seed: int, out_dir: Path, n: int = 100) -> Invocation:
    from minksurf.meridian import (MTFamilyParams, PlaneSection, RootBranch,
                                   SignBranch, mt_general_profile,
                                   plane_section_curvature)
    rng = random.Random(seed)
    for draw in range(1, MAX_DRAWS + 1):
        # C < 0 keeps the section profile on one code path for every seed
        # and smooth on a full period.
        A = -rng.uniform(0.0, 1.5)
        B = -rng.uniform(0.0, 1.5)
        C = -rng.uniform(0.1, 1.5)
        root = rng.choice(("plus", "minus"))
        sign = rng.choice(("plus", "minus"))
        b = rng.uniform(-1.0, 1.0)
        c = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)
        u_lo = rng.uniform(0.2, 2.0)
        u_hi = u_lo + rng.uniform(1.0, 3.0)
        v_lo = rng.uniform(0.0, 1.0)
        v_hi = v_lo + rng.uniform(4.0, 6.0)
        a = plane_section_curvature(A, B, C, RootBranch[root.upper()])
        params = MTFamilyParams(a=a, b=b, c=c,
                                sign_branch=SignBranch[sign.upper()],
                                section=PlaneSection(A, B, C,
                                                     RootBranch[root.upper()]))
        domain = mt_general_profile(params).domain
        s = params.sign_branch.value
        # Inside the profile domain and clear of its pole c = s*a*u; the
        # linear factor has one sign on the domain, so the ends bound it.
        pole_margin = min(abs(c - s * a * u) for u in (u_lo, u_hi))
        if (domain.contains(u_lo) and domain.contains(u_hi)
                and pole_margin >= 0.25 * abs(c)):
            break
    else:
        raise RuntimeError(f"family-csv: no admissible draw for seed {seed}")
    csv_path = out_dir / "family.csv"
    argv = ("family", "--type", "parabolic-mt",
            f"--a={a:.17g}", f"--b={b!r}", f"--c={c!r}", "--sign", sign,
            "--section", f"A={A!r},B={B!r},C={C!r},root={root}",
            "--u", _axis(u_lo, u_hi, n), "--v", _axis(v_lo, v_hi, n),
            "--csv", str(csv_path))
    return Invocation("family-csv", seed, argv, (csv_path,),
                      dict(A=A, B=B, C=C, root=root, sign=sign, a=a, b=b, c=c,
                           u_lo=u_lo, u_hi=u_hi, v_lo=v_lo, v_hi=v_hi, n=n),
                      draw)


# (CSV column, ClosedForms field, threshold, relative?) at the thresholds the
# paper suite uses: 1e-10 for the flat normal connection and the degenerate
# second form, 1e-9 for the closed-form invariants.  The suite has no
# certificate for E, F, G; they get the invariants' 1e-9.
_FAMILY_CHECKS = (
    ("E", "E", 1e-9, True), ("F", "F", 1e-9, True), ("G", "G", 1e-9, True),
    ("L", "L", 1e-10, False), ("M", "M", 1e-10, True),
    ("N", "N", 1e-10, False),
    ("k", "k", 1e-9, True), ("kappa", "kappa_normal", 1e-10, False),
    ("K", "K", 1e-9, True),
)
_HDOTH_TOL = 1e-9


def check_family_csv(inv: Invocation, stdout: str) -> Check:
    from minksurf.meridian import (MTFamilyParams, PlaneSection,
                                   ProfileCurvePhi, ProfilePair, RootBranch,
                                   SignBranch, mt_general_profile,
                                   parabolic_closed_forms, plane_section_phi)
    from minksurf.surface import Interval
    p = inv.params
    n = p["n"]
    problems: list[str] = []
    with open(inv.outputs[0], newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != CSV_HEADER.split(","):
        return Check([f"bad header {header!r}"], 0)
    if len(rows) != n * n:
        return Check([f"{len(rows)} data rows, expected {n * n}"], 0)
    col = {name: i for i, name in enumerate(header)}

    root = RootBranch[p["root"].upper()]
    prof = mt_general_profile(MTFamilyParams(
        a=p["a"], b=p["b"], c=p["c"], sign_branch=SignBranch[p["sign"].upper()],
        section=PlaneSection(p["A"], p["B"], p["C"], root)))
    fp = ProfilePair(prof.f, prof.g, Interval(p["u_lo"], p["u_hi"]))
    phi = ProfileCurvePhi(plane_section_phi(p["A"], p["B"], p["C"], root).phi,
                          Interval(p["v_lo"], p["v_hi"]))
    grid = [(u, v) for u in _linspace(p["u_lo"], p["u_hi"], n)
            for v in _linspace(p["v_lo"], p["v_hi"], n)]
    stride = max(1, len(rows) // SAMPLED_ROWS)
    sampled = set(range(0, len(rows), stride)) | {len(rows) - 1}

    for i, row in enumerate(rows):
        try:
            x = [float(t) for t in row]
        except ValueError:
            problems.append(f"row {i}: unparsable {row!r}")
            continue
        if len(x) != len(header) or not all(map(math.isfinite, x)):
            problems.append(f"row {i}: wrong width or non-finite value")
            continue
        u, v = x[0], x[1]
        if (u, v) != grid[i]:
            problems.append(f"row {i}: (u,v)=({u!r},{v!r}), expected {grid[i]}")
            continue
        h_sq = sum(x[col[h]] ** 2 for h in ("H1", "H2", "H3", "H4"))
        if not abs(x[col["HdotH"]]) <= _HDOTH_TOL * h_sq:
            problems.append(f"row {i}: |HdotH|={abs(x[col['HdotH']]):.3e} "
                            f"> {_HDOTH_TOL}*|H|^2={_HDOTH_TOL * h_sq:.3e}")
        if i in sampled:
            cf = parabolic_closed_forms(fp, phi, u, v)
            for name, field, tol, relative in _FAMILY_CHECKS:
                got, want = x[col[name]], getattr(cf, field)
                res = _rel(got, want) if relative else abs(got - want)
                if not res <= tol:
                    problems.append(f"row {i}: {name}={got!r}, closed form "
                                    f"{want!r} (residual {res:.3e} > {tol})")
        if len(problems) >= MAX_PROBLEMS:
            break
    return Check(problems, n * n)


# ---------------------------------------------------------------------------
# custom-mesh: a profile-expression patch to positions CSV and OBJ
# ---------------------------------------------------------------------------

def _custom_profiles(c: list[float]):
    """Plain-math f, g, phi of the template, independent of the jet code."""
    return (lambda u: c[0] + c[1] * u,
            lambda u: -(c[2] * u ** 3) / 3.0,
            lambda v: c[3] + c[4] * math.sin(v))


def custom_mesh(seed: int, out_dir: Path, n: int = 120) -> Invocation:
    rng = random.Random(seed)
    for draw in range(1, MAX_DRAWS + 1):
        c = [rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.5),
             rng.uniform(0.2, 1.5), rng.uniform(1.5, 3.0)]
        c.append(c[3] * rng.uniform(0.1, 0.9))
        u_lo = rng.uniform(0.2, 1.0)
        u_hi = u_lo + rng.uniform(1.0, 2.0)
        v_lo = rng.uniform(0.0, 1.0)
        v_hi = v_lo + rng.uniform(4.0, 6.0)
        f, _, phi = _custom_profiles(c)
        # f > 0, -f'g' = c1 c2 u^2 > 0 and phi > 0 on the grid, with margin.
        if (min(f(u_lo), f(u_hi)) > 0.1 and c[1] * c[2] * u_lo ** 2 > 1e-2
                and c[3] - c[4] > 0.1):
            break
    else:
        raise RuntimeError(f"custom-mesh: no admissible draw for seed {seed}")
    csv_path, obj_path = out_dir / "mesh.csv", out_dir / "mesh.obj"
    argv = ("sample",
            "--f-expr", f"{c[0]!r} + {c[1]!r}*u",
            f"--g-expr=-({c[2]!r}*u^3)/3",
            "--phi-expr", f"{c[3]!r} + {c[4]!r}*sin(v)",
            "--u", _axis(u_lo, u_hi, n), "--v", _axis(v_lo, v_hi, n),
            "--csv", str(csv_path), "--obj", str(obj_path))
    return Invocation("custom-mesh", seed, argv, (csv_path, obj_path),
                      dict(coefficients=c, u_lo=u_lo, u_hi=u_hi,
                           v_lo=v_lo, v_hi=v_hi, n=n),
                      draw)


_POSITION_TOL = 1e-12


def check_custom_mesh(inv: Invocation, stdout: str) -> Check:
    p = inv.params
    n = p["n"]
    f, g, phi = _custom_profiles(p["coefficients"])
    s = math.sqrt(0.5)
    problems: list[str] = []
    with open(inv.outputs[0], newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header != POSITIONS_HEADER.split(","):
        return Check([f"bad CSV header {header!r}"], 0)
    if len(rows) != n * n:
        return Check([f"{len(rows)} CSV rows, expected {n * n}"], 0)
    grid = [(u, v) for u in _linspace(p["u_lo"], p["u_hi"], n)
            for v in _linspace(p["v_lo"], p["v_hi"], n)]
    positions = []
    for i, row in enumerate(rows):
        try:
            u, v, *z = (float(t) for t in row)
        except ValueError:
            problems.append(f"CSV row {i}: unparsable {row!r}")
            break
        if (u, v) != grid[i] or len(z) != 4:
            problems.append(f"CSV row {i}: bad grid point or width")
            break
        fu, gu, pv = f(u), g(u), phi(v)
        eta1, eta2 = fu * pv * pv * 0.5 + gu, fu
        want = (fu * pv * math.cos(v), fu * pv * math.sin(v),
                (eta1 - eta2) * s, (eta1 + eta2) * s)
        scale = 1.0 + abs(eta1) + abs(eta2) + abs(fu * pv)
        worst = max(abs(a - b) for a, b in zip(z, want)) / scale
        if not worst <= _POSITION_TOL:
            problems.append(f"CSV row {i}: position off by {worst:.3e} "
                            f"(relative) at (u,v)=({u!r},{v!r})")
        positions.append(z)
        if len(problems) >= MAX_PROBLEMS:
            return Check(problems, n * n)

    vertices, faces = [], []
    with open(inv.outputs[1]) as fh:
        for line in fh:
            kind, *rest = line.split() or [""]
            if kind == "v":
                vertices.append(rest)
            elif kind == "f":
                faces.append(rest)
            else:
                problems.append(f"unexpected OBJ line {line!r}")
    if len(vertices) != n * n:
        problems.append(f"OBJ has {len(vertices)} vertices, expected {n * n}")
    if len(faces) != 2 * (n - 1) * (n - 1):
        problems.append(f"OBJ has {len(faces)} faces, "
                        f"expected {2 * (n - 1) * (n - 1)}")
    if problems:
        return Check(problems, n * n)
    for i, (vert, z) in enumerate(zip(vertices, positions)):
        # The default projection drops x4.
        try:
            ok = len(vert) == 3 and max(
                abs(float(a) - b) for a, b in zip(vert, z)
            ) <= _POSITION_TOL * (1.0 + max(map(abs, z)))
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"OBJ vertex {i} {vert} does not project {z}")
            break
    expected = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j + 1
            expected += [[str(a), str(a + 1), str(a + n + 1)],
                         [str(a), str(a + n + 1), str(a + n)]]
    if faces != expected:
        bad = next(k for k, (x, y) in enumerate(zip(faces, expected)) if x != y)
        problems.append(f"OBJ face {bad} is {faces[bad]}, expected {expected[bad]}")
    return Check(problems, n * n)


# ---------------------------------------------------------------------------
# verify-paper: the paper's claim suite
# ---------------------------------------------------------------------------

def verify_paper(seed: int, out_dir: Path) -> Invocation:
    # The paper fixes the suite's inputs; the seed is recorded but changes
    # nothing.
    return Invocation("verify-paper", seed,
                      ("verify", "--suite", "paper", "--tol", "1e-9"), (),
                      dict(note="inputs fixed by the paper; seed unused"), 1)


def check_verify_paper(inv: Invocation, stdout: str) -> Check:
    problems: list[str] = []
    claims = re.findall(r"^claim: (\S+)$", stdout, re.M)
    passed = re.findall(r"^passed: (\S+)$", stdout, re.M)
    samples = [int(x) for x in re.findall(r"^samples: (\d+)$", stdout, re.M)]
    if tuple(claims) != PAPER_CLAIMS:
        problems.append(f"claims {claims}, expected {list(PAPER_CLAIMS)}")
    failed = [c for c, ok in zip(claims, passed) if ok != "True"]
    if failed or len(passed) != len(claims):
        problems.append(f"claims not passed: {failed}")
    footer = f"passed {len(PAPER_CLAIMS)} of {len(PAPER_CLAIMS)} claims"
    if stdout.rstrip("\n").rsplit("\n", 1)[-1] != footer:
        problems.append(f"footer is not {footer!r}")
    if len(samples) != len(claims):
        problems.append("a claim block has no sample count")
    return Check(problems, sum(samples))


GENERATORS = {
    "family-csv": family_csv,
    "verify-paper": verify_paper,
    "custom-mesh": custom_mesh,
}

CHECKERS = {
    "family-csv": check_family_csv,
    "verify-paper": check_verify_paper,
    "custom-mesh": check_custom_mesh,
}
