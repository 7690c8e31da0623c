"""Command-line front end: batch component tables, kernel values,
cross-method validation, growth-bound checks and generating-function
coefficients, in CSV or JSON.

Exit codes: 0 success, 1 check failure, 2 domain error, 3 convergence error.
Data goes to stdout, diagnostics to stderr.  Output is deterministic for a
fixed argument list (including --seed).

Each component route returns the whole table E_0..E_M from one call with the
signature (G, P, x, y, M) -> complex ndarray: ``recurrence.em_sequence``,
``series.em_genseries``, ``polyalg.oracle_em`` and ``series.em_closed_sigma``
(mirror-axis arguments only).  ``_em_values`` is the one dispatcher over them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass

import numpy as np

from .dihedral import (
    DihedralGroup,
    OrbitPairings,
    PlanePoint,
    is_sigma_invariant,
    make_group,
    orbit_pairings,
)
from .errors import ConsistencyError, ConvergenceError, DomainError
from .kernel import _require_tol, check_ek_bound, check_em_bound, ek_series, ek_integral
from .polyalg import ParameterK, oracle_em
from .recurrence import em_sequence
from .sampling import draw_instance
from .series import a_coeffs, em_closed_sigma, em_genseries
from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_DOMAIN_ERROR = 2
EXIT_CONVERGENCE_ERROR = 3


@dataclass
class JobSpec:
    n: int
    k: complex
    x: np.ndarray | None
    y: np.ndarray | None
    m_max: int
    tol: float
    method: str
    seed: int
    samples: int
    fmt: str
    nu: int


def _parse_floats(text: str, what: str, usage: str, counts: tuple[int, ...]) -> list[float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in counts:
        raise DomainError(f"cannot parse {what} from {text!r} (use {usage})")
    return parts


def _parse_complex(text: str) -> complex:
    parts = _parse_floats(text, "complex number", "'re' or 're,im'", (1, 2))
    return complex(parts[0], parts[1] if len(parts) == 2 else 0.0)


def _parse_point(text: str, *, allow_complex: bool) -> np.ndarray:
    parts = _parse_floats(text, "plane point", "'a,b' or 'a,b,c,d'", (2, 4))
    if len(parts) == 2:
        return np.array(parts)
    pt = np.array([complex(parts[0], parts[2]), complex(parts[1], parts[3])])
    if not allow_complex and np.max(np.abs(pt.imag)) > 0:
        raise DomainError("the x argument must be a real plane point")
    return pt.real if not allow_complex else pt


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _meta(spec: JobSpec) -> dict:
    def point_fields(p):
        if p is None:
            return None
        arr = np.asarray(p, dtype=complex)
        return {"re": [arr[0].real, arr[1].real], "im": [arr[0].imag, arr[1].imag]}

    return {
        "n": spec.n,
        "k_re": spec.k.real,
        "k_im": spec.k.imag,
        "x": point_fields(spec.x),
        "y": point_fields(spec.y),
        "method": spec.method,
        "tol": spec.tol,
        "seed": spec.seed,
    }


def _emit(spec: JobSpec, header: list[str], rows: list[list], out) -> None:
    if spec.fmt == "json":
        payload = {
            "meta": _meta(spec),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        out.write(json.dumps(payload) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


# ---------------------------------------------------------------------------
# subcommands


def _methods(orbit: OrbitPairings) -> list[str]:
    """The component routes that apply to an argument pair."""
    return ["recurrence", "genseries", "oracle"] + (["sigma"] if is_sigma_invariant(orbit) else [])


def _em_values(
    method: str, G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, M: int
) -> np.ndarray:
    """The table E_0..E_M by one route.  The route functions are looked up
    as module globals at call time, so wrappers installed on this module's
    attributes (profilers, tracers) see every call."""
    if method == "recurrence":
        return em_sequence(G, P, x, y, M)
    if method == "genseries":
        return em_genseries(G, P, x, y, M)
    if method == "oracle":
        return oracle_em(G, P, x, y, M)
    if method == "sigma":
        return em_closed_sigma(G, P, x, y, M)
    raise DomainError(f"unknown component method {method!r}")


def cmd_em(spec: JobSpec, out) -> int:
    G, P = make_group(spec.n), ParameterK(spec.k, spec.n)
    values = _em_values(spec.method, G, P, spec.x, spec.y, spec.m_max)
    rows = [[m, float(values[m].real), float(values[m].imag)] for m in range(len(values))]
    _emit(spec, ["m", "re", "im"], rows, out)
    return EXIT_OK


def cmd_kernel(spec: JobSpec, out) -> int:
    G = make_group(spec.n)
    P = ParameterK(spec.k, spec.n)
    if spec.method == "integral":
        res = ek_integral(G, P, spec.x, spec.y, spec.tol)
    else:
        res = ek_series(G, P, spec.x, spec.y, spec.tol)
    rows = [
        [
            float(res.value.real),
            float(res.value.imag),
            res.method,
            res.terms_used if res.terms_used is not None else "",
            res.nodes_used if res.nodes_used is not None else "",
            float(res.tail_estimate),
        ]
    ]
    _emit(
        spec,
        ["value_re", "value_im", "method", "terms_used", "nodes_used", "tail_estimate"],
        rows,
        out,
    )
    return EXIT_OK


def _rel_disc(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _crosscheck_one(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, m_max: int
) -> tuple[float, bool]:
    """Worst relative discrepancy between the applicable routes' tables, and
    whether the mirror-axis route was among them."""
    methods = _methods(orbit_pairings(G, x, y))
    table = {method: _em_values(method, G, P, x, y, m_max) for method in methods}
    names = sorted(table)
    worst = 0.0
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            for m in range(m_max + 1):
                worst = max(worst, _rel_disc(table[u][m], table[v][m]))
    return worst, "sigma" in table


def cmd_crosscheck(spec: JobSpec, out) -> int:
    if spec.x is not None and spec.y is not None:
        # Single explicit instance: echo the per-method values.
        G, P = make_group(spec.n), ParameterK(spec.k, spec.n)
        rows = []
        for method in _methods(orbit_pairings(G, spec.x, spec.y)):
            values = _em_values(method, G, P, spec.x, spec.y, spec.m_max)
            for m in range(spec.m_max + 1):
                rows.append([method, m, float(values[m].real), float(values[m].imag)])
        _emit(spec, ["method", "m", "re", "im"], rows, out)
        return EXIT_OK

    _require_tol(spec.tol)
    rng = np.random.default_rng(spec.seed)
    rows = []
    worst_overall = 0.0
    for idx in range(spec.samples):
        inst = draw_instance(rng, sigma_invariant=(idx % 5 == 4), min_xy=1e-3)
        worst, sigma = _crosscheck_one(inst.group(), inst.parameter(), inst.x, inst.y, spec.m_max)
        worst_overall = max(worst_overall, worst)
        rows.append(
            [
                idx,
                inst.n,
                float(inst.k.real),
                float(inst.k.imag),
                float(worst),
                int(sigma),
            ]
        )
    rows.append(["overall", "", "", "", float(worst_overall), ""])
    _emit(spec, ["sample", "n", "k_re", "k_im", "max_rel_disc", "sigma_checked"], rows, out)
    if worst_overall > spec.tol:
        print(
            f"check-failure: max cross-method discrepancy {worst_overall:.3e} "
            f"exceeds tolerance {spec.tol:.3e}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_bounds(spec: JobSpec, out) -> int:
    G = make_group(spec.n)
    P = ParameterK(spec.k, spec.n)
    em_rep = check_em_bound(G, P, spec.x, spec.y, spec.m_max, spec.nu)
    ek_rep = check_ek_bound(G, P, spec.x, spec.y, max(1, spec.nu))
    rows = [
        ["component_bound_max_ratio", float(em_rep.max_ratio), 1.0 + 1e-9, int(em_rep.passed)],
        ["kernel_bound_ratio", float(ek_rep.ratio), float(ek_rep.constant), int(ek_rep.passed)],
    ]
    _emit(spec, ["check", "value", "limit", "passed"], rows, out)
    if not (em_rep.passed and ek_rep.passed):
        print("check-failure: a growth bound was violated", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_phi(spec: JobSpec, out) -> int:
    G = make_group(spec.n)
    P = ParameterK(spec.k, spec.n)
    orbit = orbit_pairings(G, spec.x, spec.y)
    S = a_coeffs(P, orbit, spec.m_max)
    rows = [
        [p, float(S.phi[p].real), float(S.phi[p].imag)] for p in range(S.order + 1)
    ]
    _emit(spec, ["p", "re", "im"], rows, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunkl",
        description="Dunkl kernel and component evaluation for dihedral groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_xy: bool):
        p.add_argument("--n", type=int, required=True, help="dihedral order parameter")
        p.add_argument("--k", type=str, required=True, help="parameter k: 're' or 're,im'")
        p.add_argument("--x", type=str, required=need_xy, default=None)
        p.add_argument("--y", type=str, required=need_xy, default=None)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p_em = sub.add_parser("em", help="table of components E_0..E_m")
    common(p_em, need_xy=True)
    p_em.add_argument("--m-max", type=int, default=10)
    p_em.add_argument(
        "--method",
        choices=("recurrence", "genseries", "oracle", "sigma"),
        default="recurrence",
    )

    p_k = sub.add_parser("kernel", help="full kernel value")
    common(p_k, need_xy=True)
    p_k.add_argument("--method", choices=("series", "integral"), default="series")

    p_cc = sub.add_parser("crosscheck", help="cross-method agreement sweep")
    p_cc.add_argument("--n", type=int, default=0)
    p_cc.add_argument("--k", type=str, default="0")
    p_cc.add_argument("--x", type=str, default=None)
    p_cc.add_argument("--y", type=str, default=None)
    p_cc.add_argument("--seed", type=int, required=True)
    p_cc.add_argument("--samples", type=int, default=50)
    p_cc.add_argument("--m-max", type=int, default=12)
    p_cc.add_argument("--tol", type=float, default=1e-8)
    p_cc.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p_b = sub.add_parser("bounds", help="component/kernel growth-bound checks")
    common(p_b, need_xy=True)
    p_b.add_argument("--m-max", type=int, default=60)
    p_b.add_argument("--nu", type=int, default=1)

    p_phi = sub.add_parser("phi", help="generating-function coefficients")
    common(p_phi, need_xy=True)
    p_phi.add_argument("--pmax", type=int, default=40)

    return parser


def _job_from_args(args: argparse.Namespace) -> JobSpec:
    x = _parse_point(args.x, allow_complex=False) if args.x else None
    y = _parse_point(args.y, allow_complex=True) if args.y else None
    m_max = getattr(args, "m_max", getattr(args, "pmax", 10))
    return JobSpec(
        n=args.n,
        k=_parse_complex(args.k),
        x=x,
        y=y,
        m_max=m_max,
        tol=getattr(args, "tol", 1e-10),
        method=getattr(args, "method", "auto"),
        seed=getattr(args, "seed", 0),
        samples=getattr(args, "samples", 0),
        fmt=args.fmt,
        nu=getattr(args, "nu", 1),
    )


_COMMANDS = {
    "em": cmd_em,
    "kernel": cmd_kernel,
    "crosscheck": cmd_crosscheck,
    "bounds": cmd_bounds,
    "phi": cmd_phi,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        spec = _job_from_args(args)
        return _COMMANDS[args.command](spec, out)
    except DomainError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR
    except ConvergenceError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE_ERROR
    except ConsistencyError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


def entrypoint() -> None:
    sys.exit(main())
