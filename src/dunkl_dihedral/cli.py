"""Command-line front end: batch component tables, kernel values,
cross-method validation, growth-bound checks and generating-function
coefficients, in CSV or JSON.

Exit codes: 0 success, 1 check failure, 2 domain error, 3 convergence error.
Data goes to stdout, diagnostics to stderr.  Output is deterministic for a
fixed argument list (including --seed, a nonnegative integer).  The
crosscheck sweep's ``max_rel_disc`` column is the measure ``_crosscheck_one``
defines: scaled by a^m / |(1+gamma)_m| where components nearly vanish.

One parser, built at import, reads every argument list.  ``main`` converts
--k, --x and --y in place and passes the namespace to a ``cmd_*`` function.
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
from .kernel import _log_abs_pochhammer, _require_tol, check_ek_bound, check_em_bound
from .kernel import ek_integral, ek_series
from .polyalg import ParameterK, oracle_em
from .recurrence import em_sequence
from .sampling import draw_instance
from .series import a_coeffs, em_closed_sigma, em_genseries
from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_DOMAIN_ERROR = 2
EXIT_CONVERGENCE_ERROR = 3
_EXIT_CODES = {
    DomainError: EXIT_DOMAIN_ERROR,
    ConvergenceError: EXIT_CONVERGENCE_ERROR,
    ConsistencyError: EXIT_CHECK_FAILURE,
}


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


def _meta(args: argparse.Namespace) -> dict:
    def point_fields(p):
        if p is None:
            return None
        return {"re": [p[0].real, p[1].real], "im": [p[0].imag, p[1].imag]}

    return {
        "n": args.n,
        "k_re": args.k.real,
        "k_im": args.k.imag,
        "x": point_fields(args.x),
        "y": point_fields(args.y),
        "method": args.method,
        "tol": args.tol,
        "seed": args.seed,
    }


def _emit(args: argparse.Namespace, header: list[str], rows: list[list], out) -> None:
    if args.fmt == "json":
        payload = {
            "meta": _meta(args),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        out.write(json.dumps(payload) + "\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


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


def cmd_em(args: argparse.Namespace, out) -> int:
    G, P = make_group(args.n), ParameterK(args.k, args.n)
    values = _em_values(args.method, G, P, args.x, args.y, args.m_max)
    rows = [[m, float(values[m].real), float(values[m].imag)] for m in range(len(values))]
    _emit(args, ["m", "re", "im"], rows, out)
    return EXIT_OK


def cmd_kernel(args: argparse.Namespace, out) -> int:
    G = make_group(args.n)
    P = ParameterK(args.k, args.n)
    if args.method == "integral":
        res = ek_integral(G, P, args.x, args.y, args.tol)
    else:
        res = ek_series(G, P, args.x, args.y, args.tol)
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
        args,
        ["value_re", "value_im", "method", "terms_used", "nodes_used", "tail_estimate"],
        rows,
        out,
    )
    return EXIT_OK


def _crosscheck_one(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, m_max: int
) -> tuple[float, bool]:
    """Worst discrepancy |u_m - v_m| / max(|u_m|, |v_m|, a^m / |(1+gamma)_m|)
    between the applicable routes' tables u, v, and whether the mirror-axis
    route was among them.  The third term is the size of the unscaled
    recurrence state, which sets the rounding error where E_m passes near
    zero."""
    orbit = orbit_pairings(G, x, y)
    methods = _methods(orbit)
    tables = np.array([_em_values(method, G, P, x, y, m_max) for method in methods])
    m = np.arange(m_max + 1)
    scale = np.exp(m * np.log(orbit.a_bound) - _log_abs_pochhammer(P.gamma, m_max))
    u, v = tables[:, None, :], tables[None, :, :]
    denom = np.maximum(np.maximum(np.abs(u), np.abs(v)), scale)
    disc = np.divide(np.abs(u - v), denom, out=np.zeros(denom.shape), where=denom > 0)
    return float(np.max(disc)), "sigma" in methods


def cmd_crosscheck(args: argparse.Namespace, out) -> int:
    if (args.x is None) != (args.y is None):
        raise DomainError("give both --x and --y for one instance, or neither for the sweep")
    if args.x is not None:
        # Single explicit instance: echo the per-method values.
        G, P = make_group(args.n), ParameterK(args.k, args.n)
        rows = []
        for method in _methods(orbit_pairings(G, args.x, args.y)):
            values = _em_values(method, G, P, args.x, args.y, args.m_max)
            for m in range(args.m_max + 1):
                rows.append([method, m, float(values[m].real), float(values[m].imag)])
        _emit(args, ["method", "m", "re", "im"], rows, out)
        return EXIT_OK

    _require_tol(args.tol)
    if args.seed < 0:
        raise DomainError("the sweep seed must be a nonnegative integer")
    if args.samples < 0:
        raise DomainError("the sweep sample count must be a nonnegative integer")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst_overall = 0.0
    for idx in range(args.samples):
        inst = draw_instance(rng, sigma_invariant=(idx % 5 == 4), min_xy=1e-3)
        worst, sigma = _crosscheck_one(inst.group(), inst.parameter(), inst.x, inst.y, args.m_max)
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
    _emit(args, ["sample", "n", "k_re", "k_im", "max_rel_disc", "sigma_checked"], rows, out)
    if worst_overall > args.tol:
        print(
            f"check-failure: max cross-method discrepancy {worst_overall:.3e} "
            f"exceeds tolerance {args.tol:.3e}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace, out) -> int:
    G = make_group(args.n)
    P = ParameterK(args.k, args.n)
    em_rep = check_em_bound(G, P, args.x, args.y, args.m_max, args.nu)
    ek_rep = check_ek_bound(G, P, args.x, args.y, max(1, args.nu))
    rows = [
        ["component_bound_max_ratio", float(em_rep.max_ratio), 1.0 + 1e-9, int(em_rep.passed)],
        ["kernel_bound_ratio", float(ek_rep.ratio), float(ek_rep.constant), int(ek_rep.passed)],
    ]
    _emit(args, ["check", "value", "limit", "passed"], rows, out)
    if not (em_rep.passed and ek_rep.passed):
        print("check-failure: a growth bound was violated", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_phi(args: argparse.Namespace, out) -> int:
    G = make_group(args.n)
    P = ParameterK(args.k, args.n)
    orbit = orbit_pairings(G, args.x, args.y)
    S = a_coeffs(P, orbit, args.m_max)
    rows = [
        [p, float(S.phi[p].real), float(S.phi[p].imag)] for p in range(S.order + 1)
    ]
    _emit(args, ["p", "re", "im"], rows, out)
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

    def common(p):
        p.add_argument("--n", type=int, required=True, help="dihedral order parameter")
        p.add_argument("--k", type=str, required=True, help="parameter k: 're' or 're,im'")
        p.add_argument("--x", type=str, required=True)
        p.add_argument("--y", type=str, required=True)
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p_em = sub.add_parser("em", help="table of components E_0..E_m")
    common(p_em)
    p_em.add_argument("--m-max", type=int, default=10)
    p_em.add_argument(
        "--method",
        choices=("recurrence", "genseries", "oracle", "sigma"),
        default="recurrence",
    )
    p_em.set_defaults(seed=0, func=cmd_em)

    p_k = sub.add_parser("kernel", help="full kernel value")
    common(p_k)
    p_k.add_argument("--method", choices=("series", "integral"), default="series")
    p_k.set_defaults(seed=0, func=cmd_kernel)

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
    p_cc.set_defaults(method="auto", func=cmd_crosscheck)

    p_b = sub.add_parser("bounds", help="component/kernel growth-bound checks")
    common(p_b)
    p_b.add_argument("--m-max", type=int, default=60)
    p_b.add_argument("--nu", type=int, default=1)
    p_b.set_defaults(method="auto", seed=0, func=cmd_bounds)

    p_phi = sub.add_parser("phi", help="generating-function coefficients")
    common(p_phi)
    p_phi.add_argument("--pmax", dest="m_max", metavar="PMAX", type=int, default=40)
    p_phi.set_defaults(method="auto", seed=0, func=cmd_phi)

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _PARSER.parse_args(argv)
    try:
        args.x = _parse_point(args.x, allow_complex=False) if args.x else None
        args.y = _parse_point(args.y, allow_complex=True) if args.y else None
        args.k = _parse_complex(args.k)
        return args.func(args, out)
    except tuple(_EXIT_CODES) as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


def entrypoint() -> None:
    sys.exit(main())
