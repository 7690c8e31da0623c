"""Command-line front end: batch component tables, kernel values,
cross-method validation, growth-bound checks and generating-function
coefficients, in CSV or JSON.

Exit codes: 0 success, 1 check failure, 2 domain error, 3 convergence error.
Data goes to stdout, diagnostics to stderr.  Output is deterministic for a
fixed argument list (including --seed, a nonnegative integer).  The
crosscheck sweep's ``max_rel_disc`` column is the measure ``_crosscheck_one``
defines: scaled by a^m / |(1+gamma)_m| where components nearly vanish.

The parsers are built once, at import, and with them one option table per
subcommand: each option string's store action, the defaults and the
required options.  A subcommand's arguments are read by its option table
when every token is an exact option string with a value that passes its
type and choices (--opt=value, or --opt value with a value that does not
start with '-'), and otherwise by that subcommand's own parser alone.  The
table never writes a message: every usage, help and error byte comes from
argparse.  The top-level parser reads an empty list, --help, --version and
an unknown command, and reports leftover arguments.  ``main`` converts --k,
--x and --y in place and passes the namespace to a ``cmd_*`` function.
Each component route returns the whole table E_0..E_M from one call with the
signature (G, P, x, y, M) -> complex ndarray: ``recurrence.em_sequence``,
``series.em_genseries``, ``polyalg.oracle_em`` and ``series.em_closed_sigma``
(mirror-axis arguments only).  ``_em_values`` is the one dispatcher over them.
``dihedral.orbit_pairings`` remembers its last result for the same point
arrays, so a crosscheck sample computes its orbit pairings once: in
``draw_instance``, whose last orbit the routes of the sample then reuse.
So the sweep runs a sample's recurrence, genseries and sigma routes as soon
as it is drawn (``_crosscheck_one``), and the oracle, which reads the points
by its own path and stays independent of them, once over all samples after
the last draw: ``polyalg.oracle_tables`` builds the samples' intertwining
matrices together, one degree at a time, with the bits of ``oracle_em``.
The refusal reported is the first in (sample, route) order, as when each
sample ran all its routes before the next was drawn.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import NamedTuple

import numpy as np

from .dihedral import (
    MAX_N,
    DihedralGroup,
    OrbitPairings,
    PlanePoint,
    is_sigma_invariant,
    make_group,
    orbit_pairings,
)
from .errors import ConvergenceError, DomainError
from .kernel import _log_abs_pochhammer, _require_tol, check_ek_bound, check_em_bound
from .kernel import ek_integral, ek_series
from .polyalg import ParameterK, oracle_em, oracle_tables, require_degree
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
    if not allow_complex and np.any(pt.imag != 0):
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


def _emit(
    args: argparse.Namespace, header: list[str], rows: list, out, line: str | list[str]
) -> None:
    """Write the table as JSON, or as CSV with the % format `line` of every
    row, or with a list of one format line per row where the rows differ in
    shape.  A command knows the shape of its rows, so no cell's type is
    looked at: "%.17g" takes a float cell and writes what f"{v:.17g}" writes,
    "%d" an int and "%s" any other cell, as str(v).  Every cell is a number
    or a fixed identifier, never one that needs CSV quoting, so the text is
    what csv.writer writes.  The lines of all rows take all cells in one %
    call."""
    if args.fmt == "json":
        payload = {
            "meta": _meta(args),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        out.write(json.dumps(payload) + "\n")
    else:
        body = line * len(rows) if isinstance(line, str) else "".join(line)
        out.write(",".join(header) + "\n" + body % tuple(chain.from_iterable(rows)))


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
    rows = list(zip(range(len(values)), values.real.tolist(), values.imag.tolist()))
    _emit(args, ["m", "re", "im"], rows, out, "%d,%.17g,%.17g\n")
    return EXIT_OK


def cmd_kernel(args: argparse.Namespace, out) -> int:
    G, P = make_group(args.n), ParameterK(args.k, args.n)
    if args.method == "integral":
        res = ek_integral(G, P, args.x, args.y, args.tol)
    else:
        res = ek_series(G, P, args.x, args.y, args.tol)
    counts = ["" if count is None else count for count in (res.terms_used, res.nodes_used)]
    value = complex(res.value)
    row = [value.real, value.imag, res.method, *counts, float(res.tail_estimate)]
    header = ["value_re", "value_im", "method", "terms_used", "nodes_used", "tail_estimate"]
    _emit(args, header, [row], out, "%.17g,%.17g,%s,%s,%s,%.17g\n")
    return EXIT_OK


class _Sample(NamedTuple):
    """A crosscheck sample whose oracle table is still to come: the
    oracle's arguments, the orbit pairings, the routes that apply, the
    tables of the others (None in the oracle's place), and the refusal of a
    route that runs after the oracle, raised once the oracle has run."""

    member: tuple[DihedralGroup, ParameterK, PlanePoint, PlanePoint]
    orbit: OrbitPairings
    methods: list[str]
    tables: list[np.ndarray | None]
    refusal: Exception | None


def _crosscheck_one(
    G: DihedralGroup, P: ParameterK, x: PlanePoint, y: PlanePoint, m_max: int
) -> _Sample:
    """A sample's routes in _methods' order, all but the oracle, which
    cmd_crosscheck runs over all samples at once: a refusal from a route
    before the oracle's place is raised, one from a route after it kept."""
    orbit = orbit_pairings(G, x, y)
    methods = _methods(orbit)
    place = methods.index("oracle")
    tables = [_em_values(method, G, P, x, y, m_max) for method in methods[:place]] + [None]
    refusal = None
    try:
        tables += [_em_values(method, G, P, x, y, m_max) for method in methods[place + 1 :]]
    except tuple(_EXIT_CODES) as exc:
        refusal = exc
    return _Sample((G, P, x, y), orbit, methods, tables, refusal)


def _max_disc(sample: _Sample, oracle: np.ndarray, m_max: int) -> float:
    """Worst discrepancy |u_m - v_m| / max(|u_m|, |v_m|, a^m / |(1+gamma)_m|)
    between the sample's tables u, v, the oracle's among them.  The third
    term is the a-priori size a^m / |(1+gamma)_m|, which sets the rounding
    error where E_m passes near zero."""
    tables = np.array([oracle if table is None else table for table in sample.tables])
    m = np.arange(m_max + 1)
    gamma = sample.member[1].gamma
    scale = np.exp(m * np.log(sample.orbit.a_bound) - _log_abs_pochhammer(gamma, m_max))
    u, v = tables[:, None, :], tables[None, :, :]
    denom = np.maximum(np.maximum(np.abs(u), np.abs(v)), scale)
    disc = np.divide(np.abs(u - v), denom, out=np.zeros(denom.shape), where=denom > 0)
    return float(np.max(disc))


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
        _emit(args, ["method", "m", "re", "im"], rows, out, "%s,%d,%.17g,%.17g\n")
        return EXIT_OK

    _require_tol(args.tol)
    if args.seed < 0:
        raise DomainError("the sweep seed must be a nonnegative integer")
    if args.samples < 0:
        raise DomainError("the sweep sample count must be a nonnegative integer")
    # Each sample runs its routes but the oracle as soon as it is drawn, so
    # they share the orbit pairings draw_instance leaves remembered; the
    # oracle then runs once over every sample drawn.  The first refusal in
    # (sample, route) order is the one raised: the sweep stops at a sample
    # with a refusal, the oracle raises any of its own for the samples up to
    # it, and only then is the sample's refusal raised.
    rng = np.random.default_rng(args.seed)
    samples, refusal = [], None
    for idx in range(args.samples):
        try:
            inst = draw_instance(rng, sigma_invariant=(idx % 5 == 4), min_xy=1e-3)
            sample = _crosscheck_one(inst.group(), inst.parameter(), inst.x, inst.y, args.m_max)
        except tuple(_EXIT_CODES) as exc:
            refusal = exc
            break
        samples.append(sample)
        if sample.refusal is not None:
            refusal = sample.refusal
            break
    oracle = oracle_tables([sample.member for sample in samples], args.m_max)
    if refusal is not None:
        raise refusal
    rows = []
    worst_overall = 0.0
    for idx, (sample, table) in enumerate(zip(samples, oracle)):
        G, P = sample.member[:2]
        worst = _max_disc(sample, table, args.m_max)
        worst_overall = max(worst_overall, worst)
        sigma = int("sigma" in sample.methods)
        rows.append([idx, G.n, float(P.k.real), float(P.k.imag), float(worst), sigma])
    rows.append(["overall", "", "", "", float(worst_overall), ""])
    lines = ["%d,%d,%.17g,%.17g,%.17g,%d\n"] * len(samples) + ["%s,%s,%s,%s,%.17g,%s\n"]
    _emit(args, ["sample", "n", "k_re", "k_im", "max_rel_disc", "sigma_checked"], rows, out, lines)
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
    _emit(args, ["check", "value", "limit", "passed"], rows, out, "%s,%.17g,%.17g,%d\n")
    if not (em_rep.passed and ek_rep.passed):
        print("check-failure: a growth bound was violated", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_phi(args: argparse.Namespace, out) -> int:
    G = make_group(args.n)
    P = ParameterK(args.k, args.n)
    orbit = orbit_pairings(G, args.x, args.y)
    require_degree(args.m_max)
    S = a_coeffs(P, orbit, args.m_max)
    rows = [
        [p, float(S.phi[p].real), float(S.phi[p].imag)] for p in range(S.order + 1)
    ]
    _emit(args, ["p", "re", "im"], rows, out, "%d,%.17g,%.17g\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


class _OptionTable:
    """A subcommand's store options, read without argparse in the one shape
    of argument list whose namespace is plain: every token an exact option
    string with its value, as --opt=value or --opt value.  Built at import
    from the actions that add_argument returned; it sets the parser-level
    defaults on the parser and reads every default back by get_default.
    String defaults pass through the action's type, as argparse converts
    them."""

    def __init__(self, parser: argparse.ArgumentParser, actions: list, **defaults):
        parser.set_defaults(**defaults)
        self.actions = {option: action for action in actions for option in action.option_strings}
        dests = [action.dest for action in actions] + list(defaults)
        self.defaults = {dest: parser.get_default(dest) for dest in dests}
        for action in actions:
            if isinstance(action.default, str) and action.type is not None:
                self.defaults[action.dest] = action.type(action.default)
        self.required = {action.dest for action in actions if action.required}

    def read(self, tokens: list[str]) -> argparse.Namespace | None:
        """The namespace the subcommand's parser gives for tokens, or None
        where argparse must read them: an option string that is not exact
        (-h, --, an abbreviation, a stray token), an empty value or "--", a
        separate value that starts with '-', a value that fails its type or
        choices, or a required option missing.  A repeated option keeps its
        last value, each one checked."""
        actions, values = self.actions, {}
        tokens = iter(tokens)
        for token in tokens:
            option, eq, text = token.partition("=")
            action = actions.get(option)
            if action is None:
                return None
            if not eq:
                text = next(tokens, "")
                if text[:1] == "-":
                    return None
            if not text or text == "--":
                return None
            try:
                value = action.type(text) if action.type is not None else text
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        if not self.required <= values.keys():
            return None
        return argparse.Namespace(**(self.defaults | values))


def _build_parser() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser], dict[str, _OptionTable]
]:
    """The top-level parser, each subcommand's own parser by name, and each
    subcommand's option table by name."""
    parser = argparse.ArgumentParser(
        prog="dunkl",
        description="Dunkl kernel and component evaluation for dihedral groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=False):
        # --tol only where a tolerance is read: the kernel routes
        return [
            p.add_argument(
                "--n", type=int, required=True, help=f"dihedral order parameter, 2 to {MAX_N}"
            ),
            p.add_argument("--k", type=str, required=True, help="parameter k: 're' or 're,im'"),
            p.add_argument("--x", type=str, required=True),
            p.add_argument("--y", type=str, required=True),
            *([p.add_argument("--tol", type=float, default=1e-10)] if tol else []),
            p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv"),
        ]

    p_em = sub.add_parser("em", help="table of components E_0..E_m")
    t_em = _OptionTable(p_em, [
        *common(p_em),
        p_em.add_argument("--m-max", type=int, default=10),
        p_em.add_argument(
            "--method",
            choices=("recurrence", "genseries", "oracle", "sigma"),
            default="recurrence",
        ),
    ], seed=0, tol=None, func=cmd_em)

    p_k = sub.add_parser("kernel", help="full kernel value")
    t_k = _OptionTable(p_k, [
        *common(p_k, tol=True),
        p_k.add_argument("--method", choices=("series", "integral"), default="series"),
    ], seed=0, func=cmd_kernel)

    p_cc = sub.add_parser("crosscheck", help="cross-method agreement sweep")
    t_cc = _OptionTable(p_cc, [
        p_cc.add_argument("--n", type=int, default=0),
        p_cc.add_argument("--k", type=str, default="0"),
        p_cc.add_argument("--x", type=str, default=None),
        p_cc.add_argument("--y", type=str, default=None),
        p_cc.add_argument("--seed", type=int, required=True),
        p_cc.add_argument("--samples", type=int, default=50),
        p_cc.add_argument("--m-max", type=int, default=12),
        p_cc.add_argument("--tol", type=float, default=1e-8),
        p_cc.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv"),
    ], method="auto", func=cmd_crosscheck)

    p_b = sub.add_parser("bounds", help="component/kernel growth-bound checks")
    t_b = _OptionTable(p_b, [
        *common(p_b),
        p_b.add_argument("--m-max", type=int, default=60),
        p_b.add_argument("--nu", type=int, default=1),
    ], method="auto", seed=0, tol=None, func=cmd_bounds)

    p_phi = sub.add_parser("phi", help="generating-function coefficients")
    t_phi = _OptionTable(p_phi, [
        *common(p_phi),
        p_phi.add_argument("--pmax", dest="m_max", metavar="PMAX", type=int, default=40),
    ], method="auto", seed=0, tol=None, func=cmd_phi)

    return (
        parser,
        {"em": p_em, "kernel": p_k, "crosscheck": p_cc, "bounds": p_b, "phi": p_phi},
        {"em": t_em, "kernel": t_k, "crosscheck": t_cc, "bounds": t_b, "phi": t_phi},
    )


_PARSER, _SUBPARSERS, _OPTION_TABLES = _build_parser()


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The namespace _PARSER.parse_args(argv) gives, less its command field
    where argv starts with a subcommand: that subcommand's option table
    reads the rest, and where it declines, the subcommand's parser does,
    and _PARSER reports any leftovers with the bytes it would write."""
    argv = sys.argv[1:] if argv is None else argv
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args = _OPTION_TABLES[argv[0]].read(argv[1:])
    if args is not None:
        return args
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parse_args(argv)
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
