"""Layer timings on fixed instances: the baseline table of ROADMAP.md,
regenerated with this harness.

    python3 bench/baseline.py

Run from the repository root.  Each row is the best of several wall-time
repeats, single-threaded.  The CLI rows and the cold oracle rows run a
fresh interpreter each time.  Prints a markdown table.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _env(threads: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DUNKL_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if threads is not None:
        env["DUNKL_THREADS"] = threads
    return env


def cli_seconds(args, repeats: int, threads: str | None = None) -> float:
    cmd = [sys.executable, "-m", "dunkl_dihedral", *args]
    return best_of(lambda: subprocess.run(cmd, env=_env(threads), cwd=ROOT, check=True, capture_output=True), repeats)


def fresh_seconds(setup: str, stmt: str, repeats: int) -> float:
    """Best time of ``stmt`` in fresh interpreters, where every cache of the
    program is cold, after ``setup``."""
    code = f"import time\n{setup}\nt0 = time.perf_counter()\n{stmt}\nprint(time.perf_counter() - t0)"
    return min(
        float(subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(repeats)
    )


def main() -> int:
    os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    sys.path.insert(0, str(SRC))
    import numpy as np

    from dunkl_dihedral import (
        ParameterK, a_coeffs, delta_effective, ek_integral, ek_series, em_sequence,
        make_group, orbit_pairings,
    )

    G3, G5 = make_group(3), make_group(5)
    P3 = ParameterK(0.5, 3)
    x, y = np.array([0.9, 0.3]), np.array([0.4, -0.7])
    orbit3 = orbit_pairings(G3, x, y)
    oracle_setup = (
        "import numpy as np\n"
        "from dunkl_dihedral import ParameterK, make_group, oracle_em\n"
        "G, P = make_group(3), ParameterK(0.5, 3)\n"
        "x, y = np.array([0.9, 0.3]), np.array([0.4, -0.7])"
    )

    def oracle_table(M):
        return fresh_seconds(oracle_setup, f"[oracle_em(G, P, x, y, m) for m in range({M + 1})]", 3)

    rng = np.random.default_rng(0)
    points = rng.uniform(-1.0, 1.0, size=(1000, 2, 2))
    ms = 1e3
    rows = [
        ("`orbit_pairings`, n=5", best_of(lambda: orbit_pairings(G5, x, y), 200) * ms, "ms"),
        ("`delta_effective`, uncached", best_of(lambda: delta_effective.__wrapped__(P3), 50) * ms, "ms"),
        ("`em_sequence`, M=100", best_of(lambda: em_sequence(G3, P3, x, y, 100), 20) * ms, "ms"),
        ("`em_sequence`, M=165", best_of(lambda: em_sequence(G3, P3, x, y, 165), 20) * ms, "ms"),
        ("`a_coeffs`, order 40", best_of(lambda: a_coeffs(P3, orbit3, 40), 10) * ms, "ms"),
        ("`a_coeffs`, order 200", best_of(lambda: a_coeffs(P3, orbit3, 200), 3) * ms, "ms"),
        ("`a_coeffs`, order 400", best_of(lambda: a_coeffs(P3, orbit3, 400), 2) * ms, "ms"),
        ("oracle table, cold caches, M=12", oracle_table(12) * ms, "ms"),
        ("oracle table, cold caches, M=30", oracle_table(30) * ms, "ms"),
        ("oracle table, cold caches, M=60", oracle_table(60) * ms, "ms"),
        ("`ek_series`, tol 1e-12, one point", best_of(lambda: ek_series(G3, P3, x, y, 1e-12), 50) * ms, "ms"),
        ("`ek_series`, 1000 points in a Python loop",
         best_of(lambda: [ek_series(G3, P3, p[0], p[1], 1e-12) for p in points], 2) * ms, "ms"),
        ("`ek_integral`, n=3, k=1, tol 1e-8",
         best_of(lambda: ek_integral(G3, ParameterK(1.0, 3), x, y, 1e-8), 10) * ms, "ms"),
        ("`ek_integral`, n=3, k=0.2, tol 1e-8",
         best_of(lambda: ek_integral(G3, ParameterK(0.2, 3), x, y, 1e-8), 10) * ms, "ms"),
        ("CLI `em` (end to end, mostly import)",
         cli_seconds(["em", "--n", "3", "--k", "0.5", "--x", "1,0", "--y", "1,1"], 5), "s"),
        ("CLI `crosscheck`, 200 samples, `DUNKL_THREADS`=1",
         cli_seconds(["crosscheck", "--seed", "42", "--samples", "200"], 2, "1"), "s"),
        ("CLI `crosscheck`, 200 samples, `DUNKL_THREADS`=4",
         cli_seconds(["crosscheck", "--seed", "42", "--samples", "200"], 2, "4"), "s"),
    ]
    print("| layer / command | time |\n|---|---|")
    for label, value, unit in rows:
        print(f"| {label} | {value:.3g} {unit} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
