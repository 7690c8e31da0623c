"""Benchmark of the dunkl_dihedral CLI, called in-process through
``dunkl_dihedral.cli.main(argv, out=...)``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` times whole rounds of the workload's ops for S seconds after
one untimed warm-up round and reports the end-to-end metrics, with op
times scaled by a fixed reference task (see ``_op_times``).  ``--trace 1``
reports per-layer metrics instead: call and work counts over the warm-up
round, self times per op over the timed rounds that ran with spans, and
the tracing overhead against the rounds in between, which ran without.
Every output is checked after timing ends.  The last line of stdout is the
JSON result; the line before it records the machine and versions.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
# What reference_task takes on the machine the benchmark was tuned on
# (2 vCPUs, Linux 6.18, Python 3.11.7, numpy 2.4.6), median over runs.
REFERENCE_S = 0.010
RSS_AFTER_OPS = 400
PROBE_TIMEOUT_S = 60
# One thread per run: no sweep workers, no multi-threaded BLAS.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _environment() -> dict:
    import mpmath
    import numpy

    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "commit": _commit(),
    }


class Runner:
    """Calls cli.main and keeps what each call returned."""

    def __init__(self, cli):
        self.cli = cli
        self.errors = []  # tracebacks turned into failed ops

    def call(self, argv) -> tuple:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv, out=out)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed op, not a failed benchmark
            rc = -1
            self.errors.append(f"{' '.join(argv)}: {exc!r}")
        return rc, out.getvalue(), time.perf_counter() - t0

    def run_cli(self, argv) -> tuple:
        rc, text, _ = self.call(argv)
        return rc, text

    def rounds(self, workload, first: int, seconds: float) -> dict:
        """Whole rounds from ``first`` on, until ``seconds`` have passed.
        The reference task runs before each round; its time and the peak
        resident set after the round are kept with the round."""
        rounds, times, reference, rss_kb = [], [], [], []
        t_start = time.perf_counter()
        r = first
        while True:
            reference.append(reference_seconds())
            ops = workload.round_ops(r)
            results = []
            for op in ops:
                rc, text, dt = self.call(op.argv)
                results.append((rc, text))
                times.append(dt)
            rounds.append((ops, results))
            rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # kB on Linux
            r += 1
            if time.perf_counter() - t_start >= seconds:
                break
        return {"rounds": rounds, "times": times, "reference": reference, "rss_kb": rss_kb}


def reference_task() -> None:
    """Fixed work in the program's mix: interpreter loops, arithmetic on
    small complex numpy arrays, and an argparse parser built and used."""
    import numpy as np

    acc = 0
    for i in range(30000):
        acc += i * i % 7
    state = np.ones(8, dtype=complex)
    diag = np.linspace(0.1, 0.9, 8) + 0.3j
    for m in range(400):
        step = diag * state
        state = step + np.sum(step) / (m + 1)
        state = state / np.max(np.abs(state))
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    for i in range(5):
        p = sub.add_parser(f"c{i}")
        for j in range(6):
            p.add_argument(f"--a{j}", type=float, default=0.0)
    parser.parse_args(["c3", "--a1", "2.5"])


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


def _setup_seconds(workload) -> float:
    """Median over fresh interpreters of import + the workload's first op."""
    env = {k: v for k, v in os.environ.items() if k != "DUNKL_THREADS"}
    argv = json.dumps(workload.round_ops(0)[0].argv)
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), argv],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, env=env, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["rc"] != 0:
            raise RuntimeError(f"set-up probe op exited {result['rc']}")
        samples.append(result["seconds"])
    return statistics.median(samples)


def _verdicts(workload, runner, warmup, loops) -> tuple:
    """Check the warm-up round against the references, then every timed op:
    repeated rounds must reproduce the warm-up bytes.  Returns (attempted,
    failed, wrong, messages)."""
    ops0, results0 = warmup["rounds"][0]
    first = workload.check(ops0, results0, runner.run_cli)
    attempted = failed = 0
    messages = [f"warm-up {' '.join(op.argv)}: {v}" for op, v in zip(ops0, first) if v]
    wrong = len(messages)
    for loop in loops:
        for ops, results in loop["rounds"]:
            if workload.repeats:
                verdicts = [
                    v if res == res0 else "output differs from the warm-up round"
                    for v, res, res0 in zip(first, results, results0)
                ]
            else:
                verdicts = workload.check(ops, results, runner.run_cli)
            for op, (rc, _), v in zip(ops, results, verdicts):
                attempted += 1
                if v is not None:
                    wrong += 1
                    messages.append(f"{' '.join(op.argv)}: {v}")
                if v is not None or rc != 0:
                    failed += 1
    return attempted, failed, wrong, messages


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _op_times(loop) -> list:
    """Each distinct op's time: the median over its repetitions of
    wall time * REFERENCE_S / (the reference task's time before its round).

    The speed of the machine this was tuned on drifts by a quarter within
    seconds, and a whole 20 s run can fall in a slow spell.  The reference
    task slows with it, so the ratio holds still where the wall time does
    not.  Ops that never repeat, as in crosscheck, keep their single time."""
    per_op = {}
    flat = iter(loop["times"])
    for (ops, _), ref in zip(loop["rounds"], loop["reference"]):
        for op in ops:
            per_op.setdefault(tuple(op.argv), []).append(next(flat) * REFERENCE_S / ref)
    return [statistics.median(ts) for ts in per_op.values()]


def _peak_rss_kb(loop) -> int:
    """Peak resident set once RSS_AFTER_OPS timed ops have finished, or at
    the end of the loop if it ran fewer.  crosscheck's caches grow with
    every op, so a reading at a fixed op count does not move with the
    machine's speed."""
    done = 0
    for (ops, _), kb in zip(loop["rounds"], loop["rss_kb"]):
        done += len(ops)
        if done >= RSS_AFTER_OPS:
            return kb
    return loop["rss_kb"][-1]


def _end_to_end(loop, setup_s, passed_share) -> dict:
    import numpy as np

    peak_kb = _peak_rss_kb(loop)
    times_ms = np.array(_op_times(loop)) * 1e3
    return {
        "ops_per_s": _metric(passed_share * len(times_ms) * 1e3 / float(times_ms.sum()), "op/s"),
        "op_p50_ms": _metric(float(np.percentile(times_ms, 50)), "ms"),
        "op_p90_ms": _metric(float(np.percentile(times_ms, 90)), "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


def _raw(loop) -> dict:
    """Wall-time figures without the reference task, for the record."""
    import numpy as np

    times_ms = np.array(loop["times"]) * 1e3
    return {
        "ops_per_s": len(times_ms) * 1e3 / float(times_ms.sum()),
        "op_p50_ms": float(np.percentile(times_ms, 50)),
        "op_p90_ms": float(np.percentile(times_ms, 90)),
        "reference_ms": statistics.median(loop["reference"]) * 1e3,
    }


def _per_layer(tracer, counts, traced, untraced, workload_name, seed) -> dict:
    ops = len(traced["times"])
    out = {key: _metric(int(v), "count") for key, v in counts.items()}
    for name, self_ns in zip(tracer.names, tracer.self_ns()):
        out[f"{name}.self_ms"] = _metric(float(self_ns) / 1e6 / ops, "ms")
    plain = len(untraced["times"]) / sum(untraced["times"])
    with_spans = ops / sum(traced["times"])
    out["trace.untraced_ops_per_s"] = _metric(plain, "op/s")
    out["trace.traced_ops_per_s"] = _metric(with_spans, "op/s")
    out["trace.overhead_pct"] = _metric(100.0 * (plain - with_spans) / plain, "%")
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.save(SPANS_DIR / f"spans-{workload_name}-seed{seed}.npz")
    return out


def _traced_rounds(runner, workload, seconds) -> tuple:
    """Warm-up round with spans (its counts are the per-round counts), then
    rounds for ``seconds``, alternately without and with spans, so that a
    slow spell of the machine weighs on both sides of the overhead alike."""
    from spans import WORK, Tracer

    tracer = Tracer()
    tracer.install()
    misses = tracer.cache_misses("kernel.delta_effective")
    warmup = runner.rounds(workload, 0, 0.0)
    misses = tracer.cache_misses("kernel.delta_effective") - misses
    tracer.remove()
    counts = {f"{name}.calls": c for name, c in zip(tracer.names, tracer.calls())}
    counts.update({f"{name}.{WORK[name][0]}": v for name, v in tracer.work.items()})
    counts["kernel.delta_effective.misses"] = misses
    tracer.clear()

    loops = [{"rounds": [], "times": [], "reference": []} for _ in range(2)]
    t_end = time.perf_counter() + seconds
    r = 1
    while time.perf_counter() < t_end:
        for loop in loops:
            traced = loop is loops[1]
            if traced:
                tracer.install()
            part = runner.rounds(workload, r, 0.0)
            if traced:
                tracer.remove()
            for key in loop:
                loop[key] += part[key]
            r += 1
    return warmup, loops, tracer, counts


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dunkl_dihedral" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("DUNKL_THREADS", None)
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    import dunkl_dihedral
    from dunkl_dihedral import cli
    from workloads import WORKLOADS

    if Path(dunkl_dihedral.__file__).resolve().parent != SRC / "dunkl_dihedral":
        print(f"error: imported dunkl_dihedral from {dunkl_dihedral.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    runner = Runner(cli)
    setup_s = _setup_seconds(workload) if args.trace == 0 else None

    stderr, sys.stderr = sys.stderr, open(os.devnull, "w")  # the CLI's diagnostics
    try:
        if args.trace == 0:
            warmup = runner.rounds(workload, 0, 0.0)
            loops = [runner.rounds(workload, 1, args.seconds)]
        else:
            warmup, loops, tracer, counts = _traced_rounds(runner, workload, args.seconds)
    finally:
        sys.stderr.close()
        sys.stderr = stderr

    attempted, failed, wrong, messages = _verdicts(workload, runner, warmup, loops)
    if args.trace == 0:
        metrics = _end_to_end(loops[0], setup_s, 1.0 - failed / attempted)
    else:
        metrics = _per_layer(tracer, counts, loops[1], loops[0], workload.name, args.seed)

    for line in (messages + runner.errors)[:20]:
        print(f"check: {line}", file=sys.stderr)
    record = {"env": _environment(), "workload": workload.name, "seed": args.seed}
    if args.trace == 0:
        record["wall"] = _raw(loops[0])
    print(json.dumps(record))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
