"""Byte-level regression pins: the sha256 of the exit code and stdout of a
fixed list of CLI calls, and of the exit code, stdout and stderr of a
second list and of benchmark rounds.  The digests were recorded with numpy
2.4 on x86-64; a change that is meant to leave every output byte alone must
leave them alone too.  Every test here carries the ``digest`` marker, so
``pytest -m digest`` runs the byte-identity gate alone."""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from dunkl_dihedral.cli import main

pytestmark = pytest.mark.digest

_EM = "em --n 3 --k=0.4,0.2 --x=0.9,0 --m-max 60"
_POINT = "--n 3 --k=0.4,0.2 --x=0.9,0.3"

DIGESTS = {
    f"{_EM} --y=0.5,0.8 --method recurrence":
        "8da43ec6cf47418a67524d7f4ccf3a3cc6be1bd9180af8537f1506558e627751",
    f"{_EM} --y=0.5,0.8 --method genseries":
        "e6a6e2bf4eede83f5348a100139190a2876478df9848f163c26c771263a531c1",
    f"{_EM} --y=0.5,0.8 --method oracle":
        "cccca2677db83b659b7c772aeead74311d2432264c6fcf1a80de0403b0b55264",
    f"{_EM} --y=0.5,0.8 --method sigma":
        "b81ef0a7d50a4fbfe73c10a1763a34673e1f4dee14bd0e5af48b211afd19be5d",
    f"{_EM} --y=0.5,0.8,0.1,-0.2 --method recurrence":
        "8e680f9829e50fb2417c8aa5f36e998f34928ba637f532c1a12d20c77d14c8dc",
    f"{_EM} --y=0.5,0.8,0.1,-0.2 --method genseries":
        "8cb45d35babbbeafcce9dab7fabdbb980af29f9b475e47f5711a1475dfb7dce4",
    f"{_EM} --y=0.5,0.8,0.1,-0.2 --method oracle":
        "68cf13599ecf88fd8a0063232024682205c53bd6153925982c13e77b88fb0e1d",
    f"{_EM} --y=0.5,0.8,0.1,-0.2 --method sigma":
        "1ea50fcc004691bf8a77ef0b84f0d0d290b3f8b5762e8626939fdd695438fdfd",
    # em takes no --tol, so its JSON meta writes "tol": null
    f"{_EM} --y=0.5,0.8 --method sigma --format json":
        "8d6affeeb8880104deb670479ae6e6d2411db60beb1258d6d78b4b1ee6c6c124",
    f"em {_POINT} --y=-1.1,0.6 --m-max 60 --method recurrence":
        "2fd03eb2b04b9252f2baf79e7d9355a2f31205d8e5d57df9716c1942e011284c",
    f"em {_POINT} --y=-1.1,0.6 --m-max 60 --method genseries":
        "23ef1e3b7e005363ca0303d247d04fa51cd4c10b9fc0bc273035df0d6af9743e",
    f"kernel {_POINT} --y=0.5,0.8 --method series --tol 1e-12":
        "c208e1125c3b810a24062d25a8d076ab60ac4f705b1828371b9a0bd14692190d",
    f"kernel {_POINT} --y=0.5,0.8,0.1,-0.2 --method series --tol 1e-12":
        "e3beb4372a1218e104eb1d1db54effebb7fc7156b04c75dabcf871927c87bf09",
    # one pass at 64 nodes on one panel; the values are within 6.9e-17 and
    # 2.2e-16 of the series route's at tol 1e-15
    f"kernel {_POINT} --y=0.5,0.8 --method integral --tol 1e-8":
        "d347b67ec4b2478bb67930cab0e545e767f8f03630f7b11e3af2829acdb8862b",
    f"kernel {_POINT} --y=0.5,0.8,0.1,-0.2 --method integral --tol 1e-8":
        "b2d92e54578422f1d14087c968b75281907e5685c47ac89215bd031ddefac6b1",
    "crosscheck --seed 5 --samples 10":
        "68fb8db7d9f9fbdb1bb4a540bdfd0bfad4ae60fe81c0a438f5a9f586f466e4d0",
    # V built past degree 12, fresh k per sample
    "crosscheck --seed 3 --samples 5 --m-max 40":
        "f4bb884a5b95836279c5da257e6475029adf2a004fde1028b55813322db45212",
    # one contour pass at 64 nodes; the value is within 8.9e-16 (one unit in
    # its last place) of mpmath
    "kernel --n 2 --k=0.5,0.0 --x=1.1466295248026057,0.0 --y=1.9023276203061634,-8.013109575481606"
    " --method integral --tol 1e-08":
        "018bc04304154dc1f82849cf5d761e82cbacef115e71a46db9f72b9b711120ba",
    # one pass at 64 nodes on 2 panels (split at rho/2 it took a second pass,
    # at 128 nodes on 4); the value is within 4.5e-16 of the series route's
    # at tol 1e-15
    "kernel --n 4 --k=1.2057506716904671,-0.032065047156279225"
    " --x=-0.5909027195420594,-0.66472316369768 --y=-0.9805216493835016,-0.2196947764694137"
    " --method integral --tol 1e-12":
        "c4be344ea50af61fb9791b2f9cbb5a64f5351b1e06c1a1ba4074964d0acdeb23",
    f"phi {_POINT} --y=0.5,0.8 --pmax 40":
        "3932cde866876eb400822adb7e77f44354439db81700c89d1daff66aba77691e",
    # above a_coeffs' dense crossover: the structured orbit-sum step, bit for
    # bit; within 1.8e-16 of max|phi| of a 50-digit convolution recursion
    "phi --n 24 --k=0.4,0.2 --x=0.9,0.3 --y=0.5,0.8 --pmax 60":
        "546f50a9a84483eccb4b60262a1c473dc5ff89331c9cb1bb2a6dcff2e72ac380",
    f"bounds {_POINT} --y=0.5,0.8 --m-max 30":
        "11e45e833ccc48cc7f94e5b7d7ba4dafd87166e7e62239014796d37354c9946e",
}


def _digest(argv: str) -> str:
    out = io.StringIO()
    code = main(argv.split(), out=out)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_stdout_bytes_are_pinned(argv):
    assert _digest(argv) == DIGESTS[argv]


# The orbit recurrence's step, on the series route and the recurrence
# route: Re(gamma) < 0 at n = 5, 7 and 1000 (gamma = -0.75, -1.05, -0.15),
# complex y, a degree-40 table at n = 1000, and three refusals with their
# messages: an argument pair refused before any step (exit 3), a rounding
# floor refused after the steps (exit 3), and a table that overflows at
# degree 394 (exit 2).  Last, the integral route: a value after passes at
# 128 and 256 nodes (exit 0), within 2.6e-16 of the series route's at tol
# 1e-15, and a first pass at 256 nodes refused on its rounding floor (exit 3).
_SERIES = "kernel --method series --tol 1e-12 --x=0.9,0.3"

STEP_DIGESTS = {
    f"{_SERIES} --n 5 --k=-0.15 --y=0.5,0.8":
        "a32ac7fa80e43cae441ffda50c087ef251b6957c524b9295fcec7a5a54ff1849",
    f"{_SERIES} --n 7 --k=-0.15 --y=0.5,0.8,0.1,-0.2":
        "f11326c0fb3ddd69c643bf8588f61ff572a706f991a827b83c05dc0512b6ea67",
    f"{_SERIES} --n 1000 --k=-0.00015 --y=0.5,0.8,0.1,-0.2":
        "c25df6118b320c949026500785335d8ac322d256beec349f4b8b5f9668cf36da",
    "em --n 1000 --k=0.4,0.2 --x=0.9,0.3 --y=0.5,0.8 --m-max 40 --method recurrence":
        "639926239147dade29cd16b08b2165b198250554abe944c464ba52a8a4bcd3be",
    "kernel --n 3 --k=0.5 --x=30,0 --y=30,3 --tol 1e-12":
        "e01cfc39657f2dd092e59174768fb8b4c977447186259d8a287d80eadbd2d48b",
    "kernel --n 3 --k=0.5 --x=6,0 --y=-6,1 --tol 1e-12":
        "108aaceaecb0c382a131f286ad54daa34f731098026375acef6fabb5f2dd268a",
    "em --n 3 --k=0.5 --x=30,0 --y=30,10 --m-max 400 --method recurrence":
        "3ca22ba3bce61473e8470106202db6fb6ffef242212e4378dc60c24db9d14250",
    "kernel --n 7 --k=1.3509600114058844,0.2756856902451935"
    " --x=-0.8243784300282244,-0.5995011452663237 --y=1.4942137815850476,-1.978938781737701"
    " --method integral --tol 1e-10":
        "d4c1944bd9397c75abd414a14a00d5626e65f1111accfd614830a1c646d3a4e1",
    "kernel --n 3 --k=0.010519366466382296,-0.8857667322455571"
    " --x=2.9243616335283944,1.069920419748926 --y=1.8237056735941843,3.661510084132381"
    " --method integral --tol 1e-10":
        "474c9f0875ae8a000ab6503822627c75affac315ae389b974e98c0035b9bb155",
}


def _digest_with_stderr(argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv.split(), out=out)
    return hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(STEP_DIGESTS))
def test_step_outputs_and_refusals_are_pinned(argv):
    assert _digest_with_stderr(argv) == STEP_DIGESTS[argv]


# Ops of the benchmark's workloads.  The argument lists come from
# bench/workloads.py, loaded read-only from its file with its sibling
# bench/reference.py as the module it imports.
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name, path):
    # registered first, because dataclasses look their module up by name
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _workloads(monkeypatch):
    if not (BENCH / "workloads.py").is_file():
        pytest.skip("bench/workloads.py is not part of this checkout")
    _load(monkeypatch, "reference", BENCH / "reference.py")
    return _load(monkeypatch, "bench_workloads", BENCH / "workloads.py")


def _ops_digest(ops) -> str:
    """One sha256 over the exit code, stdout and stderr of every op."""
    digest = hashlib.sha256()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(op.argv, out=out)
        digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    return digest.hexdigest()


# One whole round of the kernel-series workload at bench seed 1: 171 ops,
# 7 (n, k) sets of 24 pairs and 3 pairs refused with exit 3.
KERNEL_SERIES_ROUND_DIGEST = "f1f3f0b9dfb0f2a770a6816d7801572c54e03678c570a6db3c468e75f360bc64"


def test_kernel_series_bench_round_is_pinned(monkeypatch):
    ops = _workloads(monkeypatch).KernelSeries(1).round_ops(0)
    assert len(ops) == 171
    assert _ops_digest(ops) == KERNEL_SERIES_ROUND_DIGEST


# One whole round of the kernel-integral workload at bench seed 1: 102 ops,
# 6 (n, k) sets of 17 pairs, each in one 64-node pass; on the 70 ops with an
# mpmath product reference (n = 2 or x on the mirror axis) the values are
# within 8.9e-16 of max(1, |value|) of it.
KERNEL_INTEGRAL_ROUND_DIGEST = "8f1b898cdc070322cc0ba30762871bb7fba5beb8a64c93e1911082faef369d04"


def test_kernel_integral_bench_round_is_pinned(monkeypatch):
    ops = _workloads(monkeypatch).KernelIntegral(1).round_ops(0)
    assert len(ops) == 102
    assert _ops_digest(ops) == KERNEL_INTEGRAL_ROUND_DIGEST


# One whole round of the em-tables workload at bench seed 1: 112 degree-60
# tables, 4 (n, k) sets of 8 pairs by every route that applies, the oracle's
# among them at n = 2, where the group matrices carry rounding residue.
EM_TABLES_ROUND_DIGEST = "cdb24a33567f9c0688e298807386a29c2bf1120685afbaee22af74b9eb07824d"


def test_em_tables_bench_round_is_pinned(monkeypatch):
    ops = _workloads(monkeypatch).EmTables(1).round_ops(0)
    assert len(ops) == 112
    assert _ops_digest(ops) == EM_TABLES_ROUND_DIGEST


# The first 40 ops of the crosscheck workload at bench seed 1 (ten rounds
# of 4, each op its own seed with 5 samples through degree 12): a fresh k
# per sample, so the oracle builds cold, over batches of five.
CROSSCHECK_OPS_DIGEST = "ac646a03e96f92eadf1980a85b1efbeb559349d2d83486c77eed8125ad6d8942"


def test_crosscheck_bench_ops_are_pinned(monkeypatch):
    workload = _workloads(monkeypatch).Crosscheck(1)
    ops = [op for r in range(10) for op in workload.round_ops(r)]
    assert len(ops) == 40
    assert _ops_digest(ops) == CROSSCHECK_OPS_DIGEST
