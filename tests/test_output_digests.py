"""Byte-level regression pins: the sha256 of the exit code and stdout of a
fixed list of CLI calls, and of the exit code, stdout and stderr of a
second list.  The digests were recorded with numpy 2.4 on x86-64; a change
that is meant to leave every output byte alone must leave them alone too."""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from dunkl_dihedral.cli import main

_EM = "em --n 3 --k=0.4,0.2 --x=0.9,0 --m-max 60"
_POINT = "--n 3 --k=0.4,0.2 --x=0.9,0.3"

DIGESTS = {
    f"{_EM} --y=0.5,0.8 --method recurrence":
        "8da43ec6cf47418a67524d7f4ccf3a3cc6be1bd9180af8537f1506558e627751",
    f"{_EM} --y=0.5,0.8 --method genseries":
        "104f80811e9b3e2c93cc47694ead1ad70550d5f173517b9feab7270e25619b51",
    f"{_EM} --y=0.5,0.8 --method oracle":
        "cccca2677db83b659b7c772aeead74311d2432264c6fcf1a80de0403b0b55264",
    f"{_EM} --y=0.5,0.8 --method sigma":
        "b81ef0a7d50a4fbfe73c10a1763a34673e1f4dee14bd0e5af48b211afd19be5d",
    f"{_EM} --y=0.5,0.8,0.1,-0.2 --method recurrence":
        "8e680f9829e50fb2417c8aa5f36e998f34928ba637f532c1a12d20c77d14c8dc",
    f"{_EM} --y=0.5,0.8,0.1,-0.2 --method genseries":
        "75059db824dc6cd172db2fd01a9a62277294d58ef96291fac6c0c4caae166085",
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
        "81778d8510b28a4d166d2a76b0e829ce1187d38940a1e867d575b7861a679861",
    f"kernel {_POINT} --y=0.5,0.8 --method series --tol 1e-12":
        "c208e1125c3b810a24062d25a8d076ab60ac4f705b1828371b9a0bd14692190d",
    f"kernel {_POINT} --y=0.5,0.8,0.1,-0.2 --method series --tol 1e-12":
        "e3beb4372a1218e104eb1d1db54effebb7fc7156b04c75dabcf871927c87bf09",
    f"kernel {_POINT} --y=0.5,0.8 --method integral --tol 1e-8":
        "e4d31445087ad9bc204adc9a824246b89bcc482dbac4bdf0f903de0b45bce147",
    f"kernel {_POINT} --y=0.5,0.8,0.1,-0.2 --method integral --tol 1e-8":
        "a19e33827a92757b3805340ab701a61ad81324f188799318a3b395b926f6e2d6",
    "crosscheck --seed 5 --samples 10":
        "c38cf11d86f4510e87c3993df1ec4ece07bd06af9840c76f45ce62c6316aed96",
    # V built past degree 12, fresh k per sample
    "crosscheck --seed 3 --samples 5 --m-max 40":
        "4e6ae91c016313322add5cf0b8618239b5ceb1c9c6aa3a8780b02a4a0b48488f",
    # the last contour pass at 128 nodes
    "kernel --n 2 --k=0.5,0.0 --x=1.1466295248026057,0.0 --y=1.9023276203061634,-8.013109575481606"
    " --method integral --tol 1e-08":
        "d8d4f151db3c1179efc2b38d5943664de5841c2eb980c72c58d10e8742f2fd71",
    # the passes double from 128 to 256 nodes on at least 4 panels; the
    # value is within 1.2e-14 of the series route's at tol 1e-15
    "kernel --n 4 --k=1.2057506716904671,-0.032065047156279225"
    " --x=-0.5909027195420594,-0.66472316369768 --y=-0.9805216493835016,-0.2196947764694137"
    " --method integral --tol 1e-12":
        "d54b802024bd41eb294b00e032ac478ab94ab44b1ec0af6989a247e2e7b84dac",
    f"phi {_POINT} --y=0.5,0.8 --pmax 40":
        "d916da37d12a6445dd128e80f1be06edcf979b1efc978121683b196e509bbceb",
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
# degree 394 (exit 2).  Last, a contour pass refused on its rounding floor
# at 1024 nodes (exit 3).
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
        "5fedbf69331f54865c9699221b6d2f57dd7c3623a3591ff85f5d6695f2b5dd60",
}


def _digest_with_stderr(argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv.split(), out=out)
    return hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(STEP_DIGESTS))
def test_step_outputs_and_refusals_are_pinned(argv):
    assert _digest_with_stderr(argv) == STEP_DIGESTS[argv]


# One whole round of the benchmark's kernel-series workload (bench seed 1,
# 171 ops: 7 (n, k) sets of 24 pairs and 3 pairs refused with exit 3).  The
# argument lists come from bench/workloads.py, loaded read-only from its
# file with its sibling bench/reference.py as the module it imports.
BENCH = Path(__file__).resolve().parents[1] / "bench"
KERNEL_SERIES_ROUND_DIGEST = "f1f3f0b9dfb0f2a770a6816d7801572c54e03678c570a6db3c468e75f360bc64"


def _load(monkeypatch, name, path):
    # registered first, because dataclasses look their module up by name
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_kernel_series_bench_round_is_pinned(monkeypatch):
    if not (BENCH / "workloads.py").is_file():
        pytest.skip("bench/workloads.py is not part of this checkout")
    _load(monkeypatch, "reference", BENCH / "reference.py")
    workloads = _load(monkeypatch, "bench_workloads", BENCH / "workloads.py")
    ops = workloads.KernelSeries(1).round_ops(0)
    assert len(ops) == 171
    digest = hashlib.sha256()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(op.argv, out=out)
        digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    assert digest.hexdigest() == KERNEL_SERIES_ROUND_DIGEST


# The first 40 ops of the benchmark's crosscheck workload at bench seed 1
# (ten rounds of 4, each op its own seed with 5 samples through degree 12):
# a fresh k per sample, so the oracle builds cold, over batches of five.
CROSSCHECK_OPS_DIGEST = "e970fbd349be83d32b87e2b1a4ed9fe61e7495c12422326b73fc5598b0fa58ee"


def test_crosscheck_bench_ops_are_pinned(monkeypatch):
    if not (BENCH / "workloads.py").is_file():
        pytest.skip("bench/workloads.py is not part of this checkout")
    _load(monkeypatch, "reference", BENCH / "reference.py")
    workloads = _load(monkeypatch, "bench_workloads", BENCH / "workloads.py")
    workload = workloads.Crosscheck(1)
    ops = [op for r in range(10) for op in workload.round_ops(r)]
    assert len(ops) == 40
    digest = hashlib.sha256()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(op.argv, out=out)
        digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
    assert digest.hexdigest() == CROSSCHECK_OPS_DIGEST
