"""The compiled kernels and the pure-Python twin must agree bit for bit.

The compiled twin under test is built from ``src/domindex/_kernels.c``
into a temporary directory, so these tests run whether or not the
package's own extension was built; they skip only without a C compiler.
"""

import importlib.util
import pathlib
import shutil
import signal
import subprocess
import sysconfig
import time

import pytest

from domindex import _pykern
from domindex.backend import backend_name, kernels_for
from domindex.verify import enumerate_labeled_graphs, random_graph

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "domindex" / "_kernels.c"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernels, loaded by path: neither ``src/`` nor
    ``sys.modules["domindex._kernels"]`` is touched."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    out = tmp_path_factory.mktemp("kernels") / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([cc, "-O2", "-shared", "-fPIC", "-I", sysconfig.get_paths()["include"],
                    str(SOURCE), "-o", str(out)], check=True)
    spec = importlib.util.spec_from_file_location("_kernels", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND_NAME == "compiled"
    return module


def corpus():
    graphs = [random_graph(n, p, seed=n * 10 + int(p * 10)) for n in (1, 2, 5, 9, 13)
              for p in (0.2, 0.5, 0.8)]
    graphs += list(enumerate_labeled_graphs(4))
    return graphs


def test_solve_dd_identical_results_and_witnesses(compiled):
    for g in corpus():
        closed = list(g.closed_adj)
        for v in [-1] + list(range(g.n)):
            lo = 1 if v >= 0 else 0
            a = _pykern.solve_dd(closed, v, lo, g.n)
            b = compiled.solve_dd(closed, v, lo, g.n)
            assert a == b, (g.edges(), v)


def test_scans_identical(compiled):
    for g in corpus():
        closed = list(g.closed_adj)
        if not closed:
            continue
        assert _pykern.scan_minimal_ds(closed) == compiled.scan_minimal_ds(closed)
        assert _pykern.scan_irredundance(closed) == compiled.scan_irredundance(closed)


def test_greedy_mode_identical(compiled):
    for g in corpus():
        closed = list(g.closed_adj)
        for v in range(g.n):
            assert _pykern.solve_dd(closed, v, g.n, g.n) == compiled.solve_dd(
                closed, v, g.n, g.n
            )


def test_word_width_boundary_identical(compiled):
    # At n = 64 the full mask is every bit of the word: 1 << 64 is not it.
    # Every v runs the one-stage (greedy) mode; the staged search from the
    # bottom runs on the path for v = -1 only, because with v fixed its
    # failing stages take minutes.
    for n in (63, 64):
        isolated = [1 << i for i in range(n)]
        path = [(0b111 << i >> 1) & ((1 << n) - 1) for i in range(n)]
        for closed in (isolated, path):
            for v in [-1] + list(range(n)):
                lo = 1 if v >= 0 else 0
                for k_lo in (lo, n) if closed is isolated or v < 0 else (n,):
                    assert _pykern.solve_dd(closed, v, k_lo, n) == compiled.solve_dd(
                        closed, v, k_lo, n
                    ), (n, closed is path, v, k_lo)
    for n in (0, 65):
        with pytest.raises(ValueError):
            compiled.solve_dd([1 << i for i in range(n)], -1, 0, n)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_signal_interrupts_compiled_search(compiled):
    class Interrupted(Exception):
        pass

    def handler(signum, frame):
        raise Interrupted

    # Stage 10 on this graph fails after an exhaustive search of about 45 s
    # (2-vCPU VM, gcc -O2); the handler must run long before it ends.
    closed = list(random_graph(64, 0.1, 1).closed_adj)
    old = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        t0 = time.perf_counter()
        with pytest.raises(Interrupted):
            compiled.solve_dd(closed, -1, 10, 10)
        assert time.perf_counter() - t0 < 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_backend_reports_name():
    assert backend_name() in ("compiled", "python")
    assert kernels_for(65) is _pykern  # wider than one machine word
    assert kernels_for(100) is _pykern


def test_python_twin_handles_wide_graphs():
    # 70 isolated vertices: every vertex must be chosen
    closed = [1 << i for i in range(70)]
    size, mask = _pykern.solve_dd(closed, 3, 1, 70)
    assert size == 70 and mask == (1 << 70) - 1
