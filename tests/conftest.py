import importlib.util
import pathlib
import shutil
import subprocess
import sysconfig

import pytest

from domindex import FamilySpec, generate, new_graph, parse_edgelist
from domindex.classes import _graph_classes

DATA = pathlib.Path(__file__).parent / "data"
KERNELS_C = pathlib.Path(__file__).resolve().parents[1] / "src" / "domindex" / "_kernels.c"

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernels, built from ``_kernels.c`` into a temporary
    directory and loaded by path: neither ``src/`` nor
    ``sys.modules["domindex._kernels"]`` is touched. Skips only without a
    C compiler."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    out = tmp_path_factory.mktemp("kernels") / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    # warnings as errors: a static function or variable left unused fails here.
    # Undefined behaviour, such as a shift by 64, traps (SIGILL) without
    # needing the sanitizer's runtime library.
    subprocess.run([cc, "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
                    "-fsanitize=undefined", "-fsanitize-undefined-trap-on-error",
                    "-I", sysconfig.get_paths()["include"], str(KERNELS_C), "-o", str(out)], check=True)
    spec = importlib.util.spec_from_file_location("_kernels", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND_NAME == "compiled"
    return module


@pytest.fixture(scope="session")
def f9():
    """The 9-vertex worked example; ids follow first appearance in the file."""
    return parse_edgelist((DATA / "f9.edges").read_text())


@pytest.fixture(scope="session")
def f9_by_label():
    """Same graph with ids 0..8 matching labels a1..a9."""
    edges = [(0, 1), (0, 8), (0, 7), (1, 8), (1, 7), (1, 2), (2, 7), (2, 3),
             (2, 6), (3, 6), (3, 4), (4, 5), (5, 6), (7, 8)]
    return new_graph(9, edges, [f"a{i}" for i in range(1, 10)])


@pytest.fixture(scope="session")
def graph_classes_7():
    """(graph, weight) for one graph per isomorphism class on 1..7 vertices."""
    return list(_graph_classes(7))


@pytest.fixture(scope="session")
def petersen():
    return generate(FamilySpec("petersen")).graph


def vset(g, labels):
    return g.vertex_set_from_labels(labels.split())
