"""Package exports resolve lazily: a run imports only the modules it uses."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in SRC.rglob("__init__.py")
)

#: Modules a plain simulation has no use for.
UNUSED_BY_SIMULATION = (
    "repro.sim.soak",
    "repro.sim.arena",
    "repro.sim.experiment",
    "repro.deploy.drill",
    "repro.obs.explain",
    "repro.obs.summarize",
    "repro.obs.fold",
    "repro.obs.export",
    "repro.ps.microsim",
    "repro.report",
)
UNUSED_PACKAGES = ("repro.soak", "repro.k8s")

SIMULATE = """
from repro.sim import simulate
from repro.cluster import Cluster, cpu_mem
from repro.schedulers import make_scheduler
from repro.workloads import uniform_arrivals

result = simulate(
    Cluster.homogeneous(4, cpu_mem(16, 80)),
    make_scheduler("optimus"),
    uniform_arrivals(num_jobs=4, seed=1),
)
assert result.all_finished
"""

CLI_SIMULATE = """
import contextlib, io
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["simulate", "--jobs", "2", "--servers", "4", "--estimator", "oracle"]) == 0
"""


def loaded_modules(code: str) -> set:
    """The ``repro`` modules in ``sys.modules`` after *code* runs in a fresh interpreter."""
    code += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def export_table(package: str) -> dict:
    """The ``{module: names}`` table a package's ``__init__`` passes to ``lazy_exports``."""
    tree = ast.parse(Path(import_module(package).__file__).read_text())
    call = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports"
    )
    return ast.literal_eval(call.args[1])


def unexpected(modules: set) -> list:
    return sorted(
        name
        for name in modules
        if name in UNUSED_BY_SIMULATION
        or any(name == pkg or name.startswith(pkg + ".") for pkg in UNUSED_PACKAGES)
    )


class TestImportBoundary:
    def test_a_simulation_loads_only_what_it_uses(self):
        modules = loaded_modules(SIMULATE)
        assert unexpected(modules) == []
        assert len(modules) <= 55

    def test_the_simulate_command_loads_no_other_subcommand(self):
        modules = loaded_modules(CLI_SIMULATE)
        assert unexpected(modules - {"repro.report"}) == []


class TestExportTables:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_is_its_defining_modules_object(self, package):
        pkg = import_module(package)
        table = export_table(package)
        names = [name for names in table.values() for name in names]
        assert len(names) == len(set(names))
        assert set(pkg.__all__) - {"__version__"} == set(names)
        listing = dir(pkg)
        for module, module_names in table.items():
            source = import_module(module, package)
            for name in module_names:
                assert getattr(pkg, name) is getattr(source, name), f"{package}.{name}"
                assert name in listing

    @pytest.mark.parametrize("package", PACKAGES)
    def test_an_unknown_name_raises_attribute_error(self, package):
        pkg = import_module(package)
        with pytest.raises(AttributeError, match=rf"'{package}' has no attribute 'no_such_name'"):
            pkg.no_such_name

    def test_an_export_named_like_its_module_stays_the_export(self):
        # Importing the submodule first must not leave the module object
        # where the package's export of the same name belongs.
        code = (
            "from importlib import import_module\n"
            "nnls_module = import_module('repro.fitting.nnls')\n"
            "partition_module = import_module('repro.ps.partition')\n"
            "from repro.fitting import nnls\n"
            "from repro.ps import partition\n"
            "assert nnls is nnls_module.nnls and partition is partition_module.partition\n"
        )
        assert "repro.fitting.nnls" in loaded_modules(code)
