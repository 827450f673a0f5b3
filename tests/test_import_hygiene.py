"""Import hygiene: protocol modules load only what they use.

Every fresh interpreter (each perfbench run, each example, each sweep
worker) pays for what its first ``import`` drags in.  The package
``__init__``s therefore re-export their heavy submodules lazily
(:func:`repro._lazy.lazy_exports`), and networkx lives inside the graph
builders.  These tests pin that down: a protocol entry module must not
load numpy, networkx, the chaos catalogue or the experiment drivers, and
every lazy table must stay in step with the modules it points at.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC_DIR = Path(repro.__file__).resolve().parent.parent
WORKLOADS_DIR = SRC_DIR.parent / "perfbench" / "workloads"

#: Modules a protocol-only run imports; perfbench's workloads use a
#: subset of these (checked below).
PROTOCOL_MODULES = (
    "repro.crypto.hashing",
    "repro.dht.kademlia",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.gossip.antientropy",
    "repro.groupcomm.federated",
    "repro.groupcomm.partial",
    "repro.net.latency",
    "repro.net.transport",
    "repro.sim.engine",
    "repro.sim.rng",
    "repro.webapps.site",
    "repro.webapps.swarm",
    "repro.webapps.tracker",
)

#: What none of them may load.
HEAVY = ("numpy", "networkx", "repro.faults.scenarios", "repro.analysis")

PACKAGES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def loaded_after(code: str) -> set:
    """Names in ``sys.modules`` after running ``code`` in a fresh
    interpreter (its own output goes to stderr)."""
    script = (
        "import json, sys\n"
        "_stdout, sys.stdout = sys.stdout, sys.stderr\n"
        f"{code}\n"
        "_stdout.write(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return set(json.loads(result.stdout))


@pytest.mark.parametrize("module", PROTOCOL_MODULES)
def test_protocol_module_loads_nothing_heavy(module):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    assert not loaded & set(HEAVY), f"{module} loads {sorted(loaded & set(HEAVY))}"


def test_perfbench_workloads_import_only_protocol_modules():
    if not WORKLOADS_DIR.is_dir():
        pytest.skip("perfbench/ is not next to src/")
    imported = set()
    for path in sorted(WORKLOADS_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.startswith("repro.")
                    and node.module != "repro.errors"):
                imported.add(node.module)
    assert imported, "found no repro imports in the perfbench workloads"
    assert imported <= set(PROTOCOL_MODULES), sorted(imported - set(PROTOCOL_MODULES))


@pytest.mark.parametrize("argv", [["lint", "--list-rules"], ["--help"]])
def test_cli_start_up_loads_no_numpy_or_networkx(argv):
    loaded = loaded_after(
        "from repro.__main__ import main\n"
        "try:\n"
        f"    main({argv!r})\n"
        "except SystemExit:\n"
        "    pass"
    )
    assert "repro.lint" in loaded
    assert not loaded & {"numpy", "networkx"}


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_definition(package):
    module = importlib.import_module(package)
    lazy = getattr(module, "_LAZY", {})
    assert set(lazy) <= set(module.__all__), "lazy name missing from __all__"
    for name in module.__all__:
        value = getattr(module, name)
        assert not isinstance(value, types.ModuleType), (
            f"{package}.{name} is shadowed by a submodule")
        if name in lazy:
            assert lazy[name].startswith(f"{package}.")
            # Importing the submodule binds it on the package under its
            # leaf name; a lazy name equal to it would never be resolved.
            assert lazy[name].rsplit(".", 1)[1] != name
            definition = getattr(importlib.import_module(lazy[name]), name)
            assert value is definition, f"{package}.{name} is stale"
            assert vars(module)[name] is value, "resolved value not cached"


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_all(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name)
