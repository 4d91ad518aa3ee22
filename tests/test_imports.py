"""Import boundaries: package exports resolve on first use.

Each case runs in a fresh interpreter, because what an import loads is
only visible in a ``sys.modules`` that no earlier test has filled.
"""

import json
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro", "repro.analysis", "repro.campaign", "repro.containers",
    "repro.core", "repro.costsim", "repro.fabric", "repro.faults",
    "repro.harness", "repro.health", "repro.metrics", "repro.net",
    "repro.netstack", "repro.obs", "repro.orchestrator",
    "repro.orchestrator.plugins", "repro.service", "repro.sim",
    "repro.traces", "repro.virt", "repro.workloads",
]


def fresh(code):
    """Run *code* in a new interpreter; return what it prints as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60.0, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def loaded_after(statement):
    return set(fresh(
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(sys.modules)))"))


def test_import_repro_loads_no_subpackage():
    loaded = loaded_after("import repro")
    assert sorted(m for m in loaded if m.startswith("repro.")) == [
        "repro._lazy"]


@pytest.mark.parametrize("module", [
    "repro.service.__main__", "repro.campaign.pool"])
def test_server_and_worker_boot_without_experiments(module):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    assert "repro.harness.registry" not in loaded
    assert "numpy" not in loaded
    assert not [m for m in loaded
                if m == "repro.net" or m.startswith("repro.net.")]


def test_server_runs_a_spawn_job_without_experiments():
    """Dispatching to a spawn worker (which ships the sim-trace
    sampling) must not pull the experiment registry into the server."""
    loaded = loaded_after(
        "import asyncio\n"
        "from repro.service.core import ServiceConfig, TraceService\n"
        "async def go():\n"
        "    svc = TraceService(ServiceConfig(shards=1))\n"
        "    await svc.start()\n"
        "    job = svc.submit('trace', {'users': 5})\n"
        "    async with asyncio.timeout(60):\n"
        "        while job.state != 'done':\n"
        "            await asyncio.sleep(0.01)\n"
        "    await svc.aclose()\n"
        "asyncio.run(go())")
    assert "repro.service.core" in loaded
    assert "repro.harness.registry" not in loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    unresolved = fresh(
        "import importlib, json\n"
        f"pkg = importlib.import_module({package!r})\n"
        "print(json.dumps([name for name in pkg.__all__\n"
        "                  if getattr(pkg, name) is None\n"
        "                  or name not in dir(pkg)]))")
    assert unresolved == []


def test_top_level_names_keep_working():
    assert fresh(
        "import json\n"
        "import repro\n"
        "names = [repro.__version__, repro.net.path.__name__]\n"
        "from repro import obs, run_experiment\n"
        "from repro.net import TransferEngine, capture\n"
        "print(json.dumps(names + [obs.__name__, run_experiment.__module__,\n"
        "                          TransferEngine.__module__,\n"
        "                          capture.__name__]))"
    ) == ["1.0.0", "repro.net.path", "repro.obs", "repro.harness.registry",
          "repro.net.transfer", "repro.net.capture"]


def test_unknown_names_raise_attribute_error():
    import repro.net

    with pytest.raises(AttributeError, match="no attribute 'Nonesuch'"):
        repro.net.Nonesuch
    with pytest.raises(ImportError):
        from repro.net import nonesuch  # noqa: F401


def test_netstack_registry_lists_every_backend():
    assert fresh(
        "import json\n"
        "from repro.netstack import registry\n"
        "print(json.dumps(len(registry.backend_names())))") == 5
