"""Import boundaries: a paper point loads only what the simulator needs.

A single run imports ``repro.exec.spec`` and ``repro.experiments.runner``.
Neither may pull in the routing library the topology code once used,
the experiment engine, the sweep driver or the observability stack;
the packages' re-exports resolve lazily instead.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules a paper point must not load before its first event.
FORBIDDEN = (
    "networkx",
    "repro.exec.engine",
    "repro.experiments.sweeps",
    "repro.obs.statescope",
)


def _loaded_after(statement: str) -> list:
    code = (
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_paper_point_imports_stay_small():
    loaded = set(_loaded_after("import repro.exec.spec, repro.experiments.runner"))
    assert "repro.experiments.runner" in loaded
    assert sorted(loaded.intersection(FORBIDDEN)) == []


def test_engine_import_still_loads_engine():
    # The guard above is only meaningful if the names it checks are the
    # real module names: importing the engine must load them.
    loaded = set(_loaded_after("import repro.exec.engine, repro.experiments.sweeps"))
    assert {"repro.exec.engine", "repro.experiments.sweeps"} <= loaded


@pytest.mark.parametrize("package", ["repro.exec", "repro.experiments", "repro.obs"])
def test_lazy_reexports_resolve(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        assert getattr(module, name) is value
    with pytest.raises(AttributeError):
        module.no_such_export  # noqa: B018


def test_from_import_of_reexport():
    from repro.exec import RunSummary, ScenarioSpec, run_specs
    from repro.exec.engine import run_specs as engine_run_specs
    from repro.exec.spec import ScenarioSpec as spec_cls
    from repro.exec.summary import RunSummary as summary_cls

    assert run_specs is engine_run_specs
    assert ScenarioSpec is spec_cls
    assert RunSummary is summary_cls
