"""Import boundaries: a paper point loads only what the simulator needs.

A single run imports ``repro.exec.spec`` and ``repro.experiments.runner``.
Neither may pull in the routing library the topology code once used,
the experiment engine, the sweep driver or the observability stack;
the packages' re-exports resolve lazily instead.  Executing a plain run
(no instruments, no sanitizer) loads no observability or QA module,
and an engine with no instrument selected loads no telemetry module.
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
    env.pop("REPRO_SIMSAN", None)  # measure the plain, unsanitized run
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_paper_point_imports_stay_small():
    loaded = set(_loaded_after("import repro.exec.spec, repro.experiments.runner"))
    assert "repro.experiments.runner" in loaded
    assert sorted(loaded.intersection(FORBIDDEN)) == []


def test_plain_run_loads_no_obs_or_qa_module():
    loaded = _loaded_after(
        "from repro.exec.spec import ScenarioSpec\n"
        "from repro.experiments.runner import run_scenario\n"
        "spec = ScenarioSpec.make(topology=1, duration=1.0, seed=1, scale=0.1)\n"
        "assert run_scenario(spec.build()).sim.events_executed > 0"
    )
    assert "repro.sim.engine" in loaded
    assert [m for m in loaded if m.startswith(("repro.obs.", "repro.qa."))] == []


def test_plain_engine_loads_no_telemetry_module():
    loaded = _loaded_after(
        "from repro.exec.engine import ExperimentEngine\n"
        "ExperimentEngine(obs=())"
    )
    assert "repro.exec.engine" in loaded
    telemetry = ("repro.obs.session", "repro.obs.samplers", "repro.obs.spans")
    assert [m for m in telemetry if m in loaded] == []


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
