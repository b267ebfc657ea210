"""``import repro.cli`` loads only what the default command paths run.

Each check runs in a fresh interpreter: in the test process, modules
that earlier tests imported would hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

# Loaded on first use only: scipy by the MILP floorplan engine, networkx
# by nothing in src/, asyncio and the service by `repro serve`, the
# experiment runner by `repro experiments`.
DEFERRED = (
    "scipy",
    "networkx",
    "asyncio",
    "repro.analysis.runner",
    "repro.engine.service",
)

# ``repro.__all__`` as it was when every name was imported eagerly.
PUBLIC_NAMES = [
    "analysis", "baselines", "benchgen", "core", "engine", "floorplan",
    "sim", "model", "validate",
    "ScheduleOutcome", "ScheduleRequest", "get_backend",
    "PAOptions", "PAResult", "pa_r_schedule", "pa_schedule",
    "Architecture", "Implementation", "Instance", "ResourceVector",
    "Schedule", "Task", "TaskGraph", "zedboard",
    "__version__",
]


def _python(code: str):
    """Run ``code`` in a fresh interpreter; return its JSON output."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_defers_heavy_modules():
    loaded = _python(
        "import json, sys; import repro.cli; print(json.dumps(sorted(sys.modules)))"
    )
    assert [name for name in DEFERRED if name in loaded] == []


def test_public_surface_survives_lazy_imports():
    result = _python(
        "import json, repro\n"
        "from repro import pa_schedule, Instance, analysis, engine\n"
        "import repro.core, repro.model\n"
        "same = (pa_schedule is repro.core.pa_schedule\n"
        "        and Instance is repro.model.Instance\n"
        "        and analysis.__name__ == 'repro.analysis'\n"
        "        and engine.__name__ == 'repro.engine')\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "print(json.dumps({'all': repro.__all__, 'same': same,\n"
        "                  'star': sorted(set(repro.__all__) - set(namespace))}))"
    )
    assert result["all"] == PUBLIC_NAMES
    assert result["same"]
    assert result["star"] == []


def test_service_names_load_on_first_use():
    result = _python(
        "import json, sys, repro.engine\n"
        "before = 'repro.engine.service' in sys.modules\n"
        "from repro.engine import ServiceThread\n"
        "from repro.engine.service import ServiceThread as direct\n"
        "print(json.dumps([before, ServiceThread is direct]))"
    )
    assert result == [False, True]
