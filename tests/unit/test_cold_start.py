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
# experiment runner by `repro experiments`, numpy and the floorplanner
# by the commands that place regions (`schedule`, `floorplan`, ...).
DEFERRED = (
    "scipy",
    "networkx",
    "asyncio",
    "repro.analysis.runner",
    "repro.engine.service",
    "numpy",
    "repro.floorplan",
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


def test_validate_loads_neither_numpy_nor_the_floorplanner(tmp_path):
    from repro.benchgen import paper_instance
    from repro.core import do_schedule

    instance = paper_instance(20, seed=3)
    app, sched = tmp_path / "app.json", tmp_path / "sched.json"
    instance.to_json(str(app))
    sched.write_text(json.dumps(do_schedule(instance).to_dict()))
    result = _python(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    rc = main(['validate', {str(app)!r}, {str(sched)!r}])\n"
        "print(json.dumps({'rc': rc, 'out': out.getvalue(),\n"
        "                  'loaded': sorted(sys.modules)}))"
    )
    assert result["rc"] == 0 and result["out"].startswith("OK:"), result["out"]
    assert [m for m in ("numpy", "repro.floorplan") if m in result["loaded"]] == []


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


# Loaded by `repro experiments` only; a PA-R schedule resolves its
# worker count through `repro.analysis.parallel` without them.
HARNESS = ("repro.analysis.runner", "repro.benchgen", "repro.analysis.report")


def test_parallel_helpers_leave_the_harness_unloaded():
    loaded = _python(
        "import json, sys; import repro.analysis.parallel\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    assert [name for name in HARNESS if name in loaded] == []


def test_pa_r_schedule_request_leaves_the_harness_unloaded(tmp_path):
    from repro.benchgen import paper_instance

    path = tmp_path / "app.json"
    paper_instance(10, seed=1).to_json(str(path))
    result = _python(
        "import json, sys\n"
        "from repro.cli import _schedule_request, build_parser\n"
        "from repro.model import Instance\n"
        f"instance = Instance.from_json({str(path)!r})\n"
        "args = build_parser().parse_args(\n"
        f"    ['schedule', {str(path)!r}, '--algorithm', 'pa-r', '--jobs', '2'])\n"
        "request = _schedule_request(args, instance)\n"
        "print(json.dumps({'jobs': request.options['jobs'],\n"
        "                  'loaded': sorted(sys.modules)}))"
    )
    assert result["jobs"] == 2
    assert [name for name in HARNESS if name in result["loaded"]] == []


def test_analysis_surface_survives_lazy_imports():
    result = _python(
        "import json, repro.analysis as analysis\n"
        "from repro.analysis import run_quality, resolve_jobs\n"
        "import repro.analysis.runner, repro.analysis.parallel\n"
        "same = (run_quality is repro.analysis.runner.run_quality\n"
        "        and resolve_jobs is repro.analysis.parallel.resolve_jobs)\n"
        "namespace = {}\n"
        "exec('from repro.analysis import *', namespace)\n"
        "print(json.dumps({'same': same, 'count': len(analysis.__all__),\n"
        "                  'star': sorted(set(analysis.__all__) - set(namespace))}))"
    )
    assert result == {"same": True, "count": 33, "star": []}
