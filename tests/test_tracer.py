"""The benchmark's tracer still sees every function it names.

A traced benchmark run prints `absent: metric ...` and a last line without
those metrics when a name in `perfbench/tracer.py`'s `TRACED` list is no
longer defined by the package.  These tests load the tracer by path, without
changing it, and run it in a child interpreter so its wrappers never reach
the other tests.
"""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# one rate probe and one finite-r check under the tracer; prints the
# per-layer metrics and the names the tracer could not find
TRACED_RUN = """
import importlib.util, json, sys

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
import hardylab.cli, hardylab.golden, hardylab.report
from hardylab import asymptotics, identities, parsing
from hardylab.fields import MeanParams
from hardylab.quadrature import QuadratureSpec

tracer = tracer_module.Tracer()
tracer.install()
f, spec = parsing.parse_function("blaschke:0.5"), QuadratureSpec()
asymptotics.rate_probe(parsing.parse_function("poly:0,1"), MeanParams(2, 0.5), spec)
identities.check_growth_identity(f, MeanParams(1.5, 0.5), 0.9, spec)
metrics = {name: value for name, (value, _) in tracer_module.per_layer_metrics(tracer).items()}
print(json.dumps({"metrics": metrics, "absent": tracer.absent}))
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_the_package():
    for module_name, function_name in load_tracer().TRACED:
        module = importlib.import_module(f"hardylab.{module_name}")
        assert callable(getattr(module, function_name, None)), f"{module_name}.{function_name}"


def test_a_traced_run_reports_every_per_layer_metric():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACER)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["absent"] == []
    # trace.overhead_s is the benchmark runner's, from two passes
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"] if m["name"] != "trace.overhead_s"]
    missing = [name for name in names if name not in out["metrics"]]
    assert not missing
    assert all(math.isfinite(out["metrics"][name]) for name in names)
    # the two ops ran under the wrappers
    assert out["metrics"]["asymptotics.rate_probe.calls"] == 1
    assert out["metrics"]["identities.check_growth_identity.calls"] == 1
