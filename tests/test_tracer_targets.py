"""The benchmark tracer's targets must name live entry points of the package.

`perfbench/tracer.py` wraps functions by (module, attribute) name, so a
renamed or moved entry point breaks the benchmark.  This reads the target
table from the file without importing or changing anything under perfbench.
The tracer also times the --jobs pool by rebinding
`simcores.verify.ThreadPoolExecutor`, which the runner must honour.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import simcores
import simcores.verify
from simcores.verify import check_motzkin_range

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no TARGETS table in {TRACER}")


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    for span, module_name, attr, kind in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            # the tracer rebinds methods in the class's own namespace
            cls_name, method = attr.split(".")
            target = vars(getattr(module, cls_name)).get(method)
        else:
            target = getattr(module, attr, None)
        assert callable(target), f"{span}: {module_name}.{attr} does not resolve"
        assert inspect.isgeneratorfunction(target) == (kind == "gen"), (
            f"{span}: {module_name}.{attr} is traced as {kind!r}")


def test_pool_class_resolves_lazily_on_the_verify_module():
    src = str(Path(simcores.__file__).resolve().parent.parent)
    probe = ("import concurrent.futures, simcores.verify as v; "
             "print(getattr(v, 'ThreadPoolExecutor', None) is concurrent.futures.ThreadPoolExecutor)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"
    assert not hasattr(simcores.verify, "NoSuchName")


def test_runner_uses_a_rebound_pool_class(monkeypatch):
    base = simcores.verify.ThreadPoolExecutor
    submitted = []

    class CountingPool(base):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(simcores.verify, "ThreadPoolExecutor", CountingPool)
    pooled = check_motzkin_range(20, jobs=2).to_json_dict()
    assert len(submitted) == pooled["instances"] > 1
    serial = check_motzkin_range(20, jobs=1).to_json_dict()
    assert len(submitted) == pooled["instances"]
    for report in (pooled, serial):
        del report["duration_seconds"]
    assert pooled == serial
