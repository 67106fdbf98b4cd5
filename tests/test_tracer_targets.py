"""The benchmark tracer's targets must name live entry points of the package.

`perfbench/tracer.py` wraps functions by (module, attribute) name, so a
renamed or moved entry point breaks the benchmark.  This reads the target
table from the file without importing or changing anything under perfbench.
"""

import ast
import importlib
import inspect
from pathlib import Path

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
