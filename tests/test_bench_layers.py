"""Every function the benchmark's tracer wraps must exist in conekit.

``bench/tracing.py`` names its targets as "module:qualname" strings in
``LAYERS`` and patches them in place; a renamed or deleted target only
shows when a traced benchmark run starts.  The table is read as a literal,
without importing the benchmark.
"""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


def layer_targets():
    with open(TRACING) as fh:
        tree = ast.parse(fh.read())
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    ]
    return [t[0] if isinstance(t, tuple) else t for ts in ast.literal_eval(layers).values() for t in ts]


def resolves(target) -> bool:
    mod_name, qual = target.split(":")
    obj = importlib.import_module(f"conekit.{mod_name}")
    if "." in qual:
        # the tracer patches methods through the class's own __dict__
        cls_name, meth = qual.split(".")
        return meth in vars(getattr(obj, cls_name, object))
    return callable(getattr(obj, qual, None))


def test_layer_targets_resolve():
    targets = layer_targets()
    assert len(targets) > 50
    assert [t for t in targets if not resolves(t)] == []
