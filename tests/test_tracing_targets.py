"""The names the benchmark's tracer wraps still exist.

``perfbench/tracing.py`` lists them in ``TARGETS``, and ``Tracer.install``
looks each one up when a ``--trace 1`` run starts, so a name that no longer
resolves breaks every traced run.  This test looks them up the same way.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # it imports only the standard library
    assert tracing.TARGETS
    missing = []
    for _name, module_name, attr, _measure in tracing.TARGETS:
        module = importlib.import_module(module_name)
        try:
            if "." in attr:  # a method is patched on its class, so it must be the class's own
                cls_name, meth = attr.split(".")
                target = getattr(module, cls_name).__dict__[meth]
            else:
                target = getattr(module, attr)
        except (AttributeError, KeyError):
            target = None
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
