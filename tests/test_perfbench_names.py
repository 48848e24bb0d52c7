"""The benchmark's tracer looks up lxray functions by name; check the names.

``perfbench/tracing.py`` wraps each function named in its ``SPANS`` and
``LEAVES`` tables with ``getattr`` on the defining module, so a renamed or
removed function would only fail a traced benchmark run. The tables are
read as they are, from the file.
"""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_function_of_its_module():
    tracing = runpy.run_path(str(TRACING))
    names = []
    for table in (tracing["SPANS"], tracing["LEAVES"]):
        for home, funcs in table.items():
            module = importlib.import_module(f"lxray.{home}")
            for func in funcs:
                obj = getattr(module, func, None)
                assert callable(obj), f"lxray.{home}.{func} is gone"
                assert obj.__module__ == f"lxray.{home}", \
                    f"lxray.{home}.{func} is defined in {obj.__module__}"
                names.append(tracing["span_name"](home, func))
    assert set(tracing["PROBES"]) <= set(names)
    for module in tracing["MODULES"]:
        importlib.import_module(f"lxray.{module}")
