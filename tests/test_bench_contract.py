"""The benchmark's tracer wraps program functions by module and name, so a
rename or removal under src/ must fail here, not only when the benchmark runs."""

import importlib.util
import os

import gazedir
from gazedir import augment, dataset, fusion, nn, preprocess  # noqa: F401  (loads the submodules)

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_module_functions_resolve():
    tracer = load_tracer()
    originals = {}
    for key, attr in tracer.MODULE_FUNCTIONS:
        fn = getattr(getattr(gazedir, key), attr)
        assert callable(fn), f"{key}.{attr}"
        originals[key, attr] = fn
    t = tracer.Tracer()
    t.instrument_modules(gazedir)
    t.restore()
    for (key, attr), fn in originals.items():
        assert getattr(getattr(gazedir, key), attr) is fn
