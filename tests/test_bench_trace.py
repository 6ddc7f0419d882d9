import importlib.util
from pathlib import Path

import lorenzlinks
import lorenzlinks.cli  # noqa: F401  (loads every module the tracer patches)

TRACE = Path(__file__).parents[1] / "bench" / "trace.py"


def test_tracer_finds_every_traced_name():
    # Loaded by path: the module name "trace" would find the stdlib module.
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    meet = lorenzlinks.garside.meet
    tracer = trace.Tracer(lorenzlinks)
    try:
        tracer.install()  # AttributeError if a traced public name is gone
        assert lorenzlinks.garside.meet is not meet
    finally:
        tracer.uninstall()
    assert lorenzlinks.garside.meet is meet
