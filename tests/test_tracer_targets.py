"""The package functions the benchmark's tracer wraps must exist, and the
verification table must reach the oracle engines through names it patches."""

import importlib
import importlib.util
from pathlib import Path

from butterflyshift.model import REFERENCE, build_graph
from butterflyshift import oracle

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    for mod_name, fn_name in tracing.TARGETS:
        module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_verification_table_calls_are_traced():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        oracle.verification_table(REFERENCE, build_graph(REFERENCE), 16, 8, 12)
    finally:
        tracer.uninstall()
    seen = tracer.summary()
    for name in ("oracle.check_Ln", "oracle.enumerate_returns_to_1",
                 "oracle.enumerate_returns_to_32", "oracle.incidence_entropy",
                 "oracle.periodic_orbit_pressure", "critical.pressure_full",
                 "spectral.lambda_1"):
        assert seen.get(name, (0,))[0] > 0, name
