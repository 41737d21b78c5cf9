"""The benchmark's series microbenchmarks and traced mode still run on the
package: ``perfbench/micro.py`` and ``perfbench/tracer.py`` read names of
``scalars`` (``HSeries(coeffs, order)``, ``*``, ``inverse`` and
``.coeffs``), and a traced run must leave every patched name restored."""

import importlib
import importlib.util
import os
import pkgutil

import poisson_forge
from poisson_forge import cli
from poisson_forge.scalars import HSeries

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_series_microbenchmarks_run():
    micro = _load("micro")
    for name in ("hseries_mul_n6_us", "hseries_inverse_n6_us"):
        assert micro.MICRO["scalars.micro." + name]() > 0
    x = micro._series_n6(1)
    assert x * x.inverse() == 1


def test_traced_fixture_run_restores_every_name(capsys):
    # every submodule is imported before the tracer patches the package,
    # as perfbench/child.py does: a module first imported during the
    # traced run would bind a wrapper that uninstall() cannot restore
    for info in pkgutil.iter_modules(poisson_forge.__path__):
        importlib.import_module("poisson_forge." + info.name)
    tracer = _load("tracer").Tracer(poisson_forge)
    mul, inverse = vars(HSeries)["__mul__"], vars(HSeries)["inverse"]
    tracer.install()
    try:
        assert cli.main(["check-hopf", "--fixtures"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    assert vars(HSeries)["__mul__"] is mul
    assert vars(HSeries)["inverse"] is inverse
    stats = tracer.stats()
    # the HSeries.__mul__ hook read .coeffs on every product it saw
    assert stats["calls"]["scalars.HSeries.__mul__"] > 0
    assert 0 <= stats["counters"]["hseries_mul_const"] \
        <= stats["calls"]["scalars.HSeries.__mul__"]
    assert "[PASS]" in capsys.readouterr().out
