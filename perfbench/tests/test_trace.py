import time

import pytest

from perfbench import trace


def test_self_time_subtracts_children():
    assert trace.self_time(2.5, 1.75) == 0.75
    assert trace.self_time(1.0, 0.0) == 1.0


def test_nested_wrappers_give_self_time():
    tracer = trace.Tracer()
    inner = tracer.timed("inner", lambda: time.sleep(0.02))

    def outer():
        inner()
        inner()
        time.sleep(0.05)

    tracer.timed("outer", outer)()
    own = trace.self_time(tracer.busy["outer"], tracer.busy["inner"])
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.busy["inner"] >= 0.04
    assert 0.05 <= own < 0.05 + 0.03


def test_timed_iter_counts_yielded_items():
    tracer = trace.Tracer()
    gen = tracer.timed_iter("parse", lambda: iter([[1, 2], [3]]), "records")
    assert list(gen()) == [[1, 2], [3]]
    assert tracer.counts["records"] == 3
    assert tracer.calls["parse"] == 1


def test_installed_counts_layers_and_restores():
    import importlib

    from passive_decoy.config import load_run_config

    from perfbench.run import ROOT
    from perfbench.workloads import _search_space

    module = importlib.import_module("passive_decoy.optimize")
    package_optimize, rate_for_point = module.optimize, module.rate_for_point
    config = load_run_config(str(ROOT / "configs" / "reference.json"))
    tracer = trace.Tracer()
    with tracer.installed():
        assert module.optimize is not package_optimize
        result = module.optimize(_search_space(config))
    m = tracer.metrics()
    assert m["optimize.points"] == len(result.trace) == 250
    assert m["optimize.rate_for_point.calls"] == 250
    assert m["statistics.branch_distributions.calls"] == 250
    assert m["optimize.self_s"] == pytest.approx(
        tracer.busy["optimize.optimize"] - tracer.busy["optimize.rate_for_point"])
    assert 0.0 <= m["optimize.useful_ratio"] <= 1.0
    assert module.optimize is package_optimize
    assert module.rate_for_point is rate_for_point
