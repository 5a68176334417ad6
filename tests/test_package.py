"""The package root: it binds its modules and re-exports none of their names."""

import v2gdispatch

MODULES = ("baselines", "config", "costs", "dwoa", "fleet", "harness", "orchestrator", "records",
           "shuffle", "topology")


def test_root_binds_the_modules_and_no_module_names():
    for name in MODULES:
        assert getattr(v2gdispatch, name).__name__ == f"v2gdispatch.{name}"
    for name in ("run_optimization", "run_scenario", "build_topology", "shuffle_round"):
        assert not hasattr(v2gdispatch, name), name
