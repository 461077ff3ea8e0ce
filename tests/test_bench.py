"""Smoke tests for the benchmark package: the suites run at tiny sizes
and the BENCH_*.json trajectory machinery computes headlines."""

import json

import pytest

from repro.bench import append_entry, bench_entry, run_kernel_suite
from repro.bench.macro_bench import run_macro_suite

RESULT_KEYS = {"wall_s", "sim_time_s", "events", "events_per_s", "ops",
               "ops_per_s", "peak_pending", "swept_timers"}


def test_kernel_suite_smoke():
    results = run_kernel_suite(smoke=True, repeat=1, verbose=False)
    assert set(results) == {"rpc_storm", "timer_churn", "gather_fanout"}
    for row in results.values():
        assert RESULT_KEYS <= set(row)
        assert row["events"] > 0
        assert row["events_per_s"] > 0


def test_macro_suite_smoke():
    results = run_macro_suite(smoke=True, repeat=1, verbose=False)
    assert "fig10_reduced" in results
    assert results["fig10_reduced"]["events"] > 0


#: point -> (module, the window driver it calls, a small run).
WINDOW_POINTS = {
    "nsshard": ("repro.bench.nsshard_bench", "run_until_done",
                lambda m: m.metadata_point(1, 2, duration=0.5)),
    "scale": ("repro.experiments.scale", "run_until_done",
              lambda m: m.run_point(n_providers=8, n_files=32,
                                    n_sessions=8, duration=1.0, seed=1)),
    "compute": ("repro.experiments.compute", "run_until_done",
                lambda m: m.run_point("map_scan", "locality", n_providers=4,
                                      n_files=4, file_mb=1)),
    "datapath": ("repro.bench.datapath_bench", "drive_procs",
                 lambda m: m.locate_storm(n_clients=1, rounds=1,
                                          reads_per_round=4, n_storage=4)),
    "diskengine": ("repro.bench.diskengine_bench", "drive_procs",
                   lambda m: m.flush_storm(n_clients=1, writes=4)),
}


@pytest.mark.parametrize("point", sorted(WINDOW_POINTS))
def test_rows_count_only_the_measured_window_events(point, monkeypatch):
    """A row's ``events`` (and so ``events_per_s``) is the kernel
    counter's increase across the wall-timed window, not the whole run's
    count with cluster formation and warm-up folded in."""
    import importlib

    name, driver, run = WINDOW_POINTS[point]
    module = importlib.import_module(name)
    window = {}
    real = getattr(module, driver)

    def spy(sim, procs, *args, **kwargs):
        window["before"] = sim._nprocessed
        result = real(sim, procs, *args, **kwargs)
        window["after"] = sim._nprocessed
        return result

    monkeypatch.setattr(module, driver, spy)
    row = run(module)
    assert window["before"] > 0     # set-up ran events of its own
    assert row["events"] == window["after"] - window["before"]


def test_append_entry_builds_headline(tmp_path):
    path = tmp_path / "BENCH_test.json"
    base = bench_entry("base", {"b": {"wall_s": 2.0, "events_per_s": 100.0,
                                      "ops_per_s": 10.0, "events": 200}},
                       smoke=False)
    fast = bench_entry("fast", {"b": {"wall_s": 1.0, "events_per_s": 250.0,
                                      "ops_per_s": 20.0, "events": 250}},
                       smoke=False)
    doc = append_entry(path, base, benchmark="test")
    assert "headline" not in doc
    doc = append_entry(path, fast, benchmark="test")
    h = doc["headline"]["b"]
    assert h["wall_speedup_x"] == 2.0
    assert h["wall_reduction_pct"] == 50.0
    assert h["ops_per_s_x"] == 2.0
    assert h["events_per_s_x"] == 2.5
    on_disk = json.loads(path.read_text())
    assert len(on_disk["entries"]) == 2


def test_smoke_and_full_entries_never_compared(tmp_path):
    path = tmp_path / "BENCH_test.json"
    full = bench_entry("full", {"b": {"wall_s": 2.0, "events_per_s": 1.0}},
                       smoke=False)
    smoke = bench_entry("smoke", {"b": {"wall_s": 0.1, "events_per_s": 1.0}},
                        smoke=True)
    append_entry(path, full, benchmark="test")
    doc = append_entry(path, smoke, benchmark="test")
    assert "headline" not in doc
