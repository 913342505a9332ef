"""Tests of the benchmark itself: names, correctness gate, tracer hygiene.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    LAYERS,
    LayerTracer,
    import_self_seconds,
    leftover_wrappers,
    package_import_seconds,
)
from perfbench.workloads import (  # noqa: E402
    VALIDATION_CHECKS,
    PassResult,
    ReportInputs,
    WORKLOADS,
    run_campaign_sweep,
    run_paper_report,
    run_serve_engine,
    run_serve_fleet,
    serve_engine_checks,
    setup_campaign_sweep,
    setup_serve_engine,
    setup_serve_fleet,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def small_engine(tmp_path_factory):
    return setup_serve_engine(3, tmp_path_factory.mktemp("engine"), horizon_s=1.5)


@pytest.fixture(scope="module")
def small_fleet(tmp_path_factory):
    return setup_serve_fleet(3, tmp_path_factory.mktemp("fleet"), horizon_s=2.0)


# -- names ---------------------------------------------------------------------


def test_metric_names_match_pattern():
    for name in [*run.END_TO_END, *run.PER_LAYER, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    traced = {layer.name for layer in LAYERS}
    for layer in traced:
        assert any(name.startswith(layer + ".") for name in run.PER_LAYER), layer


# -- correctness gate ----------------------------------------------------------


def test_untouched_pass_passes_every_check(small_engine, small_fleet):
    for result in (run_serve_engine(small_engine), run_serve_fleet(small_fleet)):
        assert all(ok for _, ok in result.checks), result.checks


def test_dropped_record_fails_conservation(small_engine):
    simulator, arrivals = small_engine
    served = simulator.run(arrivals)
    tampered = types.SimpleNamespace(
        summary=served.summary,
        records=served.records[:-1],
        rejected=served.rejected,
        train=served.train,
    )
    checks = serve_engine_checks(tampered, len(arrivals.requests))
    failed = [name for name, ok in checks if not ok]
    assert "requests conserved" in failed


def test_altered_cached_row_fails_gate(tmp_path):
    from repro.campaign import CampaignRow
    import repro.campaign.runner as runner_module

    inputs = setup_campaign_sweep(5, tmp_path)
    real_run = runner_module.CampaignRunner.run
    calls = []

    def run_then_tamper(self, spec, *args, **kwargs):
        report = real_run(self, spec, *args, **kwargs)
        calls.append(report)
        if len(calls) == 2:  # the fully cached re-run
            row = report.rows[0]
            report.rows[0] = CampaignRow.from_dict(
                {**row.to_dict(), "outputs": {**row.outputs, "status": "tampered"}}
            )
        return report

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner_module.CampaignRunner, "run", run_then_tamper)
        result = run_campaign_sweep(inputs)
    failed = [name for name, ok in result.checks if not ok]
    assert failed == ["cached rows equal cold rows"]

    ledger = run.Ledger()
    ledger.add_pass(result)
    assert ledger.failed == 1
    assert ledger.ratio == pytest.approx(1 / ledger.attempted)


def test_failed_check_makes_the_command_fail(
    monkeypatch, capsys, tmp_path, small_engine
):
    bad = PassResult(digest="x", checks=[("always fails", False)])
    fake = dataclasses.replace(
        WORKLOADS["serve_engine"],
        setup=lambda seed, scratch: small_engine,
        run_pass=lambda inputs: bad,
    )
    monkeypatch.setitem(WORKLOADS, "serve_engine", fake)
    monkeypatch.setattr(run, "time_setup", lambda *a: [0.5])
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    code = run.main(["--workload", "serve_engine", "--seed", "1", "--seconds", "0"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] >= run.MIN_PASSES + 1
    assert line["attempted"] > line["failed"]


def test_report_pass_ignores_figures_of_earlier_passes(tmp_path):
    figure_dir = tmp_path / "figures"
    figure_dir.mkdir()
    (figure_dir / "stale.svg").write_text("<svg/>")
    passed = types.SimpleNamespace(passed=True)
    inputs = ReportInputs(
        report=types.SimpleNamespace(build_report=lambda **kwargs: "no figures"),
        validate=types.SimpleNamespace(
            validate_reproduction=lambda: [passed] * VALIDATION_CHECKS
        ),
        figure_dir=figure_dir,
    )
    failed = [name for name, ok in run_paper_report(inputs).checks if not ok]
    assert failed == ["report renders figures"]


# -- tracing -------------------------------------------------------------------


def _owners(layer):
    import importlib

    module = importlib.import_module(layer.module)
    cls_name, _, attr = layer.attr.rpartition(".")
    owner = getattr(module, cls_name) if cls_name else module
    return owner, attr


def test_traced_run_restores_every_wrapped_function(small_engine):
    before = {}
    for layer in LAYERS:
        owner, attr = _owners(layer)
        before[(id(owner), attr)] = vars(owner)[attr]
    with LayerTracer():
        assert leftover_wrappers()
        # A module imported while tracing copies a wrapper by name.
        late = types.ModuleType("repro._late_import_probe")
        from repro.engine.trainer import measure_run

        late.measure_run = measure_run
        sys.modules[late.__name__] = late
        run_serve_engine(small_engine)
    try:
        assert leftover_wrappers() == []
        for layer in LAYERS:
            owner, attr = _owners(layer)
            assert vars(owner)[attr] is before[(id(owner), attr)], layer
        import repro.engine.trainer as trainer

        assert late.measure_run is trainer.measure_run
    finally:
        del sys.modules[late.__name__]


@pytest.mark.parametrize("which", ["engine", "fleet"])
def test_self_times_never_exceed_pass_wall(which, small_engine, small_fleet):
    run_pass, inputs = {
        "engine": (run_serve_engine, small_engine),
        "fleet": (run_serve_fleet, small_fleet),
    }[which]
    with LayerTracer() as tracer:
        start = time.perf_counter()
        run_pass(inputs)
        wall = time.perf_counter() - start
        snapshot = tracer.snapshot()
    self_times = {k: v for k, v in snapshot.items() if k.endswith(".self_s")}
    assert self_times
    assert all(0.0 <= v <= wall for v in self_times.values()), self_times
    assert sum(self_times.values()) <= wall


def test_serve_fleet_never_samples_jpwr(small_fleet):
    with LayerTracer() as tracer:
        run_serve_fleet(small_fleet)
        snapshot = tracer.snapshot()
    assert snapshot.get("jpwr.sample.calls", 0) == 0
    assert snapshot["cluster.route.calls"] == len(small_fleet[1].requests)


def test_import_time_parsing():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       150 |        150 |   numpy.core",
            "import time:      2000 |       2150 | numpy",
            "import time:       300 |        300 |     repro.serve.queue",
            "import time:       700 |       1000 |   repro.serve",
            "import time:       100 |       1100 | repro",
        ]
    )
    self_s = import_self_seconds(stderr)
    assert package_import_seconds(self_s, "numpy") == pytest.approx(2150e-6)
    assert package_import_seconds(self_s, "repro") == pytest.approx(1100e-6)
    assert package_import_seconds(self_s, "repro.serve") == pytest.approx(1000e-6)
    assert package_import_seconds(self_s, "repro.ser") == 0.0
