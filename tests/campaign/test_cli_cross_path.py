"""Cross-path check: a campaign row equals the same point run from the CLI.

A training point reaches the engines two ways: ``caraml run-llm`` /
``caraml run-resnet`` print ``TrainResult.row()`` directly, and a
campaign compiles the point to a JUBE ``llm_train`` / ``resnet_train``
operation whose outputs land in the result store.  Every key the CLI
prints must carry the same value in the stored row.

The two paths default ``exit_duration`` differently (the campaign's
``llm`` kind uses 30 s, ``run-llm --duration`` 120 s), so the points
below spell every argument out on both sides.
"""

from __future__ import annotations

import io

import pytest

from repro.campaign.executor import IsolatingExecutor
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JsonlStore
from repro.core.cli import run as cli_run

POINTS = [
    pytest.param(
        {"kind": "llm", "system": "A100",
         "axes": {"global_batch_size": [256]},
         "fixed": {"exit_duration": "30"}},
        ["run-llm", "--system", "A100", "--gbs", "256", "--duration", "30"],
        id="llm_train-A100-gbs256",
    ),
    pytest.param(
        {"kind": "resnet", "system": "H100",
         "axes": {"global_batch_size": [64]},
         "fixed": {"devices": "2"}},
        ["run-resnet", "--system", "H100", "--gbs", "64", "--devices", "2"],
        id="resnet_train-H100-gbs64-2dev",
    ),
]


def cli_printed_row(argv: list[str]) -> dict[str, str]:
    """The ``key: value`` lines ``_print_result_row`` writes."""
    out = io.StringIO()
    assert cli_run(argv, stdout=out) == 0
    row = {}
    for line in out.getvalue().splitlines():
        key, sep, value = line.strip().partition(": ")
        assert line.startswith("  ") and sep, f"unexpected CLI line {line!r}"
        row[key] = value
    return row


def stored_campaign_row(point: dict, tmp_path) -> dict:
    spec = CampaignSpec.from_dict({
        "name": "cross-path",
        "systems": [point["system"]],
        "workloads": [{
            "kind": point["kind"], "axes": point["axes"], "fixed": point["fixed"],
        }],
    })
    store = JsonlStore(tmp_path / "rows.jsonl")
    report = CampaignRunner(store, IsolatingExecutor()).run(spec)
    assert (report.total, report.failed) == (1, 0)
    # Re-open the store: the row must survive serialisation.
    (row,) = JsonlStore(tmp_path / "rows.jsonl").rows()
    assert row.status == "completed"
    return row.outputs


@pytest.mark.parametrize("point, argv", POINTS)
def test_campaign_row_equals_cli_row(point, argv, tmp_path):
    printed = cli_printed_row(argv)
    stored = stored_campaign_row(point, tmp_path)
    assert "energy_per_device_wh" in printed
    missing = sorted(set(printed) - set(stored))
    assert not missing, f"CLI keys absent from the campaign row: {missing}"
    differing = {
        key: (value, stored[key])
        for key, value in printed.items()
        if str(stored[key]) != value
    }
    assert not differing, f"CLI vs campaign values differ: {differing}"
