"""The campaign benches share ``BENCH_campaign.json`` without clobbering.

``make bench-campaign`` rewrites the campaign-scale half of the report;
``bench_powercap.py`` attaches its ``powercap`` headline and the CI gate
reads it next.  A campaign-scale re-run must keep that headline.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def campaign_scale():
    return _load("bench_campaign_scale")


@pytest.fixture(scope="module")
def powercap():
    return _load("bench_powercap")


def _scale_report(speedup: float) -> dict:
    return {
        "bench": "campaign_scale",
        "sizes": [100],
        "headline": {"search": {"speedup": speedup}},
        "quick": True,
    }


class TestCampaignReportMerge:
    def test_fresh_file_is_the_report(self, campaign_scale, tmp_path):
        out = tmp_path / "BENCH_campaign.json"
        campaign_scale.write_report(out, _scale_report(9.0))
        assert json.loads(out.read_text()) == _scale_report(9.0)

    def test_rerun_keeps_the_powercap_headline(
        self, campaign_scale, powercap, tmp_path
    ):
        out = tmp_path / "BENCH_campaign.json"
        campaign_scale.write_report(out, _scale_report(9.0))
        powercap.merge_headline(out, {"speedup": 40.0}, quick=True)
        campaign_scale.write_report(out, _scale_report(11.0))
        report = json.loads(out.read_text())
        assert report["headline"]["powercap"] == {"speedup": 40.0}
        assert report["powercap_quick"] is True
        assert "powercap_provenance" in report
        # The campaign-scale half is replaced, not merged key by key.
        assert report["headline"]["search"] == {"speedup": 11.0}
        assert report["sizes"] == [100]
