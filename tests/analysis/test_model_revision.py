"""A moved model output must come with a ``MODEL_REVISION`` bump.

The exact result cache keys every row on ``repro.version.MODEL_REVISION``
(:func:`repro.campaign.hashing.calibration_fingerprint`).  A change that
moves a simulated figure without bumping it leaves stale rows served as
exact hits.  This test pins SHA-256 hashes of the blessed serve goldens
and of the ``validate`` report per revision, so such a change fails here.

When a change moves these outputs on purpose: bump ``MODEL_REVISION``,
re-bless the goldens, and add the new hashes under the new revision.
Never edit the hashes recorded for an existing revision.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.analysis.validate import validate_reproduction, validation_summary
from repro.version import MODEL_REVISION

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "serve" / "goldens"

#: Output hashes by model revision: golden file name (or ``validate``
#: for the ``validate_reproduction()`` report) -> SHA-256.
PINNED = {
    1: {
        "cluster.om": "69eb676b80dadc82056cfceaf204030a21d9c2a7a27c8dc102b93634613fa61e",
        "cluster_summary.json": "ab29f6484c4642a4210c78d30869919821607f2ee50e0ab49bf4e0cccdc62638",
        "serve.om": "3d0265194222ccc2069c3eea740ded74312144d83d73106cbe2cf6fb47cfdb06",
        "serve_summary.json": "56415cb2961067663034ffcc9edd20082cea336682ceebd4d00d254aaf531a9e",
        "validate": "b2c1cc1bb6271987e7dbafe970c20a8ea3c4bcb1555b2d4964c573d9c4eb3ce8",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pinned() -> dict[str, str]:
    assert MODEL_REVISION in PINNED, (
        f"MODEL_REVISION {MODEL_REVISION} has no pinned output hashes; "
        "record them in PINNED"
    )
    return PINNED[MODEL_REVISION]


def test_serve_goldens_match_the_revision():
    produced = {
        path.name: _sha256(path.read_bytes())
        for path in sorted(GOLDEN_DIR.iterdir())
        if path.is_file()
    }
    pinned = {k: v for k, v in _pinned().items() if k != "validate"}
    assert produced == pinned, (
        "serve goldens changed without a MODEL_REVISION bump"
    )


def test_validate_report_matches_the_revision():
    report = validation_summary(validate_reproduction())
    assert _sha256(report.encode("utf-8")) == _pinned()["validate"], (
        "validate_reproduction() output changed without a MODEL_REVISION bump"
    )
