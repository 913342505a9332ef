"""Version of the CARAML reproduction package."""

__version__ = "1.0.0"

#: Revision of the simulated model's outputs.  It is part of every
#: campaign result key (:func:`repro.campaign.hashing.calibration_fingerprint`),
#: so bumping it turns every cached row into a miss.  Bump it in the
#: same change that moves any simulated figure, and record what moved
#: in CHANGES.md.
#:
#: 1. Cluster replicas on GH200 price energy with the node's package TDP
#:    and the Grace host share, as the jpwr sensors always did.
MODEL_REVISION = 1
