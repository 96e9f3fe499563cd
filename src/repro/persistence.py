"""Saving and loading fitted detectors.

FRaC runs at SNP scale are expensive; a production deployment trains once
and scores new patient samples as they arrive. Detectors (FRaC, every
variant, ensembles, baselines) are plain Python objects over numpy state,
so pickling is sufficient — this module adds the envelope a long-lived
artifact needs: a format tag, the library version, and a schema digest so
a loaded detector refuses to score data it was not trained for.

Security note: pickle executes code on load; only load artifacts you
wrote. The envelope's ``format`` tag is checked before unpickling the
payload, but that is integrity hygiene, not sandboxing.
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

import repro
from repro.data.schema import FeatureSchema
from repro.telemetry.runtime import get_bus
from repro.utils.exceptions import ReproError

FORMAT = "repro-detector-v1"


class PersistenceError(ReproError):
    """Raised when a saved artifact cannot be loaded safely."""


def schema_digest(schema: FeatureSchema) -> str:
    """Stable digest of a schema (kinds + arities + names)."""
    h = hashlib.sha256()
    for spec in schema:
        h.update(f"{spec.kind.value}:{spec.arity}:{spec.name};".encode("utf-8"))
    return h.hexdigest()


def save_detector(
    detector,
    path: "str | Path",
    *,
    schema: "FeatureSchema | None" = None,
    metadata: "dict | None" = None,
) -> None:
    """Persist a fitted detector.

    ``schema`` (recommended) is recorded so :func:`load_detector` can
    verify compatibility at load/score time.

    If the detector carries a fault-tolerance ``failure_report_`` (features
    skipped after exhausted retries; see :mod:`repro.parallel.faults`), a
    serializable summary is stored in the envelope metadata under
    ``"failure_report"`` — a scored artifact must disclose which features
    its NS sums are silently missing.

    When telemetry is on (an ambient bus is configured; see
    :mod:`repro.telemetry`), the bus's trace metadata — trace file path,
    event count, per-event-name counts — is embedded under ``"telemetry"``,
    so a persisted artifact points back at the trace of the run that
    produced it.
    """
    path = Path(path)
    metadata = dict(metadata or {})
    report = getattr(detector, "failure_report_", None)
    if report is not None and len(report) and "failure_report" not in metadata:
        metadata["failure_report"] = report.as_dict()
    bus = get_bus()
    if bus is not None and "telemetry" not in metadata:
        metadata["telemetry"] = bus.trace_metadata()
    envelope = {
        "format": FORMAT,
        "version": repro.__version__,
        "schema_digest": schema_digest(schema) if schema is not None else None,
        "schema": schema,
        "metadata": metadata,
        "detector": detector,
    }
    with path.open("wb") as fh:
        pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)


def load_detector(
    path: "str | Path", *, expected_schema: "FeatureSchema | None" = None
):
    """Load a detector saved by :func:`save_detector`.

    Returns ``(detector, envelope_metadata)``. If ``expected_schema`` is
    given and the artifact recorded one, their digests must match.
    """
    path = Path(path)
    if not path.exists():
        raise PersistenceError(f"no such artifact: {path}")
    with path.open("rb") as fh:
        head = fh.read(512)
        if FORMAT.encode("utf-8") not in head:
            raise PersistenceError(
                f"{path} does not look like a {FORMAT} artifact"
            )
        fh.seek(0)
        envelope = pickle.load(fh)
    if not isinstance(envelope, dict) or envelope.get("format") != FORMAT:
        raise PersistenceError(f"{path}: unknown artifact format")
    if expected_schema is not None and envelope.get("schema_digest") is not None:
        if schema_digest(expected_schema) != envelope["schema_digest"]:
            raise PersistenceError(
                f"{path}: detector was trained on a different feature schema"
            )
    return envelope["detector"], envelope.get("metadata", {})
