"""Journaled run manifest: one JSONL record per completed run unit.

The manifest is the harness's write-ahead record of evaluation progress.
Every time a unit finishes — successfully or after exhausting its retries
— one line is appended and flushed to disk, so a ``repro all`` that is
killed (power loss, OOM kill, ctrl-C) can be resumed with ``--resume``:
units journaled as ``ok`` are replayed from their stored payloads, failed
and missing units are re-executed, and the assembled figure text is
byte-identical to an uninterrupted run.

Record types::

    {"type": "meta", "version": 1, "ops": N, "figures": [...],
     "repro_version": "x.y.z", "units_digest": "<sha256>"}
    {"type": "unit", "figure": ..., "unit_id": ..., "status": "ok"|"failed",
     "attempts": n, "elapsed_s": t, "payload": {...} | null,
     "failure": {"kind", "severity", "detail", "attempts"} | null}

Later records for the same (figure, unit_id) supersede earlier ones, so a
resumed run simply appends; the journal never needs rewriting in place.
A meta mismatch (different ``--ops``, figure set, package version, or
enumerated ``(figure, unit_id, params)`` list) aborts the resume rather
than silently blending incompatible results.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import repro

JOURNAL_VERSION = 1


class ManifestMismatch(RuntimeError):
    """The manifest on disk was written by an incompatible invocation."""


def units_digest(units) -> str:
    """SHA-256 over the enumerated ``(figure, unit_id, params)`` list."""
    listing = [[u.figure, u.unit_id, u.params] for u in units]
    return hashlib.sha256(json.dumps(listing, sort_keys=True).encode()).hexdigest()


@dataclass
class UnitRecord:
    """One journaled unit outcome."""

    figure: str
    unit_id: str
    status: str  # "ok" | "failed"
    attempts: int
    elapsed_s: float
    payload: dict | None = None
    failure: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        return {
            "type": "unit",
            "figure": self.figure,
            "unit_id": self.unit_id,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed_s": round(self.elapsed_s, 6),
            "payload": self.payload,
            "failure": self.failure,
        }


@dataclass
class ManifestState:
    """Parsed journal: meta plus the latest record per unit."""

    meta: dict | None
    records: dict[tuple[str, str], UnitRecord]

    def completed(self) -> dict[tuple[str, str], UnitRecord]:
        return {key: rec for key, rec in self.records.items() if rec.ok}

    def failed(self) -> dict[tuple[str, str], UnitRecord]:
        return {key: rec for key, rec in self.records.items() if not rec.ok}


def load_manifest(path: str | Path) -> ManifestState:
    """Parse a manifest; tolerates a torn final line (killed mid-append)."""
    meta: dict | None = None
    records: dict[tuple[str, str], UnitRecord] = {}
    try:
        text = Path(path).read_text()
    except OSError:
        return ManifestState(None, {})
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            continue  # torn tail write: the unit it described just re-runs
        if obj.get("type") == "meta":
            meta = obj
        elif obj.get("type") == "unit":
            record = UnitRecord(
                figure=obj["figure"],
                unit_id=obj["unit_id"],
                status=obj["status"],
                attempts=obj.get("attempts", 1),
                elapsed_s=obj.get("elapsed_s", 0.0),
                payload=obj.get("payload"),
                failure=obj.get("failure"),
            )
            records[(record.figure, record.unit_id)] = record
    return ManifestState(meta, records)


class RunJournal:
    """Append-only JSONL writer for the run manifest."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a")

    def _append(self, obj: dict) -> None:
        self._handle.write(json.dumps(obj) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def write_meta(self, ops: int, figures: list[str], digest: str = "") -> None:
        self._append(
            {
                "type": "meta",
                "version": JOURNAL_VERSION,
                "ops": ops,
                "figures": list(figures),
                "repro_version": repro.__version__,
                "units_digest": digest,
            }
        )

    def record_unit(self, record: UnitRecord) -> None:
        self._append(record.to_json())

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    @staticmethod
    def check_meta(
        state: ManifestState, ops: int, figures: list[str], digest: str = ""
    ) -> None:
        """Refuse to resume against a manifest from a different invocation."""
        if state.meta is None:
            raise ManifestMismatch(
                "manifest has no meta record; cannot --resume from it"
            )
        if state.meta.get("ops") != ops:
            raise ManifestMismatch(
                f"manifest was written with --ops {state.meta.get('ops')}, "
                f"this run uses --ops {ops}"
            )
        if state.meta.get("figures") != list(figures):
            raise ManifestMismatch(
                "manifest covers a different figure set "
                f"({state.meta.get('figures')} vs {list(figures)})"
            )
        if state.meta.get("repro_version") != repro.__version__:
            raise ManifestMismatch(
                f"manifest was written by repro {state.meta.get('repro_version')}, "
                f"this is repro {repro.__version__}"
            )
        if state.meta.get("units_digest", "") != digest:
            raise ManifestMismatch(
                "manifest was written for a different set of run units "
                "(figure definitions changed since)"
            )
