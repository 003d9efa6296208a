"""Shipped sample corpus and its integrity manifest.

The package bundles three sample logs, a worked-example annotation
bundle, valid/invalid counterparts for every documented schema, the
literature capability matrix, and a manifest of SHA-256 digests so
tampered or missing fixtures are detected rather than silently used.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import MissingFixtureError, load_json, record

MANIFEST_SCHEMA_ID = "susmine-manifest/1"
MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_FIELDS = {"schema": str, "files": list}
_FILE_FIELDS = {"path": str, "sha256": str, "description": str}


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    sha256: str
    description: str


def data_root() -> Path:
    """Root of the shipped data directory (source / regular install)."""
    return Path(__file__).parent / "data"


def fixture_path(rel: str) -> Path:
    return data_root() / rel


def load_manifest(root: Path | None = None) -> list[ManifestEntry]:
    root = root or data_root()
    raw = record(load_json((root / MANIFEST_NAME).read_bytes()), "manifest", _MANIFEST_FIELDS,
                 entries=None, schema=MANIFEST_SCHEMA_ID)
    files = raw.get("files", [])
    for item in files:
        record(item, "manifest", _FILE_FIELDS, ("path", "sha256"), "files")
    return [ManifestEntry(item["path"], item["sha256"], item.get("description", "")) for item in files]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_fixtures(
    manifest: list[ManifestEntry] | None = None, root: Path | None = None
) -> dict[str, bool]:
    """Digest-compare every manifest entry; absent files raise
    :class:`MissingFixtureError`, mismatches report as False."""
    root = root or data_root()
    manifest = manifest if manifest is not None else load_manifest(root)
    results: dict[str, bool] = {}
    for entry in manifest:
        path = root / entry.path
        if not path.is_file():
            raise MissingFixtureError(f"fixture '{entry.path}' listed in manifest but absent")
        results[entry.path] = _digest(path) == entry.sha256
    return results


def write_manifest(root: Path | None = None) -> Path:
    """Write the manifest over the shipped files (dev helper); each path
    keeps the description a replaced manifest gave it, else has none."""
    root = root or data_root()
    replaced = load_manifest(root) if (root / MANIFEST_NAME).is_file() else []
    descriptions = {entry.path: entry.description for entry in replaced}
    files = sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.name != MANIFEST_NAME
    )
    doc = {
        "schema": MANIFEST_SCHEMA_ID,
        "files": [
            {"path": rel, "sha256": _digest(root / rel), "description": descriptions.get(rel, "")}
            for rel in files
        ],
    }
    out = root / MANIFEST_NAME
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out


if __name__ == "__main__":
    path = write_manifest()
    print(f"wrote {path}")
