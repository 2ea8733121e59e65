"""Model registry: versioned, digest-verified artifacts for fleet serving.

A registry is a directory the whole fleet reads::

    registry/
      registry.json          # roles: production / shadow
      models/
        v1/                  # each version is a normal serving artifact
          manifest.json
          weights.npz
        v2/
          ...

Versions are immutable once published: ``publish`` copies an exported
artifact in, verifies every array digest against its manifest, and never
overwrites an existing version.  ``registry.json`` is the only mutable file
and is written atomically, so a replica reading mid-promote sees either the
old state or the new one, never a torn mix.  Roles:

``production``
    The artifact every replica serves on the critical path.
``shadow``
    Scored off the critical path for every request (response discarded,
    metrics kept) — how a candidate earns trust before taking traffic.

A state file may carry other keys (an older writer's A/B split); readers
ignore them and the next role write drops them.
"""

from __future__ import annotations

import hashlib
import re
import shutil
from pathlib import Path
from typing import Any

from ..resilience.sealed import SealError, read_record, write_record
from .artifact import MANIFEST_NAME, WEIGHTS_NAME, load_artifact, load_manifest

__all__ = ["ModelRegistry", "RegistryError", "STATE_NAME", "check_version"]

STATE_NAME = "registry.json"
MODELS_DIR = "models"
STATE_FORMAT_VERSION = 1
ROLES = ("production", "shadow")

# Dotted segments of [A-Za-z0-9_-], as the metric registry spells names: a
# version label becomes part of ``serve.model.<version>.requests``.
_VERSION_RE = re.compile(
    r"^(?=.{1,64}$)[A-Za-z0-9][A-Za-z0-9_-]*(\.[A-Za-z0-9_-]+)*$")


class RegistryError(ValueError):
    """The registry directory or a requested version is invalid."""


def manifest_digest(manifest: dict[str, Any]) -> str:
    """Stable artifact identity: SHA-256 over the per-array digests.

    :meth:`InferenceSession.artifact_digest` is this function, so a probe
    can compare what a replica *serves* against what the registry *says*
    it should.
    """
    h = hashlib.sha256()
    for name in sorted(manifest.get("arrays", {})):
        h.update(name.encode("utf-8"))
        h.update(manifest["arrays"][name]["sha256"].encode("ascii"))
    return h.hexdigest()


def check_version(version: str) -> None:
    """Refuse a version label that cannot be published or deployed."""
    if not _VERSION_RE.match(version):
        raise RegistryError(
            f"version {version!r} must be 1-64 characters of dotted "
            f"[A-Za-z0-9_-] segments, starting with a letter or digit")


class ModelRegistry:
    """Versioned artifact store plus the production/shadow roles."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.models_dir = self.root / MODELS_DIR
        self.models_dir.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_staging()
        if not (self.root / STATE_NAME).exists():
            self._write_state(dict.fromkeys(ROLES))

    def _sweep_stale_staging(self) -> None:
        """Remove ``.incoming-*`` staging dirs left behind by a crashed
        publish.  Safe on open: a live publish's staging dir only exists
        within the ``publish`` call itself, and a version becomes visible
        solely through the atomic rename out of staging."""
        for stale in self.models_dir.glob(".incoming-*"):
            if stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)

    # ------------------------------------------------------------------
    # State file
    # ------------------------------------------------------------------
    def state(self) -> dict[str, Any]:
        try:
            return read_record(self.root / STATE_NAME, STATE_FORMAT_VERSION)
        except SealError as exc:
            raise RegistryError(str(exc)) from exc

    def _write_state(self, roles: dict[str, Any]) -> None:
        write_record(self.root / STATE_NAME,
                     {"format_version": STATE_FORMAT_VERSION, **roles})

    def _update_state(self, **changes: Any) -> dict[str, Any]:
        state = self.state()
        roles = {role: state.get(role) for role in ROLES}
        roles.update(changes)
        self._write_state(roles)
        return self.state()

    # ------------------------------------------------------------------
    # Versions
    # ------------------------------------------------------------------
    def versions(self) -> list[str]:
        """Published version names, oldest-first by numeric suffix then name.

        Only fully-published versions count: names are filtered against the
        publish-time pattern, so an in-flight or crash-left ``.incoming-*``
        staging directory never shows up (and can never shadow a version
        name in ``_next_version``).
        """
        found = [p.name for p in self.models_dir.iterdir()
                 if p.is_dir() and _VERSION_RE.match(p.name)]

        def sort_key(name: str):
            match = re.search(r"(\d+)$", name)
            return (0, int(match.group(1)), name) if match else (1, 0, name)

        return sorted(found, key=sort_key)

    def _next_version(self) -> str:
        taken = set(self.versions())
        n = 1
        while f"v{n}" in taken:
            n += 1
        return f"v{n}"

    def path(self, version: str) -> Path:
        directory = self.models_dir / version
        if not directory.is_dir():
            raise RegistryError(
                f"version {version!r} is not in the registry "
                f"(have: {self.versions() or 'none'})")
        return directory

    def describe(self, version: str) -> dict[str, Any]:
        """JSON-safe summary of one published version."""
        manifest = load_manifest(self.path(version))
        return {"version": version,
                "model": manifest["model"],
                "digest": manifest_digest(manifest),
                "backend": manifest["backend"],
                "dataset": manifest.get("metadata", {}).get("dataset"),
                "test_auc": manifest.get("metadata", {}).get("test_auc")}

    def publish(self, artifact: str | Path, *, version: str | None = None,
                promote: bool = False) -> str:
        """Copy ``artifact`` into the registry as an immutable version.

        The copy is fully verified (every weight array digest-checked and
        loaded into a model) *before* it becomes visible under a version
        name, so a half-copied or corrupt artifact can never be promoted.
        """
        if version is None:
            version = self._next_version()
        check_version(version)
        if (self.models_dir / version).exists():
            raise RegistryError(
                f"version {version!r} already published; versions are "
                f"immutable — publish under a new name")
        source = Path(artifact)
        load_manifest(source)  # fail fast on a non-artifact directory
        staging = self.models_dir / f".incoming-{version}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            for name in (MANIFEST_NAME, WEIGHTS_NAME):
                if not (source / name).exists():
                    raise RegistryError(f"{source} lacks {name}; not a "
                                        f"complete serving artifact")
                shutil.copy2(source / name, staging / name)
            # Full verification of the *copy*: digests + model rebuild.
            load_artifact(staging)
            staging.rename(self.models_dir / version)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        if promote:
            self.promote(version)
        return version

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------
    def promote(self, version: str) -> dict[str, Any]:
        """Make ``version`` production; clears it from shadow."""
        self.path(version)
        changes: dict[str, Any] = {"production": version}
        if self.state().get("shadow") == version:
            changes["shadow"] = None
        return self._update_state(**changes)

    def set_shadow(self, version: str | None) -> dict[str, Any]:
        if version is not None:
            self.path(version)
        return self._update_state(shadow=version)

    def production(self) -> str:
        version = self.state().get("production")
        if version is None:
            raise RegistryError(
                "registry has no production version; publish then promote")
        self.path(version)
        return version
