"""Run manifests: every exported artefact says exactly what produced it.

A benchmark number or trace file is only evidence if it can be tied back
to the code, configuration and seed that generated it.  ``build_manifest``
gathers that provenance — seed, a digest of the router configuration, the
git revision, wall time, interpreter and platform — into one JSON-safe
dict that exporters attach to ``BENCH_*.json``, experiment results and
Perfetto traces.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Optional

#: Schema tag; bump when the manifest shape changes incompatibly.
MANIFEST_SCHEMA = "mmr-run-manifest/1"

_REPO_ROOT = Path(__file__).resolve().parents[3]


def config_digest(config: Any) -> str:
    """A stable short digest of a configuration object.

    Dataclasses are serialised field-by-field; anything else must already
    be JSON-safe.  Two configs digest equal iff their canonical JSON does,
    so experiment records can be grouped by configuration identity without
    carrying the whole config around.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        record = dataclasses.asdict(config)
    else:
        record = config
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_revision(repo_root: Optional[Path] = None) -> Optional[str]:
    """The current git commit hash, or None outside a repository.

    Asked once per process and root: the code a running process has
    loaded cannot change under it, so the first answer stays correct, and
    manifests (one per checkpoint save) stop spawning ``git`` each time.
    """
    return _git_revision(repo_root or _REPO_ROOT)


@functools.lru_cache(maxsize=None)
def _git_revision(repo_root: Path) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_manifest(
    seed: Optional[int] = None,
    config: Any = None,
    command: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the provenance record for one run.

    ``command`` names the producing entry point (CLI subcommand, script);
    ``extra`` carries producer-specific fields (cycle counts, scenario
    names).  The result is JSON-safe and self-describing via ``schema``.
    """
    now = time.time()
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "created_unix": round(now, 3),
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }
    if seed is not None:
        manifest["seed"] = seed
    if config is not None:
        manifest["config_digest"] = config_digest(config)
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            manifest["config"] = dataclasses.asdict(config)
    if command is not None:
        manifest["command"] = command
    if extra:
        manifest.update(extra)
    return manifest
