"""Deterministic on-disk formats for runs.

Everything is JSON with arrays embedded as base64 of their raw bytes, so a
run repeated with the same configuration and seed produces byte-identical
files.  Manifests carry content hashes and library versions but no wall
clock; an INCOMPLETE marker file exists while a run directory is being
written and is removed as the final step.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import platform
from pathlib import Path

import numpy as np

INCOMPLETE_MARKER = "INCOMPLETE"


def to_jsonable(obj):
    """Recursively convert arrays, numpy scalars and complex values."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return {
            "__array__": True,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        }
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"__complex__": [float(obj.real), float(obj.imag)]}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_jsonable(obj):
    if isinstance(obj, dict):
        if obj.get("__array__"):
            raw = base64.b64decode(obj["data"])
            arr = np.frombuffer(raw, dtype=np.dtype(obj["dtype"]))
            return arr.reshape(obj["shape"]).copy()
        if "__complex__" in obj:
            re, im = obj["__complex__"]
            return complex(re, im)
        return {k: from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj


def dump_json_bytes(obj) -> bytes:
    """Canonical JSON encoding: sorted keys, fixed separators, newline."""
    text = json.dumps(to_jsonable(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)
    return (text + "\n").encode("utf-8")


def save_json(path, obj) -> bytes:
    data = dump_json_bytes(obj)
    Path(path).write_bytes(data)
    return data


def load_json(path):
    return from_jsonable(json.loads(Path(path).read_text()))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_csv(path, header: list[str], rows) -> None:
    """CSV with full-precision float formatting via repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(
                v, (float, np.floating)) else v for v in row])


class RunWriter:
    """Managed output directory: marker file, content hashes, manifest."""

    def __init__(self, out_dir):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._hashes: dict[str, str] = {}
        self._config_sha: str | None = None
        (self.dir / INCOMPLETE_MARKER).write_text(
            "run in progress or aborted\n")

    def write_config(self, config: dict) -> None:
        data = save_json(self.dir / "config.json", config)
        self._config_sha = sha256_hex(data)
        self._hashes["config.json"] = self._config_sha

    def write_json(self, name: str, obj) -> None:
        data = save_json(self.dir / name, obj)
        self._hashes[name] = sha256_hex(data)

    def write_csv(self, name: str, header, rows) -> None:
        write_csv(self.dir / name, header, rows)
        self._hashes[name] = sha256_hex((self.dir / name).read_bytes())

    def finish(self) -> dict:
        # scipy is loaded for its version only when a run is written
        import scipy

        from . import __version__
        manifest = {
            "config_sha256": self._config_sha,
            "files": dict(sorted(self._hashes.items())),
            "versions": {
                "package": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": platform.python_version(),
            },
        }
        save_json(self.dir / "manifest.json", manifest)
        (self.dir / INCOMPLETE_MARKER).unlink()
        return manifest


def verify_run_dir(out_dir) -> dict:
    """Re-hash the files of a finished run against its manifest; a listed
    file that is missing counts as a mismatch."""
    out = Path(out_dir)
    if (out / INCOMPLETE_MARKER).exists():
        return {"complete": False, "mismatches": [], "checked": 0}
    manifest = load_json(out / "manifest.json")
    mismatches = []
    for name, expected in manifest["files"].items():
        path = out / name
        if not path.is_file() or sha256_hex(path.read_bytes()) != expected:
            mismatches.append(name)
    return {"complete": True, "mismatches": mismatches,
            "checked": len(manifest["files"])}
