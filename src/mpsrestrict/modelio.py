"""Reading and writing Kraus-family model files.

The on-disk format is JSON: complex entries are [re, im] pairs, matrices are
row-major nested lists, and the d Kraus operators live under "matrices".
Optional blocks carry boundary vectors and a chain geometry.  One decoder
reads every array, whose entries must be pairs of finite numbers (not
booleans); ``d``, ``D`` and the geometry lengths must be integers and go
through the shared length check.  Loading re-checks left normalization at
1e-8; anything malformed raises a ValueError naming the field (exit 3).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .chain import BoundaryPair, ChainGeometry, KrausFamily
from .linalg import _check_length

__all__ = ["ModelFile", "load_model", "save_model"]

FORMAT_NAME = "kraus-family"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ModelFile:
    """A loaded model: the Kraus family plus optional boundary data."""

    kraus: KrausFamily
    boundaries: BoundaryPair | None = None
    geometry: ChainGeometry | None = None
    label: str | None = None


def _encode(a: np.ndarray) -> list:
    """A complex array as nested lists with [re, im] pairs at the leaves."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _decode(obj: Any, shape: tuple[int, ...], where: str) -> np.ndarray:
    """The inverse of ``_encode`` for an array of the given shape.

    Every leaf must be an [re, im] pair of finite numbers (booleans are not
    numbers here); the ValueError names the first part that does not fit.
    """
    if not shape:
        if isinstance(obj, list) and len(obj) == 2 and all(type(t) in (int, float) for t in obj):
            with contextlib.suppress(OverflowError):  # an int too large for a float
                z = complex(obj[0], obj[1])
                if np.isfinite(z):
                    return np.array(z)
        raise ValueError(
            f"{where}: complex entries must be [re, im] pairs of finite numbers, got {obj!r}"
        )
    items = ("entries", "rows", "matrices")[len(shape) - 1]
    if not isinstance(obj, list) or len(obj) != shape[0]:
        raise ValueError(f"{where}: expected a list of {shape[0]} {items}")
    return np.array([_decode(o, shape[1:], f"{where}[{i}]") for i, o in enumerate(obj)])


def _model_text(
    kraus: KrausFamily,
    boundaries: BoundaryPair | None = None,
    geometry: ChainGeometry | None = None,
    label: str | None = None,
) -> str:
    """A model file's text, its fields in sorted order for stable diffs."""
    doc: dict[str, Any] = {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "d": kraus.d,
        "D": kraus.D,
        "matrices": _encode(kraus.ops),
    }
    if label is not None:
        doc["label"] = str(label)
    if boundaries is not None:
        doc["boundaries"] = {"L": _encode(boundaries.L), "R": _encode(boundaries.R)}
    if geometry is not None:
        doc["geometry"] = {
            "len_a": geometry.len_a,
            "len_b": geometry.len_b,
            "len_c": geometry.len_c,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save_model(
    path: str | Path,
    kraus: KrausFamily,
    boundaries: BoundaryPair | None = None,
    geometry: ChainGeometry | None = None,
    label: str | None = None,
) -> None:
    """Write a model file; fields are emitted in sorted order for stable diffs."""
    Path(path).write_text(_model_text(kraus, boundaries, geometry, label), encoding="utf-8")


def load_model(path: str | Path) -> ModelFile:
    """Parse and validate a model file.

    Raises ValueError for a malformed file (OutOfRange for a bad length) and
    NotLeftNormalized, with the residual, when the matrices fail the
    isometry check at atol = 1e-8.
    """
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file is not valid JSON: {exc}") from exc
    except ValueError:  # only an integer literal past the interpreter's digit limit
        raise ValueError("model file holds an integer with too many digits to read") from None
    if not isinstance(doc, dict):
        raise ValueError("model file must contain a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"unsupported format {doc.get('format')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')!r}")
    d = _check_length(doc.get("d"), "model field 'd'")
    D = _check_length(doc.get("D"), "model field 'D'")
    kraus = KrausFamily(ops=_decode(doc.get("matrices"), (d, D, D), "matrices"), atol=1e-8)

    boundaries = None
    if "boundaries" in doc:
        bl = doc["boundaries"]
        if not isinstance(bl, dict) or "L" not in bl or "R" not in bl:
            raise ValueError("'boundaries' must carry vectors 'L' and 'R'")
        boundaries = BoundaryPair(
            L=_decode(bl["L"], (D,), "boundaries.L"),
            R=_decode(bl["R"], (D,), "boundaries.R"),
        )

    geometry = None
    if "geometry" in doc:
        gm = doc["geometry"]
        if not isinstance(gm, dict):
            raise ValueError("'geometry' must be an object")
        geometry = ChainGeometry(**{k: gm.get(k) for k in ("len_a", "len_b", "len_c")})

    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError("'label' must be a string")
    return ModelFile(kraus=kraus, boundaries=boundaries, geometry=geometry, label=label)
