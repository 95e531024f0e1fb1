"""Subspace documents: the JSON exchange format of the CLI.

A document holds a spanning set (orthonormality not required), the
quaternionic dimension, an optional admissible-basis rotation and an
optional label. Serialization uses Python's shortest round-trip float
representation, so parse(serialize(d)) reproduces d exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DocumentError, StructureError
from .quaternions import AdmissibleBasis
from .subspaces import Frame, orthonormalize

__all__ = ["SubspaceDocument", "parse_document", "serialize_document", "document_from_frame"]

_KNOWN_KEYS = {"quaternionic_dim", "vectors", "admissible_basis", "label"}


@dataclass(frozen=True, eq=False)
class SubspaceDocument:
    """Validated in-memory form of a subspace JSON document."""

    quaternionic_dim: int
    vectors: np.ndarray
    admissible_basis: np.ndarray | None = None
    label: str | None = None

    def to_frame(self) -> Frame:
        """Orthonormalize the spanning set (rank deficiency is an error)."""
        return orthonormalize(self.vectors)


def _require_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the float range
        x = np.inf
    if not np.isfinite(x):
        raise DocumentError(f"{path}: expected a finite number, got {x}")
    return x


def _admissible_basis(raw) -> np.ndarray:
    """The SO(3) rotation of a decoded 3x3 list of lists, each entry a finite number."""
    if (
        not isinstance(raw, list)
        or len(raw) != 3
        or any(not isinstance(r, list) or len(r) != 3 for r in raw)
    ):
        raise DocumentError("admissible_basis: expected a 3x3 matrix")
    mat = np.array(
        [
            [_require_number(raw[i][j], f"admissible_basis[{i}][{j}]") for j in range(3)]
            for i in range(3)
        ]
    )
    try:
        return AdmissibleBasis(mat).rotation
    except StructureError as exc:
        raise DocumentError(f"admissible_basis: {exc}") from exc


def _decoded(source, what: str):
    """The JSON value of source (a str, or bytes read as UTF-8); DocumentError naming
    what if it cannot be decoded, an integer too long or nesting too deep included."""
    try:
        return json.loads(source.decode("utf-8") if isinstance(source, bytes) else source)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise DocumentError(f"{what}: not valid JSON: {exc}") from exc


def parse_document(source) -> SubspaceDocument:
    """Parse a document from JSON text (str or UTF-8 bytes) or a decoded mapping.

    Errors carry the path of the offending element, e.g. 'vectors[2]'.
    """
    obj = _decoded(source, "document") if isinstance(source, (str, bytes)) else source
    if not isinstance(obj, dict):
        raise DocumentError(f"document root: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - _KNOWN_KEYS
    if unknown:
        raise DocumentError(f"document root: unknown keys {sorted(unknown)}")

    if "quaternionic_dim" not in obj:
        raise DocumentError("quaternionic_dim: missing")
    n = obj["quaternionic_dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise DocumentError(f"quaternionic_dim: expected a positive integer, got {n!r}")

    rows = obj.get("vectors")
    if not isinstance(rows, list) or not rows:
        raise DocumentError("vectors: expected a non-empty list of rows")
    width = 4 * n
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise DocumentError(f"vectors[{i}]: expected a list of numbers")
        if len(row) != width:
            raise DocumentError(
                f"vectors[{i}]: expected {width} numbers (4 * quaternionic_dim), "
                f"got {len(row)}"
            )
    # allocated only once every row has the width, so quaternionic_dim cannot size it alone
    parsed = np.empty((len(rows), width))
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            parsed[i, j] = _require_number(value, f"vectors[{i}][{j}]")

    basis = None
    if obj.get("admissible_basis") is not None:
        basis = _admissible_basis(obj["admissible_basis"])

    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise DocumentError(f"label: expected a string, got {type(label).__name__}")

    return SubspaceDocument(
        quaternionic_dim=n, vectors=parsed, admissible_basis=basis, label=label
    )


def serialize_document(doc: SubspaceDocument) -> str:
    """Deterministic JSON text; floats use their shortest exact form."""
    obj: dict = {
        "quaternionic_dim": doc.quaternionic_dim,
        "vectors": [[float(x) for x in row] for row in np.atleast_2d(doc.vectors)],
    }
    if doc.admissible_basis is not None:
        obj["admissible_basis"] = [[float(x) for x in row] for row in doc.admissible_basis]
    if doc.label is not None:
        obj["label"] = doc.label
    return json.dumps(obj, indent=2)


def document_from_frame(U: Frame, label: str | None = None) -> SubspaceDocument:
    return SubspaceDocument(quaternionic_dim=U.n, vectors=U.vectors.copy(), label=label)
