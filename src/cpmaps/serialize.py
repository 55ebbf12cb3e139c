"""JSON documents for maps, partial maps, operators and reports.

Matrices are encoded row-major, each entry a ``[re, im]`` pair of
double-precision decimals; ``json`` renders doubles with ``repr``, which
is the shortest string that round-trips exactly, so encoding is lossless
and two runs producing the same numbers produce the same bytes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from . import linalg
from .cp_map import CpMap
from .errors import MalformedDocument, ToolkitError

if TYPE_CHECKING:  # loaded only by the partial-map decoder, which needs it
    from .completion import PartialCpMap

__all__ = [
    "encode_matrix",
    "decode_matrix",
    "encode_vector",
    "encode_map",
    "decode_map",
    "decode_operator",
    "encode_partial_map",
    "decode_partial_map",
    "dump_report",
    "load_document",
]


def encode_matrix(a) -> list:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise MalformedDocument(f"expected a matrix, got ndim={a.ndim}")
    return [[[float(entry.real), float(entry.imag)] for entry in row]
            for row in a]


def decode_matrix(doc, what: str = "matrix") -> np.ndarray:
    if not isinstance(doc, list) or not doc:
        raise MalformedDocument(f"{what}: expected a non-empty list of rows")
    width = None
    rows = []
    for row in doc:
        if not isinstance(row, list) or not row:
            raise MalformedDocument(f"{what}: rows must be non-empty lists")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise MalformedDocument(f"{what}: ragged rows")
        entries = []
        for entry in row:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(type(x) in (int, float) for x in entry)):
                raise MalformedDocument(
                    f"{what}: entries must be [re, im] number pairs"
                )
            entries.append(complex(float(entry[0]), float(entry[1])))
        rows.append(entries)
    out = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise MalformedDocument(f"{what}: entries must be finite")
    return out


def encode_vector(v) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in v]


def _require_dim(doc: Mapping, key: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise MalformedDocument(f"{key} must be a positive integer")
    return value


def encode_map(phi: CpMap) -> dict:
    doc: dict = {"d_in": phi.d_in, "d_out": phi.d_out}
    if phi.kraus is not None:
        doc["kraus"] = [encode_matrix(k) for k in phi.kraus]
    doc["choi"] = encode_matrix(phi.choi)
    return doc


def decode_map(doc) -> CpMap:
    if not isinstance(doc, Mapping):
        raise MalformedDocument("map document must be a JSON object")
    d_in = _require_dim(doc, "d_in")
    d_out = _require_dim(doc, "d_out")
    kraus_doc = doc.get("kraus")
    choi_doc = doc.get("choi")
    if kraus_doc is None and choi_doc is None:
        raise MalformedDocument("map document needs 'kraus' or 'choi'")
    try:
        if kraus_doc is not None:
            if not isinstance(kraus_doc, list) or not kraus_doc:
                raise MalformedDocument("'kraus' must be a non-empty list")
            factors = [decode_matrix(k, f"kraus[{i}]")
                       for i, k in enumerate(kraus_doc)]
            phi = CpMap.from_kraus(factors, d_in, d_out)
            if choi_doc is not None:
                choi = decode_matrix(choi_doc, "choi")
                if choi.shape != phi.choi.shape or not linalg.negligible(
                        choi - phi.choi, linalg.DEFAULT_TOL, choi, phi.choi):
                    raise MalformedDocument(
                        "'kraus' and 'choi' describe different maps"
                    )
            return phi
        return CpMap.from_choi(decode_matrix(choi_doc, "choi"), d_in, d_out)
    except MalformedDocument:
        raise
    except ToolkitError as exc:
        raise MalformedDocument(f"inconsistent map document: {exc}") from exc


def decode_operator(doc) -> np.ndarray:
    if isinstance(doc, Mapping):
        if "matrix" not in doc:
            raise MalformedDocument("operator document needs a 'matrix' field")
        return decode_matrix(doc["matrix"], "matrix")
    return decode_matrix(doc, "operator")


def encode_partial_map(beta: PartialCpMap) -> dict:
    return {
        "d_in": beta.d_in,
        "d_out": beta.d_out,
        "blocks": [[encode_matrix(b) for b in row] for row in beta.blocks],
    }


def decode_partial_map(doc, r) -> PartialCpMap:
    """Build a partial map from a blocks document and a comparison operator."""
    from .completion import PartialCpMap

    if not isinstance(doc, Mapping):
        raise MalformedDocument("partial map document must be a JSON object")
    d_in = _require_dim(doc, "d_in")
    d_out = _require_dim(doc, "d_out")
    blocks_doc = doc.get("blocks")
    if (not isinstance(blocks_doc, list) or len(blocks_doc) != d_in
            or any(not isinstance(row, list) or len(row) != d_in
                   for row in blocks_doc)):
        raise MalformedDocument("'blocks' must be a d_in x d_in grid")
    blocks = tuple(
        tuple(decode_matrix(blocks_doc[i][j], f"blocks[{i}][{j}]")
              for j in range(d_in))
        for i in range(d_in)
    )
    try:
        return PartialCpMap(d_in=d_in, d_out=d_out,
                            r=np.asarray(r, dtype=complex), blocks=blocks)
    except ToolkitError as exc:
        raise MalformedDocument(f"inconsistent partial map: {exc}") from exc


def dump_report(report: Mapping[str, Any]) -> str:
    """Serialize a report deterministically (stable key order, repr floats)."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def load_document(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedDocument(f"{path}: {exc}") from exc
