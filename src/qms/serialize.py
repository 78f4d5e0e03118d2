"""JSON and CSV codecs for channels, states and bound reports.

Channel document schema (shared between the library and the CLI):

    {
      "dim": 2,
      "representation": "kraus" | "superoperator" | "stochastic" | "generator",
      "data": ...,               # see below
      "label": "optional name"
    }

* kraus: array of d x d arrays of [re, im] pairs (one per Kraus operator);
* superoperator / generator: d^2 x d^2 array of [re, im] pairs;
* stochastic: d x d array of plain reals.

State documents are {"dim": d, "data": d x d array of [re, im], "label"?}.
Parsers reject NaN/Inf, booleans where a number belongs and dimension
mismatches with a field-addressed error message.
"""

from __future__ import annotations

import json
import math
from typing import Union

import numpy as np

from .channels import (DensityMatrix, GeneratorMap, SuperOperator, from_kraus,
                       from_stochastic)
from .errors import SchemaError

CSV_COLUMNS = ["instance", "n_or_t", "exact", "bound", "slack", "regime",
               "K", "rate", "recipe", "kappa_variant"]

REPRESENTATIONS = ("kraus", "superoperator", "stochastic", "generator")


def _reject_constants(token: str):
    raise SchemaError(f"non-finite JSON constant {token!r} is not allowed")


def loads_strict(text: str) -> object:
    """json.loads that rejects NaN/Infinity tokens."""
    try:
        return json.loads(text, parse_constant=_reject_constants)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc


def _is_number(x) -> bool:
    # JSON true/false parse to bool, which is an int subclass
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parse_dim(doc: dict) -> int:
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"dim: expected a positive integer, got {dim!r}")
    return dim


def _parse_complex_entry(entry, path: str) -> complex:
    if (not isinstance(entry, (list, tuple)) or len(entry) != 2
            or not all(_is_number(x) for x in entry)):
        raise SchemaError(f"{path}: expected an [re, im] pair, got {entry!r}")
    re, im = float(entry[0]), float(entry[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise SchemaError(f"{path}: entries must be finite")
    return complex(re, im)


def _parse_real_entry(entry, path: str) -> float:
    if not _is_number(entry) or not math.isfinite(float(entry)):
        raise SchemaError(f"{path}: expected a finite real number")
    return float(entry)


def _parse_matrix(data, rows: int, cols: int, path: str, entry) -> np.ndarray:
    """A rows x cols array, each entry parsed by ``entry(value, address)``."""
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError(f"{path}: expected {rows} rows, got "
                          f"{len(data) if isinstance(data, list) else type(data).__name__}")
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{path}[{i}]: expected {cols} entries")
        out.append([entry(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(out)


def channel_from_dict(doc: object) -> Union[SuperOperator, GeneratorMap]:
    """Parse a channel document into a SuperOperator or GeneratorMap."""
    if not isinstance(doc, dict):
        raise SchemaError(f"top level: expected an object, got {type(doc).__name__}")
    dim = _parse_dim(doc)
    rep = doc.get("representation")
    if rep not in REPRESENTATIONS:
        raise SchemaError(f"representation: expected one of {REPRESENTATIONS}, got {rep!r}")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise SchemaError("label: expected a string")
    data = doc.get("data")
    if data is None:
        raise SchemaError("data: missing")

    if rep == "kraus":
        if not isinstance(data, list) or not data:
            raise SchemaError("data: expected a nonempty array of Kraus operators")
        ops = [_parse_matrix(op, dim, dim, f"data[{k}]", _parse_complex_entry)
               for k, op in enumerate(data)]
        return from_kraus(ops, label=label)
    if rep == "stochastic":
        s = _parse_matrix(data, dim, dim, "data", _parse_real_entry)
        return from_stochastic(s, label=label)
    m = _parse_matrix(data, dim * dim, dim * dim, "data", _parse_complex_entry)
    if rep == "generator":
        return GeneratorMap(dim, m)
    return SuperOperator(dim, m, label=label)


def channel_from_json(text: str) -> Union[SuperOperator, GeneratorMap]:
    return channel_from_dict(loads_strict(text))


def _load(path: str, parse):
    """``parse`` applied to the JSON document in a file; errors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(loads_strict(fh.read()))
    except (OSError, SchemaError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_channel(path: str) -> Union[SuperOperator, GeneratorMap]:
    return _load(path, channel_from_dict)


def _complex_matrix_to_lists(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def channel_to_dict(obj: Union[SuperOperator, GeneratorMap]) -> dict:
    if isinstance(obj, GeneratorMap):
        return {"dim": obj.dim, "representation": "generator",
                "data": _complex_matrix_to_lists(obj.matrix)}
    doc = {"dim": obj.dim, "representation": "superoperator",
           "data": _complex_matrix_to_lists(obj.matrix)}
    if obj.label:
        doc["label"] = obj.label
    return doc


def state_from_dict(doc: object) -> DensityMatrix:
    if not isinstance(doc, dict):
        raise SchemaError("state document: expected an object")
    dim = _parse_dim(doc)
    m = _parse_matrix(doc.get("data"), dim, dim, "data", _parse_complex_entry)
    return DensityMatrix(dim, m)


def load_state(path: str) -> DensityMatrix:
    return _load(path, state_from_dict)


def state_to_dict(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "data": _complex_matrix_to_lists(rho.matrix)}


# ---------------------------------------------------------------------------
# bound-report CSV


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return repr(x)
    return str(x)


def reports_to_csv(reports: list) -> str:
    """Serialize BoundReport rows with the fixed column set (header always)."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        writer.writerow([_fmt(getattr(r, key)) for key in CSV_COLUMNS])
    return buf.getvalue()


def report_to_dict(r) -> dict:
    """A BoundReport row as a dict; ``dumps_json`` maps its NaNs to null."""
    out = {key: getattr(r, key) for key in CSV_COLUMNS}
    if r.error:
        out["error"] = r.error
    return out


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def dumps_json(obj: object) -> str:
    """Deterministic JSON: sorted keys, newline-terminated.

    Non-finite floats are mapped to "inf"/"-inf"/null so documents stay
    strictly parseable.
    """
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
