"""JSON / CSV serialization for instances, estimates, reports and clouds.

Instance files store each matrix as nested lists of [re, im] pairs; the
encoding round-trips binary64 exactly (Python's shortest-repr floats).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .harness import InstanceEvaluation, SuiteReport
from .linalg import as_square_matrix
from .radius import RangeCloud

MATRIX_KEYS = ("A", "T", "S", "X", "Y")


class InstanceFormatError(ValueError):
    """Raised when an instance file does not match the expected schema."""


def matrix_to_json(m) -> list:
    arr = as_square_matrix(m)
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def matrix_from_json(data, dim: int) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"malformed matrix entries: {exc}") from exc
    if arr.shape != (dim, dim, 2):
        raise InstanceFormatError(f"expected a {dim}x{dim} matrix of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def save_instance(path, matrices: dict) -> None:
    """Write an instance JSON {"dim": n, "A": ..., "T": ..., optional S/X/Y}."""
    if "A" not in matrices or "T" not in matrices:
        raise InstanceFormatError("instance requires at least matrices 'A' and 'T'")
    if (matrices.get("X") is None) != (matrices.get("Y") is None):
        raise InstanceFormatError("instance requires both of 'X' and 'Y' or neither")
    if np.ndim(matrices["A"]) != 2:
        raise InstanceFormatError(f"matrix 'A' must be 2-d, got shape {np.shape(matrices['A'])}")
    dim = np.shape(matrices["A"])[0]
    payload = {"dim": int(dim)}
    for key in MATRIX_KEYS:
        if matrices.get(key) is not None:
            if np.shape(matrices[key]) != (dim, dim):
                raise InstanceFormatError(f"matrix {key!r} is not {dim}x{dim}")
            payload[key] = matrix_to_json(matrices[key])
    with open(path, "w") as fp:
        json.dump(payload, fp)
        fp.write("\n")


def load_instance(path) -> dict:
    """Read an instance JSON back into a dict of complex matrices."""
    with open(path) as fp:
        try:
            payload = json.load(fp)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "dim" not in payload:
        raise InstanceFormatError("instance file must be an object with a 'dim' field")
    dim = payload["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InstanceFormatError(f"'dim' must be a positive integer, got {dim!r}")
    out = {"dim": dim}
    for key in MATRIX_KEYS:
        if key in payload:
            out[key] = matrix_from_json(payload[key], dim)
    if "A" not in out or "T" not in out:
        raise InstanceFormatError("instance file must contain matrices 'A' and 'T'")
    if ("X" in out) != ("Y" in out):
        raise InstanceFormatError("instance file must contain both of 'X' and 'Y' or neither")
    return out


def cloud_to_csv(cloud: RangeCloud, fp) -> None:
    fp.write("theta,re,im\n")
    for theta, z in zip(cloud.thetas, cloud.points):
        fp.write(f"{float(theta)!r},{float(z.real)!r},{float(z.imag)!r}\n")


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    return value


def to_dict(obj) -> dict:
    """A result dataclass (nested ones included) as a JSON-ready dict, field
    by field: numpy scalars become Python ones, other values are not copied."""
    return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def evaluation_to_dict(ev: InstanceEvaluation) -> dict:
    out = {
        "index": ev.index,
        "spec": to_dict(ev.spec),
        "adjointable": ev.adjointable,
        "violations": list(ev.violations),
    }
    if ev.rad is not None:
        out["radius"] = to_dict(ev.rad)
    if ev.witness_value is not None:
        out["witness_value"] = ev.witness_value
    out["reports"] = [to_dict(r) for r in ev.reports]
    out["diagnostics"] = [to_dict(d) for d in ev.diagnostics]
    if ev.comparison is not None:
        out["commutator_comparison"] = to_dict(ev.comparison)
    return out


def suite_report_to_dict(report: SuiteReport) -> dict:
    config = to_dict(report.config)
    config["dims"] = list(report.config.dims)
    config["constructions"] = list(report.config.constructions)
    return {
        "config": config,
        "n_instances": len(report.evaluations),
        "instances": [evaluation_to_dict(ev) for ev in report.evaluations],
        "counterexamples": list(report.counterexamples),
        "wall_time": report.wall_time,
    }
