import dataclasses
import json

import numpy as np
import pytest

from anumrad import (
    BoundReport,
    DiskTestResult,
    EqualityDiagnostic,
    InstanceSpec,
    SuiteConfig,
    evaluate_instance,
)
from anumrad.io import InstanceFormatError, load_instance, matrix_from_json, save_instance, to_dict


def asdict_plain(obj):
    """The reference serializer: ``dataclasses.asdict``, then numpy scalars
    made Python ones."""

    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        if isinstance(value, np.generic):
            return value.item()
        return value

    return plain(dataclasses.asdict(obj))


def serialized_objects():
    config = SuiteConfig(n_instances=1)
    spec = InstanceSpec(dim=4, rank_a=3, construction="nilpotent_half", seed=5)
    ev = evaluate_instance(spec, config)
    disk = DiskTestResult(np.bool_(True), np.float64(0.5))
    return [
        config,
        spec,
        ev.rad,
        ev.comparison,
        *ev.reports,
        *ev.diagnostics,
        BoundReport("eqv_lower", np.float64(0.5), 0.5, np.float64(0.0), np.bool_(True), np.bool_(True), 0.5),
        EqualityDiagnostic("half_norm", np.bool_(False), np.bool_(True), disk, np.float64(0.5)),
        EqualityDiagnostic("quarter_form", False, False, DiskTestResult(False, 0.25), 0.25),
    ]


@pytest.mark.parametrize("obj", serialized_objects(), ids=lambda obj: type(obj).__name__)
def test_to_dict_matches_asdict(obj):
    out, ref = to_dict(obj), asdict_plain(obj)
    assert out == ref
    assert json.dumps(out) == json.dumps(ref)


def test_to_dict_leaves_no_numpy_scalars():
    def scalars(value):
        if isinstance(value, dict):
            return [s for v in value.values() for s in scalars(v)]
        return [value] if isinstance(value, np.generic) else []

    for obj in serialized_objects():
        assert scalars(to_dict(obj)) == []



class TestInstanceValidation:
    """Reading and writing refuse entries, shapes and files that do not match
    the schema with InstanceFormatError; a refused save writes nothing."""

    @pytest.mark.parametrize("data", [[[["a", "b"]]], [[[1.0, 0.0]], [[1.0]]]], ids=["text", "ragged"])
    def test_malformed_entries(self, data):
        with pytest.raises(InstanceFormatError, match="malformed matrix entries"):
            matrix_from_json(data, 1)

    @pytest.mark.parametrize("data", [[[1.0, 0.0]], [[[1.0, 0.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]]])
    def test_wrong_matrix_shape(self, data):
        with pytest.raises(InstanceFormatError, match=r"expected a 1x1 matrix of \[re, im\] pairs"):
            matrix_from_json(data, 1)

    @pytest.mark.parametrize("missing", ["A", "T"])
    def test_save_without_a_or_t(self, tmp_path, missing):
        path = tmp_path / "inst.json"
        matrices = {"A": np.eye(2), "T": np.eye(2)}
        del matrices[missing]
        with pytest.raises(InstanceFormatError, match="at least matrices 'A' and 'T'"):
            save_instance(path, matrices)
        assert not path.exists()

    @pytest.mark.parametrize("payload", [[1, 2], "dim", {"A": [[[1.0, 0.0]]]}], ids=["list", "string", "no-dim"])
    def test_load_needs_an_object_with_dim(self, tmp_path, payload):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InstanceFormatError, match="must be an object with a 'dim' field"):
            load_instance(path)

    @pytest.mark.parametrize("missing", ["A", "T"])
    def test_load_without_a_or_t(self, tmp_path, missing):
        path = tmp_path / "inst.json"
        payload = {"dim": 1, "A": [[[1.0, 0.0]]], "T": [[[0.5, 0.0]]]}
        del payload[missing]
        path.write_text(json.dumps(payload))
        with pytest.raises(InstanceFormatError, match="must contain matrices 'A' and 'T'"):
            load_instance(path)
