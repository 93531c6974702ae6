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
from anumrad.io import to_dict


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

