import numpy as np
import pytest

from anumrad import (
    CONSTRUCTIONS,
    InstanceSpec,
    SuiteConfig,
    classic_bounds,
    evaluate_instance,
    gen_instance,
    gen_partner,
    is_a_selfadjoint,
    is_adjointable,
    make_a_operator,
    psd_decompose,
    radius_theta_scan,
    run_suite,
    search_half_norm_converse,
    spectral_norm,
)
from anumrad.io import load_instance, save_instance


class TestInstanceSpec:
    def test_accepts_valid(self):
        spec = InstanceSpec(dim=4, rank_a=2, construction="nilpotent_half", seed=7)
        assert spec.scale == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 1, "rank_a": 1},
            {"dim": 65, "rank_a": 3},
            {"dim": 3, "rank_a": 4},
            {"dim": 3, "rank_a": -1},
            {"dim": 3, "rank_a": 3, "construction": "bogus"},
            {"dim": 3, "rank_a": 3, "construction": "nonadjointable_probe"},
            {"dim": 3, "rank_a": 3, "scale": 0.0},
            {"dim": 3, "rank_a": 3, "scale": float("inf")},
            {"dim": 3, "rank_a": 3, "scale": float("nan")},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            InstanceSpec(**kwargs)


class TestConstructions:
    @pytest.mark.parametrize("dim,rank", [(2, 2), (3, 2), (4, 3), (5, 5), (6, 4)])
    def test_nilpotent_structure(self, dim, rank):
        spec = InstanceSpec(dim=dim, rank_a=rank, construction="nilpotent_half", seed=dim * 31)
        a, t = gen_instance(spec)
        ctx = psd_decompose(a)
        assert ctx.rank == rank
        assert not (t @ t).any()  # T^2 = 0 exactly, hence AT^2 = 0 exactly
        assert is_adjointable(ctx, t)
        op = make_a_operator(ctx, t)
        assert op.seminorm > 0.0
        rad = radius_theta_scan(op)
        report = classic_bounds(op, rad)[0]
        assert report.formula_id == "eqv_lower" and report.tight

    @pytest.mark.parametrize("dim,rank", [(2, 1), (3, 3), (5, 2), (6, 6)])
    def test_selfadjoint_structure(self, dim, rank):
        spec = InstanceSpec(
            dim=dim, rank_a=rank, construction="shared_eigenbasis_selfadjoint", seed=dim * 77
        )
        a, t = gen_instance(spec)
        ctx = psd_decompose(a)
        assert ctx.rank == rank
        residual = spectral_norm(a @ t - t.conj().T @ a)
        assert residual <= 1e-12 * max(spectral_norm(a @ t), ctx.lam_max)
        assert is_a_selfadjoint(ctx, t)
        op = make_a_operator(ctx, t)
        rad = radius_theta_scan(op)
        report = classic_bounds(op, rad)[1]
        assert report.formula_id == "eqv_upper" and report.tight

    def test_random_is_adjointable_even_when_singular(self):
        for rank in (1, 2, 3):
            spec = InstanceSpec(dim=4, rank_a=rank, construction="random", seed=rank)
            a, t = gen_instance(spec)
            assert is_adjointable(psd_decompose(a), t)

    def test_probe_is_not_adjointable(self):
        spec = InstanceSpec(dim=3, rank_a=2, construction="nonadjointable_probe", seed=5)
        a, t = gen_instance(spec)
        assert not is_adjointable(psd_decompose(a), t)

    def test_deterministic_and_roundtrip(self, tmp_path):
        spec = InstanceSpec(dim=5, rank_a=3, construction="random", seed=99)
        a1, t1 = gen_instance(spec)
        a2, t2 = gen_instance(spec)
        assert np.array_equal(a1, a2) and np.array_equal(t1, t2)

        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        save_instance(p1, {"A": a1, "T": t1})
        save_instance(p2, {"A": a2, "T": t2})
        assert p1.read_bytes() == p2.read_bytes()

        loaded = load_instance(p1)
        assert np.array_equal(loaded["A"], a1)
        assert np.array_equal(loaded["T"], t1)

    def test_gen_partner_adjointable(self):
        spec = InstanceSpec(dim=4, rank_a=2, construction="random", seed=13)
        a, _ = gen_instance(spec)
        ctx = psd_decompose(a)
        partner = gen_partner(ctx, [13, 1])
        assert is_adjointable(ctx, partner.t)


class TestSuite:
    def test_instance_specs_deterministic(self):
        config = SuiteConfig(n_instances=10, dims=(2, 3), seed=5)
        specs = config.instance_specs()
        assert len(specs) == 10
        assert [s.dim for s in specs] == [2, 3] * 5
        assert specs == SuiteConfig(n_instances=10, dims=(2, 3), seed=5).instance_specs()
        assert all(1 <= s.rank_a <= s.dim for s in specs)

    @pytest.mark.parametrize(
        "kwargs", [{"dims": ()}, {"constructions": ()}, {"n_instances": -1}]
    )
    def test_config_rejects_empty_or_negative(self, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)

    def test_config_allows_zero_instances(self):
        assert SuiteConfig(n_instances=0).instance_specs() == []
        assert run_suite(SuiteConfig(n_instances=0)).evaluations == []

    def test_small_suite_clean(self):
        config = SuiteConfig(n_instances=12, dims=(2, 3, 4), seed=5, n_samples=2000)
        report = run_suite(config)
        assert report.ok
        assert report.counterexamples == []
        assert len(report.evaluations) == 12
        assert all(ev.adjointable for ev in report.evaluations)
        assert all(ev.rad.lower <= ev.rad.upper for ev in report.evaluations)

    def test_probe_instances_recorded_not_flagged(self):
        spec = InstanceSpec(dim=3, rank_a=1, construction="nonadjointable_probe", seed=2)
        ev = evaluate_instance(spec, SuiteConfig(n_instances=1, n_samples=100))
        assert not ev.adjointable
        assert ev.violations == []
        assert ev.rad is None

    def test_constructions_tuple_is_complete(self):
        assert set(CONSTRUCTIONS) == {
            "random",
            "nilpotent_half",
            "shared_eigenbasis_selfadjoint",
            "nonadjointable_probe",
        }

    def test_converse_search_runs(self):
        found = search_half_norm_converse(dims=(2, 3), n_trials=20, seed=1)
        assert isinstance(found, list)
        for spec in found:
            assert isinstance(spec, InstanceSpec)
