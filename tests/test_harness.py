import dataclasses

import numpy as np
import pytest

from anumrad import (
    CONSTRUCTIONS,
    InstanceSpec,
    ProbeRetryError,
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
    spectral_norm,
    witness_value,
)
from anumrad import bounds, harness, radius
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
            {"dim": 3, "rank_a": 0, "construction": "nonadjointable_probe"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            InstanceSpec(**kwargs)

    @pytest.mark.parametrize("bad", [True, False, 4.0, 2.5, None, "4"])
    @pytest.mark.parametrize("name", ["dim", "rank_a", "seed"])
    def test_rejects_non_integer_counts_before_drawing(self, monkeypatch, name, bad):
        # a bool would act as 0 or 1, a float would fail only inside numpy
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before validating the spec")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            gen_instance(InstanceSpec(**{"dim": 4, "rank_a": 2, "seed": 0, name: bad}))

    @pytest.mark.parametrize("bad", [True, None, "1.0"])
    def test_rejects_non_numeric_scale(self, bad):
        with pytest.raises(TypeError):
            InstanceSpec(dim=4, rank_a=2, scale=bad)

    @pytest.mark.parametrize("name", ["dim", "rank_a", "seed"])
    def test_rejects_negative_counts(self, name):
        with pytest.raises(ValueError, match=name):
            InstanceSpec(**{"dim": 4, "rank_a": 2, "seed": 0, name: -1})

    def test_stores_numpy_integers_as_int(self):
        spec = InstanceSpec(dim=np.int64(4), rank_a=np.int32(2), seed=np.uint16(3))
        assert (spec.dim, spec.rank_a, spec.seed) == (4, 2, 3)
        assert all(type(v) is int for v in (spec.dim, spec.rank_a, spec.seed))
        a, t = gen_instance(spec)
        a0, t0 = gen_instance(InstanceSpec(dim=4, rank_a=2, seed=3))
        assert np.array_equal(a, a0) and np.array_equal(t, t0)


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

    def test_probe_is_one_draw(self, monkeypatch):
        calls = []

        def counting(ctx, t):
            calls.append(ctx.dim)
            return is_adjointable(ctx, t)

        monkeypatch.setattr(harness, "is_adjointable", counting)
        specs = [
            InstanceSpec(dim=n, rank_a=r, construction="nonadjointable_probe", seed=seed)
            for n in range(2, 9)
            for r in range(1, n)
            for seed in range(3)
        ]
        for spec in specs:
            gen_instance(spec)
        assert len(calls) == len(specs)

    def test_adjointable_probe_draw_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "is_adjointable", lambda ctx, t: True)
        spec = InstanceSpec(dim=3, rank_a=2, construction="nonadjointable_probe", seed=5)
        with pytest.raises(ProbeRetryError):
            gen_instance(spec)

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
        "kwargs",
        [
            {"dims": ()},
            {"constructions": ()},
            {"n_instances": -1},
            {"n_instances": 0, "grid_n": 3},
            {"n_instances": 0, "seed": -5},
            {"dims": (2, 99)},
            {"n_instances": 0, "dims": (1, 99)},
            {"n_instances": 0, "dims": (65,)},
        ],
    )
    def test_config_rejects_empty_or_negative(self, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_instances": 2.0},
            {"seed": 1.5},
            {"grid_n": 720.0},
            {"grid_n": np.float64(720.0)},
            {"dims": (3.0,)},
            {"dims": (2, 3.5)},
            {"n_instances": True},
        ],
    )
    def test_config_rejects_non_integer_counts(self, kwargs):
        with pytest.raises(TypeError, match="must be an integer"):
            SuiteConfig(**kwargs)

    def test_config_stores_numpy_integers_as_int(self):
        config = SuiteConfig(
            n_instances=np.int64(2),
            dims=(np.int32(3),),
            seed=np.uint8(5),
            grid_n=np.int64(64),
        )
        values = (config.n_instances, *config.dims, config.seed, config.grid_n)
        assert values == (2, 3, 5, 64)
        assert all(type(v) is int for v in values)
        assert run_suite(config).ok

    def test_config_allows_zero_instances(self):
        assert SuiteConfig(n_instances=0).instance_specs() == []
        assert run_suite(SuiteConfig(n_instances=0)).evaluations == []

    def test_small_suite_clean(self):
        config = SuiteConfig(n_instances=12, dims=(2, 3, 4), seed=5)
        report = run_suite(config)
        assert report.ok
        assert report.counterexamples == []
        assert len(report.evaluations) == 12
        assert all(ev.adjointable for ev in report.evaluations)
        assert all(ev.rad.lower <= ev.rad.upper for ev in report.evaluations)

    def test_equality_stage_evaluates_one_profile(self, monkeypatch):
        # bounds.phase_profile is read only by the equality diagnostics; the
        # radius scans call radius.phase_profile.
        calls = []
        profile = bounds.phase_profile

        def recording(op, thetas):
            calls.append(int(np.size(thetas)))
            return profile(op, thetas)

        monkeypatch.setattr(bounds, "phase_profile", recording)
        config = SuiteConfig(n_instances=7, seed=42)
        assert [s.dim for s in config.instance_specs()] == list(range(2, 9))
        for i, spec in enumerate(config.instance_specs()):
            calls.clear()
            ev = evaluate_instance(spec, config, index=i)
            assert ev.adjointable
            assert calls == [180]

    def test_probe_instances_recorded_not_flagged(self):
        spec = InstanceSpec(dim=3, rank_a=1, construction="nonadjointable_probe", seed=2)
        ev = evaluate_instance(spec, SuiteConfig(n_instances=1))
        assert not ev.adjointable
        assert ev.violations == []
        assert ev.rad is None

    def test_evaluate_instance_draws_no_samples(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("radius_sampling called")

        monkeypatch.setattr(radius, "radius_sampling", refuse)
        monkeypatch.setattr(harness, "radius_sampling", refuse, raising=False)
        config = SuiteConfig(n_instances=7, seed=42)
        for i, spec in enumerate(config.instance_specs()):
            ev = evaluate_instance(spec, config, index=i)
            assert ev.violations == []
            assert ev.rad.lower <= ev.witness_value <= ev.rad.upper
            assert ev.sampled == ev.witness_value
            assert ev.witness_value == witness_value(ev.op, ev.rad.theta_star)

    @pytest.mark.parametrize("shift", [1e-6, -1e-6])
    def test_witness_flags_a_shifted_enclosure(self, monkeypatch, shift):
        # At grid 2880 every enclosure here is narrower than 1e-6 relative,
        # so shifting both ends by 1e-6 relative, up or down, moves the
        # enclosure off the witness value.
        scan = harness.radius_theta_scan

        def shifted(op, grid_n):
            rad = scan(op, grid_n)
            assert rad.upper - rad.lower < 1e-6 * rad.upper
            return dataclasses.replace(rad, lower=rad.lower * (1 + shift), upper=rad.upper * (1 + shift))

        monkeypatch.setattr(harness, "radius_theta_scan", shifted)
        config = SuiteConfig(n_instances=7, seed=42, grid_n=2880, constructions=("random", "nilpotent_half"))
        for i, spec in enumerate(config.instance_specs()):
            ev = evaluate_instance(spec, config, index=i)
            assert f"[{i}] witness value outside the certified enclosure" in ev.violations

    def test_constructions_tuple_is_complete(self):
        assert set(CONSTRUCTIONS) == {
            "random",
            "nilpotent_half",
            "shared_eigenbasis_selfadjoint",
            "nonadjointable_probe",
        }
