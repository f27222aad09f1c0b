import json
import math
import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import potlab
from potlab import ConfigError, ExperimentConfig
from potlab import capacity as cap
from potlab import orthopoly as op
from potlab.cli import main as cli_main
from potlab.experiments import (run_prop1, run_stahl_circle,
                                run_stahl_segment, run_leja_only,
                                run_capacity_only, _vdiff_circle,
                                _vdiff_segment_w, _sample_lune_preimage,
                                _cheb_level_set, _certified,
                                _trace_cheb_lemniscate, _scan_grid,
                                _badset_grid_count, _write_run)
from potlab.potentials import phi_np


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"experiment": "prop1", "foo": 3})

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json({"q": 0.4})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope")

    def test_bad_eps_rho(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="stahl_circle", eps=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="stahl_circle", rho=1.0)

    def test_prop1_q_range(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="prop1", q=0.6)

    @settings(max_examples=200, deadline=None)
    @given(q=st.floats(0, 0.5, exclude_min=True, exclude_max=True),
           n_max=st.integers(1, 39),
           cascade=st.sampled_from(["stabilized", "power"]))
    @example(q=1e-310, n_max=2, cascade="stabilized")
    @example(q=5e-324, n_max=1, cascade="power")
    def test_prop1_any_q_builds_or_is_refused(self, q, n_max, cascade):
        #  subnormal q included, where 1 / q overflows float64
        try:
            ExperimentConfig(experiment="prop1", q=q, n_max=n_max,
                             cascade=cascade)
        except ConfigError:
            pass

    def test_n_beyond_n_max_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="prop1", n_list=(2, 9), n_max=4)

    @pytest.mark.parametrize("n_max, n_list", [(5, (2, 3, 4, 5)), (2, (2,)),
                                               (1, (1,))])
    def test_n_max_alone_sets_the_degrees(self, n_max, n_list):
        cfg = ExperimentConfig(experiment="prop1", n_max=n_max, bits=1024,
                               leja_n=10, grid_size=512)
        assert (cfg.n_list, cfg.n_max) == (n_list, n_max)

    @pytest.mark.parametrize("kw", [
        {"experiment": "stahl_circle", "eps": float("nan")},
        {"experiment": "stahl_circle", "rho": float("nan")},
        {"experiment": "stahl_circle", "scan_grid": (0, 0)},
        {"experiment": "capacity_only", "fekete_n": 7},
        {"experiment": "stahl_circle", "n_list": (0, 8)},
        {"experiment": "prop1", "bits": 1024},
        {"experiment": "prop1", "cascade": "geometric"},
        {"experiment": "capacity_only", "eps": 0.01},
        {"experiment": "leja_only", "grid_size": 1},
        {"experiment": "prop1", "target": "blend:abc"},
        {"experiment": "leja_only", "target": "blend:1.5"},
        {"experiment": "prop1", "target": "blend:nan"},
        {"experiment": "prop1", "target": "none"},
        {"experiment": "leja_only", "leja_n": 0},
        {"experiment": "leja_only", "leja_n": -3},
        {"experiment": "stahl_circle", "seed": -1},
        {"experiment": "prop1", "seed": -1},
        {"experiment": "leja_only", "grid_size": 3, "leja_n": 10},
        {"experiment": "prop1", "grid_size": 100},
        {"experiment": "prop1", "grid_size": 6, "leja_n": 4,
         "n_list": (2, 7)},
        {"experiment": "stahl_circle", "seed": 1.5},
        {"experiment": "leja_only", "leja_n": 2.5},
        {"experiment": "leja_only", "leja_n": True},
        {"experiment": "stahl_circle", "eps": "0.1"},
        {"experiment": "capacity_only", "fekete_n": 64.5},
        {"experiment": "stahl_segment", "n_list": 8},
        {"experiment": "leja_only", "grid_size": 4096.5},
        {"experiment": "stahl_segment", "n_list": (8.7,)},
        {"experiment": "stahl_circle", "scan_grid": (100.5, 60)},
        {"experiment": "stahl_circle", "bits": 100.5},
        {"experiment": "stahl_circle", "plot": "no"},
        {"experiment": "prop1", "n_list": (3, 2)},
        {"experiment": "leja_only", "bits": -5, "leja_n": 20},
        {"experiment": "leja_only", "bits": 10, "target": "uniform"},
        {"experiment": "stahl_circle", "bits": 63},
        {"experiment": "prop1", "n_max": 0},
        {"experiment": "prop1", "n_max": -3},
    ], ids=["eps_nan", "rho_nan", "scan_grid_zero", "fekete_n_below_8",
            "n_list_zero", "bits_below_precision_floor", "unknown_cascade",
            "capacity_eps_below_lune_floor", "grid_size_below_2",
            "blend_weight_not_a_number", "blend_weight_above_1",
            "blend_weight_nan", "target_none_for_prop1", "leja_n_zero",
            "leja_n_negative", "seed_negative", "seed_negative_prop1",
            "grid_size_below_leja_n", "grid_size_below_prop1_leja_n",
            "grid_size_below_n_max", "seed_float", "leja_n_float",
            "leja_n_bool", "eps_string", "fekete_n_float", "n_list_scalar",
            "grid_size_float", "n_list_float_entry", "scan_grid_float",
            "bits_float", "plot_string", "n_list_unordered",
            "bits_negative_leja", "bits_below_64_leja",
            "bits_below_64_circle", "n_max_zero", "n_max_negative"])
    def test_config_holes_rejected(self, kw):
        #  the scan grid and the Fekete point count are constants, so
        #  their keys are refused whatever their value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(kw)

    def test_flag_overrides(self):
        cfg = ExperimentConfig.from_json(
            {"experiment": "stahl_circle", "bits": 128}, bits=256, out_dir="x")
        assert cfg.bits == 256 and cfg.out_dir == "x"


class TestVdiffFormulas:
    def test_circle_log_domain_identity(self):
        #  -(1/n) log|1 - z^-n| equals (1/n) log(|z|^n / |z^n - 1|)
        for z in (1.3 + 0.4j, 2.0, 1.01j + 1.0):
            for n in (5, 17):
                direct = (n * math.log(abs(z))
                          - math.log(abs(z ** n - 1))) / n
                assert _vdiff_circle(np.array([z]), n)[0] \
                    == pytest.approx(direct, rel=1e-10)

    def test_segment_log_domain_identity(self):
        for z in (1.4 + 0.3j, -2.0 + 0.1j):
            n = 9
            #  monic Chebyshev |T_n(z)| = |phi^n + phi^-n| / 2^n
            p = phi_np(np.array([z]))[0]
            tm = abs((p ** n + p ** (-float(n))) / 2.0 ** n)
            direct = -math.log(tm) / n - (math.log(2)
                                          - math.log(abs(phi_np(np.array([z]))[0])))
            w = phi_np(np.array([z]))
            assert _vdiff_segment_w(w, n)[0] == pytest.approx(direct,
                                                              rel=1e-9)

    @pytest.mark.parametrize("n", [1000, 5000, 100000])
    def test_log_domain_at_large_n(self, n):
        #  z^-n underflows to 0 quietly, where 1 / z^n would overflow
        z = np.array([1.5, 3 + 4j, 1e10, -2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for vdiff in (_vdiff_circle, _vdiff_segment_w):
                assert np.all(vdiff(z, n) == 0)
                assert np.all(vdiff(z.real[[0, 2, 3]], n) == 0)

    def test_lune_preimage_members_satisfy_inequality(self):
        rng = np.random.default_rng(0)
        for n in (8, 32):
            zs = _sample_lune_preimage(n, math.exp(-n * 0.1), rng)
            d = _vdiff_circle(zs, n)
            assert np.all(np.abs(d) >= 0.1)
            assert np.all(np.abs(zs) >= 1)


def _same_bits(got, want):
    return (np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


class TestExponentForms:
    """The level function and the two deviations against the expressions
    with a second complex power that they replace.  numpy's integer-
    exponent power loop forms p ** -float(n) as np.divide(1, p ** n) for
    3 <= n <= 99; a numpy whose power loop changes fails here."""

    @staticmethod
    def _traced_points(n):
        g, roots, level = _cheb_level_set(n, 0.1)
        seen = []

        def spy(z):
            seen.append(np.array(z))
            return g(z)

        cap.trace_level_curve(spy, roots, level, 64)
        return g, np.concatenate(seen)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 64, 99, 100, 128])
    def test_level_function(self, n):
        g, z = self._traced_points(n)
        p = phi_np(z)
        want = np.abs(p ** n + p ** (-float(n)))
        got = g(z)
        if 3 <= n <= 99:
            assert _same_bits(got, want)
        else:
            #  ulps of the terms: next to a zero the sum cancels
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(p ** n)))

    @pytest.mark.parametrize("n", [1, 2, 8, 64, 128])
    def test_deviations(self, n):
        grid = _scan_grid(types.SimpleNamespace(rho=1.5))
        _, z = self._traced_points(8)
        for w in (grid, grid[:40], phi_np(z)):
            before = w.copy()
            with np.errstate(divide="ignore"):
                assert _same_bits(_vdiff_segment_w(w, n),
                                  -np.log(np.abs(1 + w ** (-2.0 * n))) / n)
                assert _same_bits(_vdiff_circle(w, n),
                                  -np.log(np.abs(1 - w ** (-float(n)))) / n)
            assert _same_bits(w.view(float), before.view(float))


class TestBadsetGridCount:
    """The count over the radius rows that can hold a bad point equals
    the count over the whole grid."""

    DEMOS = [(_vdiff_circle, 1), (_vdiff_segment_w, 2)]    # p = mult * n
    EPS = (1e-12, 1e-6, 0.02, 0.1, 0.5)
    NS = (1, 2, 3, 8, 16, 64, 128)

    @pytest.mark.parametrize("rho", [1.001, 1.2345, 1.5, 3.0])
    def test_scan_grid_is_the_meshgrid(self, rho):
        radii = 1 + (rho - 1) * ((np.arange(512) + 1) / 512) ** 3
        R, T = np.meshgrid(radii, 2 * np.pi * np.arange(256) / 256,
                           indexing="ij")
        want = (R * np.exp(1j * T)).view(float)
        got = _scan_grid(types.SimpleNamespace(rho=rho)).view(float)
        assert got.shape == (512, 512)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("rho", [1.001, 1.5, 3.0])
    def test_equals_full_grid_count(self, rho):
        grid = _scan_grid(types.SimpleNamespace(rho=rho))
        for vdiff, mult in self.DEMOS:
            for n in self.NS:
                dev = np.abs(vdiff(grid, n))
                for eps in self.EPS:
                    assert _badset_grid_count(grid, vdiff, n, mult * n, eps) \
                        == int(np.sum(dev >= eps)), (vdiff, n, eps)

    @pytest.mark.parametrize("eps", EPS)
    def test_rows_at_the_bound(self, eps):
        #  radii within 60 ulps and within 1e-8 of where |w|^-p equals
        #  1 - e^(-n eps): there rounding decides which points are bad,
        #  and at eps = 1e-12 it does so over a relative width above 1e-9
        angles = np.exp(1j * (2 * np.pi * np.arange(256) / 256))
        for vdiff, mult in self.DEMOS:
            for n in self.NS:
                r = (-math.expm1(-n * eps)) ** (-1 / (mult * n))
                radii = np.concatenate([
                    r + np.spacing(r) * np.arange(-60, 61),
                    r * (1 + np.linspace(-1e-8, 1e-8, 201))])
                grid = radii[radii > 1][:, None] * angles
                full = int(np.sum(np.abs(vdiff(grid, n)) >= eps))
                assert _badset_grid_count(grid, vdiff, n, mult * n,
                                          eps) == full, (vdiff, n)


@pytest.fixture(scope="module")
def circle_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("circle")
    cfg = ExperimentConfig(experiment="stahl_circle", n_list=(4, 8, 16),
                           out_dir=str(out))
    return run_stahl_circle(cfg), out


@pytest.fixture(scope="module")
def segment_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("segment")
    cfg = ExperimentConfig(experiment="stahl_segment", n_list=(8, 16),
                           out_dir=str(out))
    return run_stahl_segment(cfg)


@pytest.fixture(scope="module")
def prop1_outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("prop1")
    cfg = ExperimentConfig(experiment="prop1", q=0.4, n_list=(2, 3, 4),
                           n_max=4, bits=512, leja_n=30, grid_size=1024,
                           out_dir=str(out), plot=True)
    return run_prop1(cfg), out


class TestStahlCircle:
    @pytest.fixture
    def report(self, circle_report):
        return circle_report

    def test_passes(self, report):
        rep, _ = report
        assert rep["pass"]

    def test_ks_exact(self, report):
        rep, _ = report
        by_n = {e["n"]: e for e in rep["per_n"]}
        assert by_n[4]["ks"] == pytest.approx(0.25, abs=1e-15)
        assert by_n[8]["ks"] == pytest.approx(0.125, abs=1e-15)

    def test_analytic_bound_value(self, report):
        rep, _ = report
        by_n = {e["n"]: e for e in rep["per_n"]}
        want16 = 0.25 ** (1 / 16) * math.exp(-0.1)
        assert by_n[16]["bound_analytic"] == pytest.approx(want16, abs=1e-14)
        assert 0.82 < want16 < 0.84

    def test_certificates_complete(self, report):
        rep, _ = report
        for e in rep["per_n"]:
            assert e["certified_samples"] == e["sample_count"]
            assert e["preimage_in_K_rho"]

    def test_bounds_nondecreasing(self, report):
        rep, _ = report
        bs = [e["bound_analytic"] for e in rep["per_n"]]
        assert bs == sorted(bs)
        assert rep["non_decay"]

    def test_cap_estimate_in_enclosure_ballpark(self, report):
        rep, _ = report
        for e in rep["per_n"]:
            lo, hi = e["cap_enclosure"]
            assert 0.8 * lo < e["cap_estimate"] < 1.2 * hi

    def test_outputs_written(self, report):
        _, out = report
        assert (out / "summary.json").exists()
        assert (out / "stahl_circle.csv").exists()

    def test_empty_sample_is_refused(self, tmp_path):
        #  at n = 32 the lune of radius e^-32 lies inside the |w| >= 1 + 1e-9
        #  margin of the sampler, which keeps no point
        cfg = ExperimentConfig(experiment="stahl_circle", eps=1.0,
                               n_list=(8, 32), out_dir=str(tmp_path / "o"))
        assert len(_sample_lune_preimage(32, math.exp(-32),
                                         np.random.default_rng(1))) == 0
        with pytest.raises(cap.DegenerateRegion,
                           match=r"1\.27e-14 at n = 32 .* 1e-9 margin"):
            run_stahl_circle(cfg)
        assert not (tmp_path / "o").exists()


class TestStahlSegment:
    @pytest.fixture
    def report(self, segment_report):
        return segment_report

    def test_passes(self, report):
        assert report["pass"]

    def test_ks_is_half_over_n(self, report):
        for e in report["per_n"]:
            assert e["ks"] == pytest.approx(1 / (2 * e["n"]), abs=1e-12)

    def test_constant_bound(self, report):
        for e in report["per_n"]:
            assert e["bound_analytic"] == pytest.approx(math.exp(-0.1) / 2,
                                                        abs=1e-15)

    def test_certificates(self, report):
        for e in report["per_n"]:
            assert e["certified_samples"] == e["sample_count"]
            assert e["lemniscate_in_K_rho"]

    def test_cap_estimate_near_analytic(self, report):
        for e in report["per_n"]:
            assert e["cap_estimate"] == pytest.approx(math.exp(-0.1) / 2,
                                                      rel=0.10)

    @pytest.mark.parametrize("n", [8, 33])
    def test_cheb_tracers_against_level(self, n):
        #  2^n |T_n| = |phi^n + phi^-n| is the value both tracers bisect
        level = math.exp(-n * 0.1)

        def g(z):
            w = phi_np(z)
            return np.abs(w ** n + w ** (-float(n)))

        bdry, samples = _trace_cheb_lemniscate(*_cheb_level_set(n, 0.1))
        assert np.max(np.abs(g(bdry) - level)) < 1e-9 * level
        assert np.all(g(samples) < level)

    @pytest.mark.parametrize("n", [8, 16, 33])
    @pytest.mark.parametrize("eps", [0.05, 0.3])
    def test_samples_are_the_16_ray_trace(self, n, eps):
        z0, d, lo, _ = cap.trace_level_curve(*_cheb_level_set(n, eps), 16)
        _, samples = _trace_cheb_lemniscate(*_cheb_level_set(n, eps))
        assert np.array_equal(samples, z0 + 0.9 * lo * d)

    def test_crossings_nearer_than_1e9_are_certified(self, tmp_path):
        #  at eps = 1 some n = 16 crossings lie within 1e-9 of their zero
        cfg = ExperimentConfig(experiment="stahl_segment", eps=1.0,
                               n_list=(8, 16), out_dir=str(tmp_path))
        rep = run_stahl_segment(cfg)
        assert [(e["certified_samples"], e["sample_count"])
                for e in rep["per_n"]] == [(128, 128), (256, 256)]
        assert rep["pass"]

    def test_lemniscate_beyond_rho_fails(self, tmp_path):
        #  the traced boundary reaches |phi| = 1.042 > rho, the interior
        #  samples only 1.038
        cfg = ExperimentConfig(experiment="stahl_segment", eps=0.05,
                               rho=1.04, n_list=(8,), out_dir=str(tmp_path))
        rep = run_stahl_segment(cfg)
        assert not rep["per_n"][0]["lemniscate_in_K_rho"]
        assert not rep["pass"]
        assert not json.loads((tmp_path / "summary.json").read_text())["pass"]


@pytest.mark.parametrize("runner, experiment, flag", [
    (run_stahl_circle, "stahl_circle", "preimage_in_K_rho"),
    (run_stahl_segment, "stahl_segment", "lemniscate_in_K_rho")])
def test_demos_pass_in_a_tight_neighbourhood(tmp_path, runner, experiment,
                                             flag):
    #  Part 2's "any neighbourhood": at rho = 1.001 the bad sets of degrees
    #  64 and 128 still lie in K_rho, every sample certified
    cfg = ExperimentConfig(experiment=experiment, rho=1.001,
                           n_list=(64, 128), out_dir=str(tmp_path))
    rep = runner(cfg)
    assert rep["pass"]
    assert all(e[flag] for e in rep["per_n"])


class TestCertified:
    def test_counts_members_at_or_beyond_eps(self):
        samples = np.array([1 + 1j, 2 + 0j, 3 - 1j, 4 + 2j])
        dev = np.array([0.5, -0.2, 0.05, 0.1])
        members = np.array([True, True, True, False])
        cert, pts = _certified(samples, dev, 0.1, members)
        #  3-1j misses eps and 4+2j is no member: neither counts, and
        #  neither raises
        assert cert == 2
        assert pts == [[1.0, 1.0], [2.0, 0.0]]

    def test_returns_at_most_50_points(self):
        samples = np.arange(80) + 0.5j
        cert, pts = _certified(samples, np.ones(80), 0.1,
                               np.ones(80, dtype=bool))
        assert cert == 80
        assert pts == [[float(k), 0.5] for k in range(50)]


class TestProp1:
    @pytest.fixture
    def outcome(self, prop1_outcome):
        return prop1_outcome

    def test_passes(self, outcome):
        rep, _ = outcome
        assert rep["pass"]
        for e in rep["per_n"]:
            assert e["stability_pass"]
            assert e["margin"] >= 2

    def test_files(self, outcome):
        _, out = outcome
        for name in ("leja.csv", "sigma.csv", "equidistribution.csv",
                     "stability.csv", "residuals.csv", "summary.json",
                     "points.svg", "zeros.svg", "deviation.svg", "ks.svg"):
            assert (out / name).exists(), name

    def test_residuals_present(self, outcome):
        rep, _ = outcome
        assert "2.0" in rep["per_n"][0]["residuals"]

    def test_csv_headers(self, outcome):
        _, out = outcome
        heads = {name: (out / name).read_text().splitlines()[0]
                 for name in ("leja.csv", "stability.csv", "residuals.csv")}
        assert heads == {"leja.csv": "index,x",
                         "stability.csv":
                             "n,k,root,paired_leja,deviation,bound",
                         "residuals.csv": "n,z,residual"}

    def test_ks_of_zeros_close_to_leja_ks(self, outcome):
        #  zeros hug the atoms, so the empirical CDFs nearly coincide
        rep, _ = outcome
        ks_leja4 = rep["ks_leja"]["4"]
        ks_zero4 = next(e["ks"] for e in rep["per_n"] if e["n"] == 4)
        assert abs(ks_zero4 - ks_leja4) < 10 * 0.4 ** 16 + 1e-12

    def test_zero_fallbacks_reported(self, outcome):
        #  every stability-stage root had a certified enclosure
        rep, out = outcome
        written = json.loads((out / "summary.json").read_text())
        for e in rep["per_n"] + written["per_n"]:
            assert e["zero_fallbacks"] == 0

    def test_blend_target_pipeline(self, tmp_path):
        cfg = ExperimentConfig(experiment="prop1", q=0.4, n_list=(2, 3),
                               n_max=3, bits=512, leja_n=20, grid_size=512,
                               target="blend:0.5", out_dir=str(tmp_path))
        rep = run_prop1(cfg)
        assert rep["pass"]

    def test_each_zero_set_computed_once(self, tmp_path, monkeypatch):
        #  the power cascade finds no zeros in build_sigma, so every call
        #  comes from the stability and residual stages
        degrees = []
        inner = op.orthopoly_zeros

        def recording(rc, n):
            degrees.append(n)
            return inner(rc, n)

        monkeypatch.setattr(op, "orthopoly_zeros", recording)
        cfg = ExperimentConfig(experiment="prop1", n_list=(1, 2),
                               cascade="power", bits=256, leja_n=20,
                               out_dir=str(tmp_path))
        run_prop1(cfg)
        assert degrees == [1, 2]

    def test_one_recurrence_for_the_stability_stage(self, tmp_path,
                                                    monkeypatch):
        #  the power cascade builds no recurrence in build_sigma, so every
        #  call comes from the stability stage, which reads each degree
        #  from prefixes of one recurrence
        lengths = []
        inner = op.stieltjes_recurrence

        def recording(m, n):
            lengths.append(n)
            return inner(m, n)

        monkeypatch.setattr(op, "stieltjes_recurrence", recording)
        cfg = ExperimentConfig(experiment="prop1", n_list=(1, 2, 3),
                               cascade="power", bits=256, leja_n=20,
                               out_dir=str(tmp_path))
        run_prop1(cfg)
        assert lengths == [3]


class TestDeterminism:
    #  the same config gives the same bytes whatever the output directory:
    #  run twice into two directories and require byte-identical files

    @staticmethod
    def _two_runs(runner, tmp_path, **config):
        files = []
        for name in ("first", "second_run"):
            runner(ExperimentConfig(**config, out_dir=str(tmp_path / name)))
            files.append({p.name: p.read_bytes()
                          for p in (tmp_path / name).iterdir()})
        return files

    def test_prop1_byte_identical(self, tmp_path):
        first, second = self._two_runs(
            run_prop1, tmp_path, experiment="prop1", q=0.4, n_list=(2, 3),
            n_max=3, bits=512, leja_n=20, grid_size=512, plot=True)
        assert first.keys() == second.keys()
        for k in first:
            assert first[k] == second[k], f"{k} differs between runs"

    def test_stahl_circle_byte_identical(self, tmp_path):
        first, second = self._two_runs(
            run_stahl_circle, tmp_path, experiment="stahl_circle",
            n_list=(4, 8))
        assert first == second


class TestPlots:
    def test_empty_scatter_is_valid_svg(self):
        from potlab.svgplot import scatter_svg
        text = scatter_svg([], title="nothing")
        assert text.startswith("<?xml") and "</svg>" in text
        assert "<circle" not in text

    def test_scatter_glyph_count(self):
        from potlab.svgplot import scatter_svg
        pts = [(x, 0.0) for x in np.linspace(-1, 1, 200)]
        text = scatter_svg(pts, xlim=(-1, 1), ylim=(-1, 1))
        assert text.count("<circle") == 200

    def test_polyline_vertices(self):
        from potlab.svgplot import line_chart_svg
        text = line_chart_svg([2, 4, 6], [0.5, 0.25, 0.1])
        assert text.count("<polyline") == 1
        coords = text.split('points="')[1].split('"')[0]
        assert len(coords.split()) == 3


class TestRunners:
    def test_leja_only(self, tmp_path):
        cfg = ExperimentConfig(experiment="leja_only", leja_n=50,
                               grid_size=512, target="none",
                               out_dir=str(tmp_path))
        rep = run_leja_only(cfg)
        assert rep["pass"]
        assert (tmp_path / "leja.csv").exists()

    def test_leja_csv_deterministic(self, tmp_path):
        cfg = ExperimentConfig(experiment="leja_only", leja_n=20,
                               grid_size=512, target="none",
                               out_dir=str(tmp_path))
        run_leja_only(cfg)
        first = (tmp_path / "leja.csv").read_bytes()
        run_leja_only(cfg)
        second = (tmp_path / "leja.csv").read_bytes()
        assert first == second
        lines = first.decode().splitlines()
        assert lines[0] == "index,x" and len(lines) == 21

    def test_capacity_only(self, tmp_path):
        cfg = ExperimentConfig(experiment="capacity_only",
                               out_dir=str(tmp_path))
        rep = run_capacity_only(cfg)
        assert rep["pass"]

    def test_capacity_only_estimates(self, tmp_path):
        #  the four estimates perfbench/reference.json pins for this runner
        rep = run_capacity_only(ExperimentConfig(experiment="capacity_only",
                                                 out_dir=str(tmp_path)))
        got = [c["estimate"] for c in rep["checks"]]
        got.append(rep["lune"]["estimate"])
        assert got == pytest.approx([1.0000000000000002, 0.5054976681563711,
                                     0.9013193255469313, 0.10629459636205506],
                                    rel=1e-9)


def _strict_json(path):
    """The JSON in the file at path, refusing NaN and +-Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


class TestStrictSummary:
    """summary.json holds strict JSON: a value that is not finite is null."""

    def test_single_point_separation_is_null(self, tmp_path):
        run_leja_only(ExperimentConfig(experiment="leja_only", leja_n=1,
                                       out_dir=str(tmp_path)))
        s = _strict_json(tmp_path / "summary.json")
        assert s["separation"] is None and s["pass"] is True

    def test_overflowing_margin_is_null(self, tmp_path):
        #  at n = 13 the bound over the deviation is about 1e900, past float
        cfg = ExperimentConfig(experiment="prop1", q=0.4,
                               n_list=tuple(range(2, 14)), bits=3380,
                               leja_n=200, target="arcsine",
                               out_dir=str(tmp_path))
        run_prop1(cfg)
        per_n = _strict_json(tmp_path / "summary.json")["per_n"]
        assert per_n[-1]["n"] == 13 and per_n[-1]["margin"] is None
        assert all(e["margin"] is None or e["margin"] >= 2 for e in per_n)

    def test_non_finite_value_is_refused(self, tmp_path):
        cfg = ExperimentConfig(experiment="leja_only",
                               out_dir=str(tmp_path / "out"))
        with pytest.raises(ValueError):
            _write_run(cfg, {"separation": math.inf})
        assert not (tmp_path / "out").exists()


class TestPublicApi:
    def test_exported_names(self):
        #  a change to the public surface is a deliberate edit of this set
        names = {n for n in potlab.__all__
                 if not isinstance(getattr(potlab, n), types.ModuleType)}
        assert names == {
            "PrecisionContext", "PrecisionTooLow",
            "DiscreteMeasure", "TargetMeasure", "ks_distance", "separation",
            "equilibrium_potential_segment",
            "target_arcsine", "target_blend", "target_uniform",
            "DegenerateGrid", "chebyshev_grid", "generate",
            "verify_weighted_asymptotics",
            "BreakdownError", "PairingFailure", "RecurrenceCoeffs",
            "SigmaBuildConfig", "ZeroSet", "build_sigma",
            "epsilon_stress_test", "orthopoly_zeros", "precision_floor",
            "stieltjes_recurrence", "zero_stability_check",
            "DegenerateRegion", "RegionDescriptor",
            "TracingFailure", "greedy_fekete_capacity",
            "lune_capacity_bounds", "preimage_capacity_check",
            "ConfigError", "ExperimentConfig", "run"}


def _fresh_python(code, *args):
    """stdout of `code` run with args in a fresh interpreter on this potlab."""
    src = os.path.dirname(os.path.dirname(potlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


#  run a CLI command in-process, then print whether mpmath was loaded
_RUN_AND_REPORT = """
import sys
from potlab.cli import main
assert main(sys.argv[1:]) == 0
print("mpmath" in sys.modules)
"""


class TestLazyBigFloat:
    """Only prop1 and the big-float API load mpmath: potlab.orthopoly is
    registered in sys.modules unexecuted and runs on first attribute use."""

    @pytest.mark.parametrize("command, config", [
        ("stahl-circle", {"n_list": [8, 16]}),
        ("stahl-segment", {"n_list": [8, 16]}),
        ("leja", {}),
        ("capacity", {}),
        ("prop1", {"n_list": [2, 3], "bits": 512, "leja_n": 20}),
    ])
    def test_only_prop1_loads_mpmath(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = _fresh_python(_RUN_AND_REPORT, command, "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
        assert out.splitlines()[-1] == str(command == "prop1")

    def test_import_registers_orthopoly_unexecuted(self):
        out = _fresh_python(
            "import sys, potlab\n"
            "m = sys.modules['potlab.orthopoly']\n"
            "print(m is potlab.orthopoly,\n"
            "      'build_sigma' in object.__getattribute__(m, '__dict__'),\n"
            "      'mpmath' in sys.modules)")
        assert out.split() == ["True", "False", "False"]

    def test_vars_executes_orthopoly(self):
        #  perfbench/tracer.py reads the layer modules through vars()
        out = _fresh_python(
            "import sys, potlab.cli\n"
            "print('build_sigma' in vars(sys.modules['potlab.orthopoly']))")
        assert out.split() == ["True"]

    def test_orthopoly_names_from_the_package(self):
        out = _fresh_python(
            "import potlab.orthopoly as op\n"
            "from potlab import build_sigma, BreakdownError\n"
            "print(build_sigma is op.build_sigma,\n"
            "      BreakdownError is op.BreakdownError)")
        assert out.split() == ["True", "True"]
        assert potlab.zero_stability_check is op.zero_stability_check
        assert "build_sigma" in dir(potlab)
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            potlab.nope


CONFIG, PRECISION = "config error: ", "precision error: "


def _refused(tmp_path, capsys, monkeypatch, command, config, prefix,
             fragment, exact=False, patch=None):
    """Run `potlab <command> --config cfg.json --out out` and check the
    refusal contract: exit 2, empty stdout, one stderr line that starts
    with prefix and holds fragment (is prefix + fragment when exact), no
    traceback and nothing written beside cfg.json.  config is the JSON
    value or the raw text of cfg.json (None: no file); patch names a
    function made to raise PrecisionTooLow(fragment)."""
    def refuse(*args):
        raise potlab.PrecisionTooLow(fragment)

    if patch:
        monkeypatch.setattr(patch, refuse)
    cfgfile = tmp_path / "cfg.json"
    if config is not None:
        cfgfile.write_text(config if isinstance(config, str)
                           else json.dumps(config))
    rc = cli_main(command.split() + ["--config", str(cfgfile),
                                     "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert err.startswith(prefix) and fragment in err
    assert "Traceback" not in err
    assert not exact or err == prefix + fragment + "\n"
    assert {p.name for p in tmp_path.iterdir()} <= {"cfg.json"}


def _refusal_test(cases):
    """A TestCli test running _refused on one case, a tuple of its
    arguments from command on, or on each case of a dict by test id."""
    if isinstance(cases, tuple):
        def test(self, tmp_path, capsys, monkeypatch):
            _refused(tmp_path, capsys, monkeypatch, *cases)
        return test

    @pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))
    def test(self, tmp_path, capsys, monkeypatch, case):
        _refused(tmp_path, capsys, monkeypatch, *case)
    return test


class TestCli:
    def test_capacity_subcommand(self, tmp_path, capsys):
        rc = cli_main(["capacity", "--out", str(tmp_path)])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_leja_subcommand_with_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"leja_n": 40, "grid_size": 512,
                                       "target": "arcsine"}))
        rc = cli_main(["leja", "--config", str(cfgfile),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "summary.json").exists()

    #  refused runs: (command, config, prefix, fragment[, exact[, patch]])
    test_unknown_config_key_exits_2 = _refusal_test(
        ("leja", {"nonsense": 1}, CONFIG, "unknown config keys"))
    test_removed_keys_exit_2 = _refusal_test({
        "fekete_n_capacity": ("capacity", {"fekete_n": 3000}, CONFIG,
                              "unknown config keys"),
        "fekete_n_segment": ("stahl-segment", {"fekete_n": 5000,
                                               "n_list": [8]},
                             CONFIG, "unknown config keys"),
        "scan_grid": ("stahl-circle", {"scan_grid": [512, 256]}, CONFIG,
                      "unknown config keys"),
    })
    test_mismatched_experiment_exits_2 = _refusal_test(
        ("capacity", {"experiment": "prop1"}, CONFIG,
         "config is for 'prop1', not 'capacity_only'"))
    test_unreadable_config_exits_2 = _refusal_test({
        "missing": ("leja", None, CONFIG, "No such file"),
        "malformed_json": ("leja", '{"leja_n": 40,', CONFIG,
                           "Expecting property name"),
        "non_object": ("leja", "[1, 2]", CONFIG,
                       "holds a list, not a JSON object"),
    })
    #  default prop1 needs about 1659 bits at q = 0.4, n_max = 10
    test_bits_below_precision_floor_exits_2 = _refusal_test(
        ("prop1 --bits 1024", {}, CONFIG, "1024 bits < floor 1659"))
    #  the lune check needs LUNE_DEGREE * eps >= 1
    test_capacity_small_eps_exits_2 = _refusal_test(
        ("capacity", {"eps": 0.01}, CONFIG, "needs 20 * eps >= 1"))
    test_bad_blend_target_exits_2 = _refusal_test(
        ("leja", {"target": "blend:1.5"}, CONFIG, "bad target 'blend:1.5'"))
    test_float_seed_exits_2 = _refusal_test(
        ("stahl-circle", {"seed": 1.5}, CONFIG, "seed must be int"))
    #  an int beyond float64 range would overflow the first float use
    test_non_finite_float_exits_2 = _refusal_test({
        "eps_infinity": ("stahl-segment", '{"eps": Infinity, "n_list": [8]}',
                         CONFIG, "must be finite"),
        "rho_infinity": ("stahl-circle", '{"rho": Infinity, "n_list": [8]}',
                         CONFIG, "must be finite"),
        "q_nan": ("leja", '{"q": NaN}', CONFIG, "must be finite"),
        **{f"{key}_huge_int_{command}": (command, {key: 10 ** 400,
                                                  "n_list": [8]},
                                         CONFIG, "must be finite")
           for key, command in [("eps", "stahl-circle"),
                                ("eps", "stahl-segment"),
                                ("eps", "capacity"), ("rho", "stahl-circle")]},
    })
    #  a size that does not fit an int64 cannot size an array or a range
    test_huge_size_exits_2 = _refusal_test({
        "huge_n_list_entry": ("stahl-circle", {"n_list": [10 ** 30]}, CONFIG,
                              "n_list exceeds 9223372036854775807"),
        "huge_n_max": ("prop1", {"n_max": 10 ** 30}, CONFIG,
                       "n_max exceeds 9223372036854775807"),
        #  bits sizes every significand: mpmath overflowed on it
        "huge_bits": ("prop1", {"bits": 10 ** 20}, CONFIG,
                      "bits exceeds 9223372036854775807"),
        "huge_bits_flag": (f"prop1 --bits {10 ** 20}", {}, CONFIG,
                           "bits exceeds 9223372036854775807"),
    })

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
    def test_out_at_or_under_a_file_exits_2(self, tmp_path, capsys, sub):
        #  refused before the run, which could not write its outputs; the
        #  file is left as it was
        f = tmp_path / "some_file"
        f.write_text("kept\n")
        out = f / sub
        rc = cli_main(["leja", "--out", str(out)])
        got, err = capsys.readouterr()
        assert (rc, got) == (2, "")
        assert err == f"{CONFIG}--out {out}: {f} is not a directory\n"
        assert f.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["some_file"]

    @pytest.mark.parametrize("argv, config", [
        (["capacity", "--out", ""], None),
        (["leja", "--config", "cfg.json"], {"out_dir": ""})],
        ids=["flag", "config"])
    def test_empty_out_exits_2(self, tmp_path, capsys, monkeypatch, argv,
                               config):
        #  refused before the run, which would end in os.makedirs("");
        #  _refused passes an --out of its own, so the case runs here
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
        rc = cli_main(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (2, "")
        assert err == f"{CONFIG}out_dir must not be empty\n"
        assert {p.name for p in tmp_path.iterdir()} <= {"cfg.json"}

    test_no_leja_points_exits_2 = _refusal_test(
        ("leja", {"leja_n": 0}, CONFIG, "leja_n must be >= 1"))
    #  the trend checks compare consecutive entries, so n_list must
    #  increase strictly
    test_unordered_n_list_exits_2 = _refusal_test({
        f"{name}-{command}": (command, {"n_list": n_list}, CONFIG,
                              "strictly increasing")
        for name, n_list in [("descending", [16, 8]), ("repeated", [8, 8])]
        for command in ["stahl-circle", "stahl-segment"]})
    test_unresolvable_run_exits_2 = _refusal_test({
        "degenerate_lune": ("stahl-circle", {"eps": 50}, PRECISION,
                            "underflows float64"),
        #  1 + e^(-40) rounds to 1, so the lune has no float64 width
        "lune_below_float64_spacing": ("stahl-circle", {"eps": 5,
                                                        "n_list": [8]},
                                       PRECISION, "underflows float64"),
        #  1 + s != 1, but s is inside the sampler's |w| >= 1 + 1e-9 margin
        "lune_inside_sampler_margin": ("stahl-circle", {"eps": 0.35},
                                       PRECISION, "1.87e-10 at n = 64"),
        "lune_inside_margin_at_128": (
            "stahl-circle", {"eps": 0.2, "n_list": [8, 16, 32, 64, 128]},
            PRECISION, "7.62e-12 at n = 128"),
        "unresolved_crossing": ("stahl-segment", {"eps": 1}, PRECISION,
                                "for float64"),
        #  prop1 is refused after its Leja points, which it must not have
        #  written by then
        "refused_sigma": ("prop1", {"n_list": [2, 3], "bits": 512,
                                    "leja_n": 20, "grid_size": 512},
                          PRECISION, "sigma refused", False,
                          "potlab.orthopoly.build_sigma"),
    })
    #  20 * eps = 800 underflows the lune radius e^(-20 eps) to 0, where
    #  the rescaled boundary would divide 0/0
    test_capacity_underflowed_lune_exits_2 = _refusal_test(
        ("capacity", {"eps": 40}, PRECISION,
         "lune radius underflows float64 to 0", True))
    #  20 * eps = 720 leaves the radius e^-720 subnormal, where dividing by
    #  it overflowed and dropped every inner-arc sample of the lune
    test_capacity_subnormal_lune_exits_2 = _refusal_test(
        ("capacity", {"eps": 36}, PRECISION,
         "lune radius 2.03e-313 is subnormal in float64", True))
    #  below q = 5.6e-309, 1 / q overflows float64; -log2(q) does not
    test_subnormal_q_exits_2 = _refusal_test(
        ("prop1", {"q": 1e-310}, CONFIG, "2048 bits < floor 1192634 for "
         "q=1e-310, n_max=10, cascade=stabilized", True))
    test_calibration_failure_exits_2 = _refusal_test(
        ("prop1", {}, PRECISION, "calibration of eps_5 did not converge",
         True, "potlab.cli.run"))

    @pytest.mark.parametrize("plot", [False, True], ids=["bare", "plot"])
    @pytest.mark.parametrize("command, raw, files, plots", [
        ("prop1", {"n_list": [2, 3], "bits": 512, "leja_n": 20,
                   "grid_size": 512},
         {"leja.csv", "equidistribution.csv", "sigma.csv", "stability.csv",
          "residuals.csv"},
         {"points.svg", "zeros.svg", "deviation.svg", "ks.svg"}),
        ("stahl-circle", {"n_list": [4, 8]}, {"stahl_circle.csv"},
         {"ks.svg", "badset.svg"}),
        ("stahl-segment", {"n_list": [8, 16]}, {"stahl_segment.csv"},
         {"ks.svg", "badset.svg"}),
        ("leja", {"leja_n": 20, "grid_size": 512, "target": "none"},
         {"leja.csv"}, {"points.svg"}),
        ("capacity", {}, set(), set()),
    ], ids=["prop1", "stahl_circle", "stahl_segment", "leja", "capacity"])
    def test_output_file_set(self, tmp_path, capsys, monkeypatch, command,
                             raw, files, plots, plot):
        #  without --plot no plot is even drawn
        def refuse(*args, **kwargs):
            raise AssertionError("plot drawn without --plot")

        if not plot:
            monkeypatch.setattr("potlab.svgplot.scatter_svg", refuse)
            monkeypatch.setattr("potlab.svgplot.line_chart_svg", refuse)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(raw))
        out = tmp_path / "out"
        rc = cli_main([command, "--config", str(cfgfile), "--out", str(out)]
                      + ["--plot"] * plot)
        assert rc == 0
        want = {"summary.json"} | files | (plots if plot else set())
        assert {p.name for p in out.iterdir()} == want
