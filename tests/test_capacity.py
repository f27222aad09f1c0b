import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potlab import (DegenerateRegion, TracingFailure,
                    greedy_fekete_capacity, lune_capacity_bounds,
                    preimage_capacity_check)
from potlab import capacity
from potlab.capacity import (_corrected_dn, _greedy_select, disk_boundary,
                             lune_rescaled_boundary, point_cloud,
                             segment_boundary, trace_lemniscate_boundary,
                             trace_level_curve)
from potlab.experiments import (_nth_roots, _cheb_level_set,
                                _trace_cheb_lemniscate)

from conftest import (chebyshev_monic_coeffs, corrected_dn_reference,
                      greedy_select_reference, trace_level_curve_reference)


def _diameters(pts, n):
    """(raw, corrected) d_n of an n-point greedy Fekete subset of pts."""
    return _corrected_dn(_greedy_select(np.asarray(pts, dtype=complex), n))


class TestCalibration:
    def test_unit_disk(self):
        est = greedy_fekete_capacity(point_cloud(disk_boundary(1)))
        assert est == pytest.approx(1.0, abs=0.05)

    def test_segment(self):
        est = greedy_fekete_capacity(point_cloud(segment_boundary(-1, 1)))
        assert est == pytest.approx(0.5, abs=0.03)

    def test_scaled_disk(self):
        est = greedy_fekete_capacity(point_cloud(disk_boundary(2)))
        assert est == pytest.approx(2.0, abs=0.1)

    def test_ellipse(self):
        #  {|phi(z)| <= rho} has capacity rho / 2; its boundary is the
        #  image of |w| = rho under the Joukowski map (w + 1/w) / 2
        t = 2 * np.pi * np.arange(2048) / 2048
        bdry = 0.5 * (1.5 * np.exp(1j * t) + np.exp(-1j * t) / 1.5)
        est = greedy_fekete_capacity(point_cloud(bdry))
        assert est == pytest.approx(0.75, rel=0.05)


class TestEstimatorProperties:
    def test_scale_equivariance_exact(self):
        #  cap(c*K + t) = c*cap(K); the greedy set starts from the point
        #  farthest from the sample centroid, so it moves with the cloud
        #  and the estimate follows to rounding (a start farthest from
        #  the origin lands 2.7e-5 off at t = 30)
        rng = np.random.default_rng(2)
        pts = rng.random(300) * 2 - 1 + 1j * (rng.random(300) * 2 - 1)
        c = 3.7
        a_raw, a = _diameters(pts, 32)
        for t in (0, 30):
            b_raw, b = _diameters(c * pts + t, 32)
            assert b == pytest.approx(c * a, rel=1e-12)
            assert b_raw == pytest.approx(c * a_raw, rel=1e-12)

    def test_monotone_under_inclusion(self):
        small = _diameters(disk_boundary(0.8), 48)[1]
        big = _diameters(disk_boundary(1.0), 48)[1]
        assert small <= big * 1.02
        s1 = _diameters(segment_boundary(-0.5, 0.5), 48)[1]
        s2 = _diameters(segment_boundary(-1, 1), 48)[1]
        assert s1 <= s2 * 1.02

    def test_raw_dn_decreasing_in_n(self):
        cloud = segment_boundary(-1, 1)
        vals = [_diameters(cloud, n)[0] for n in (16, 32, 64)]
        assert vals[1] < vals[0] * 1.02
        assert vals[2] < vals[1] * 1.02

    def test_degenerate_region(self):
        with pytest.raises(DegenerateRegion):
            greedy_fekete_capacity(point_cloud([0, 1, 1j, -1, -1j]))

    @pytest.mark.parametrize("n", [8, 16, 33])
    def test_exactly_n_distinct_points(self, n):
        #  each point three times: n distinct points are just enough
        pts = np.exp(2j * np.pi * np.arange(n) / n)
        sel = _greedy_select(np.tile(pts, 3), n)
        assert sorted(sel.tolist(), key=np.angle) \
            == sorted(pts.tolist(), key=np.angle)
        with pytest.raises(DegenerateRegion,
                           match=f"only {n - 1} distinct .* n={n}$"):
            _greedy_select(np.tile(pts[1:], 3), n)

    def test_empty_cloud(self):
        with pytest.raises(DegenerateRegion, match="only 0 distinct"):
            greedy_fekete_capacity(point_cloud([]))


@pytest.fixture(scope="module")
def runner_clouds():
    """The boundary samples the runners hand the estimator at their
    default eps = 0.1: the stahl-circle clouds, the capacity runner's
    disk, segment, lemniscate and lune, and two stahl-segment
    boundaries."""
    clouds = {}
    for n in (8, 16, 32, 64):
        s = math.exp(-n * 0.1)
        clouds[f"circle_{n}"] = _nth_roots(
            1 + s * lune_rescaled_boundary(s, 1024), n)
    clouds["disk"] = disk_boundary(1)
    clouds["segment"] = segment_boundary(-1, 1)
    clouds["lemniscate"] = trace_lemniscate_boundary([1, 0, -1], 0.9 ** 2)
    clouds["lune"] = lune_rescaled_boundary(math.exp(-20 * 0.1))
    for n in (8, 16):
        clouds[f"cheb_{n}"] = _trace_cheb_lemniscate(
            *_cheb_level_set(n, 0.1))[0]
    return clouds


CLOUDS = ["circle_8", "circle_16", "circle_32", "circle_64", "disk",
          "segment", "lemniscate", "lune", "cheb_8", "cheb_16"]


class _StepSpy:
    """numpy for capacity.py, logging the exchange's steps: each
    np.fmax.reduce call opens a step, with the selection as it stands,
    and an np.flatnonzero call marks the open step as not skipped."""

    def __init__(self, sel, steps):
        self.sel, self.steps, self.fmax = sel, steps, self

    def reduce(self, a):
        self.steps.append({"sel": list(self.sel), "skipped": True})
        return np.fmax.reduce(a)

    def flatnonzero(self, a):
        self.steps[-1]["skipped"] = False
        return np.flatnonzero(a)

    def __getattr__(self, name):
        return getattr(np, name)


class TestGreedySelectOracle:
    """The selection equals the pre-rewrite reference bit for bit."""

    @pytest.mark.parametrize("name", CLOUDS)
    def test_runner_clouds(self, runner_clouds, name):
        samples = np.asarray(runner_clouds[name], dtype=complex)
        for n in (8, 12, 48, 64):
            assert np.array_equal(_greedy_select(samples, n),
                                  greedy_select_reference(samples, n)), n

    @pytest.mark.parametrize("name", CLOUDS)
    def test_tau_bounds_running_sums(self, runner_clouds, name, monkeypatch):
        #  after the exchange, logd is within tau of numpy's pairwise
        #  column sums, and is -inf exactly where they are
        exchange, seen = capacity._exchange, []

        def spy(samples, sel, L, logd, buf, lmax):
            tau = exchange(samples, sel, L, logd, buf, lmax)
            seen.append((logd.copy(), L.T.copy().sum(axis=1), tau))
            return tau

        monkeypatch.setattr(capacity, "_exchange", spy)
        samples = np.asarray(runner_clouds[name], dtype=complex)
        for n in (8, 12, 48, 64):
            _greedy_select(samples, n)
        for logd, rowsum, tau in seen:
            assert 0 < tau < 1e-8
            finite = np.isfinite(rowsum)
            assert np.array_equal(np.isfinite(logd), finite)
            assert np.all(np.abs(logd[finite] - rowsum[finite]) <= tau)

    @pytest.mark.parametrize("name", CLOUDS)
    def test_skipped_steps_cannot_swap(self, runner_clouds, name,
                                       monkeypatch):
        #  at every step the exchange skips, no sample's exact value, the
        #  reference's full column sum less row k, beats z_k's own val_k
        exchange, seen = capacity._exchange, []

        def spy(samples, sel, L, logd, buf, lmax):
            steps = []
            seen.append((samples, steps))
            capacity.np = _StepSpy(sel, steps)
            try:
                return exchange(samples, sel, L, logd, buf, lmax)
            finally:
                capacity.np = np

        monkeypatch.setattr(capacity, "_exchange", spy)
        samples = np.asarray(runner_clouds[name], dtype=complex)
        ns = (8, 12, 48, 64)
        for n in ns:
            _greedy_select(samples, n)
        assert [len(steps) for _, steps in seen] == list(ns)
        skips = 0
        for samples, steps in seen:
            for k, step in enumerate(steps):
                if not step["skipped"]:
                    continue
                skips += 1
                sel = step["sel"]
                pts = samples[sel]
                val_k = float(np.sum(np.log(np.abs(pts[k]
                                                   - np.delete(pts, k)))))
                with np.errstate(divide="ignore", invalid="ignore"):
                    L = np.log(np.abs(samples[:, None] - pts))
                    cand = L.sum(axis=1) - L[:, k]
                cand[sel] = -np.inf
                cand[np.isnan(cand)] = -np.inf
                assert cand.max() <= val_k, (len(sel), k)
        if name in ("disk", "cheb_8", "cheb_16"):
            assert skips > 0

    @pytest.mark.parametrize("name", CLOUDS)
    def test_corrected_dn_runner_clouds(self, runner_clouds, name):
        samples = np.asarray(runner_clouds[name], dtype=complex)
        for n in (8, 12, 48, 64):
            pts = _greedy_select(samples, n)
            assert _corrected_dn(pts) == corrected_dn_reference(pts), n

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.integers(-6, 6),
           circle=st.booleans(), half=st.integers(1, 40))
    def test_corrected_dn_matches_reference(self, seed, scale, circle, half):
        #  distinct points, as the selection returns them, half of them
        #  one ulp from the other half
        rng = np.random.default_rng(seed)
        base = (np.exp(2j * np.pi * np.arange(half) / half) if circle
                else rng.standard_normal(half)
                + 1j * rng.standard_normal(half)) * 10.0 ** scale
        pts = rng.permutation(np.concatenate(
            [base, np.nextafter(base.real, np.inf) + 1j * base.imag]))
        assert _corrected_dn(pts) == corrected_dn_reference(pts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), scale=st.integers(-6, 6),
           circle=st.booleans(), m=st.integers(8, 400),
           n=st.integers(8, 40))
    def test_scaled_clouds_with_duplicates_and_ulp_neighbours(
            self, seed, scale, circle, m, n):
        #  near ties in the column sums: repeated points, points one ulp
        #  apart, and equally spaced points on a circle
        rng = np.random.default_rng(seed)
        base = (np.exp(2j * np.pi * np.arange(m) / m) if circle
                else rng.standard_normal(m) + 1j * rng.standard_normal(m))
        base = base * 10.0 ** scale
        nb = base[rng.integers(0, m, m // 4)]
        nb = np.nextafter(nb.real, np.inf) + 1j * nb.imag
        samples = rng.permutation(np.concatenate(
            [base, base[rng.integers(0, m, m // 4)], nb]))
        try:
            want = greedy_select_reference(samples, n)
        except DegenerateRegion as exc:
            with pytest.raises(DegenerateRegion) as got:
                _greedy_select(samples, n)
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(_greedy_select(samples, n), want)

    @settings(max_examples=60, deadline=None)
    @given(pts=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                        min_size=20, max_size=400),
           n=st.integers(8, 40))
    def test_lattice_clouds_with_ties(self, pts, n):
        #  a 9 x 9 lattice: repeated points and exactly tied distances
        samples = np.array([complex(x, y) / 4 for x, y in pts])
        try:
            want = greedy_select_reference(samples, n)
        except DegenerateRegion as exc:
            with pytest.raises(DegenerateRegion) as got:
                _greedy_select(samples, n)
            assert str(got.value) == str(exc)
        else:
            assert np.array_equal(_greedy_select(samples, n), want)


class TestPreimage:
    def test_pure_power_gives_disk(self):
        #  P = z^2 at level rho^2: the sublevel set is the disk of radius rho
        est = preimage_capacity_check([1, 0, 0], 0.8)
        assert est == pytest.approx(0.8, rel=0.02)

    def test_two_oval_lemniscate(self):
        est = preimage_capacity_check([1, 0, -1], 0.9)
        assert abs(est - 0.9) / 0.9 < 0.05

    def test_chebyshev_lemniscate(self):
        rho = math.exp(-0.1) / 2
        assert rho == pytest.approx(0.4524187090179798, abs=1e-12)
        est = preimage_capacity_check(chebyshev_monic_coeffs(8), rho)
        assert abs(est - rho) / rho < 0.05

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            preimage_capacity_check([2, 0, -1], 0.9)

    def test_tracing_failure(self):
        with pytest.raises(TracingFailure):
            trace_lemniscate_boundary(np.array([1.0, 0.0]), 1e12)

    def test_level_curve_never_reached(self):
        #  g stays below the level on every ray: no bracket exists
        with pytest.raises(TracingFailure):
            trace_level_curve(lambda z: np.full(z.shape, 0.5), [0.0, 1j],
                              1.0, 8)

    def test_level_curve_crossing_near_center(self):
        #  g = level at 1e-12 from the center, far inside the first probe
        c = 0.3 + 0.2j

        def g(z):
            return np.abs(z - c) * 1e12

        z0, d, lo, hi = trace_level_curve(g, [c], 1.0, 8)
        assert np.all(g(z0 + lo * d) < 1.0)
        assert np.all(g(z0 + hi * d) >= 1.0)
        assert np.allclose(hi, 1e-12, rtol=1e-3)

    def test_level_curve_crossing_below_float64_resolution(self):
        #  1e-20 from the center 1 is below its spacing of 2.2e-16
        with pytest.raises(TracingFailure, match="too near"):
            trace_level_curve(lambda z: np.abs(z - 1) * 1e20, [1.0], 1.0, 8)

    def test_boundary_points_sit_on_level_line(self):
        pts = trace_lemniscate_boundary(np.array([1.0, 0.0, -1.0]), 0.81)
        vals = np.abs(np.polyval([1, 0, -1], pts))
        assert np.max(np.abs(vals - 0.81)) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(roots=st.lists(st.tuples(st.floats(0, 1),
                                    st.floats(0, 2 * math.pi)),
                          min_size=2, max_size=4),
           level=st.floats(0.5, 2))
    def test_random_lemniscate_on_level_line(self, roots, level):
        #  monic P with roots r e^{it} in the closed unit disk
        coeffs = np.poly([r * complex(math.cos(t), math.sin(t))
                          for r, t in roots])
        pts = trace_lemniscate_boundary(coeffs, level)
        vals = np.abs(np.polyval(coeffs, pts))
        assert np.max(np.abs(vals - level)) < 1e-9 * level


class TestLevelCurveBisection:
    """The bisection stops at adjacent floats with the brackets of all 64
    steps, bit for bit, and with fewer evaluations of g."""

    @staticmethod
    def _trace(monkeypatch, tracer, n, eps):
        """(outcome, g evaluations) of the degree-n Chebyshev lemniscate
        traced with `tracer` as capacity.trace_level_curve; a
        TracingFailure is its message."""
        g, roots, level = _cheb_level_set(n, eps)
        calls = []

        def counted(z):
            calls.append(len(z))
            return g(z)

        monkeypatch.setattr(capacity, "trace_level_curve", tracer)
        try:
            out = tuple(a.tobytes()
                        for a in _trace_cheb_lemniscate(counted, roots, level))
        except TracingFailure as exc:
            out = str(exc)
        return out, len(calls)

    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
    @pytest.mark.parametrize("n", [8, 16, 33])
    def test_chebyshev_lemniscates(self, monkeypatch, n, eps):
        got, calls = self._trace(monkeypatch, trace_level_curve, n, eps)
        want, ref_calls = self._trace(monkeypatch,
                                      trace_level_curve_reference, n, eps)
        assert got == want
        if not isinstance(want, str):
            assert calls < ref_calls

    def test_lemniscate_boundary(self, monkeypatch):
        coeffs = np.array([1.0, 0.0, -1.0])
        got = trace_lemniscate_boundary(coeffs, 0.81)
        monkeypatch.setattr(capacity, "trace_level_curve",
                            trace_level_curve_reference)
        want = trace_lemniscate_boundary(coeffs, 0.81)
        assert got.tobytes() == want.tobytes()


class TestLune:
    def test_bounds_hold(self):
        rep = lune_capacity_bounds(20, 0.1)
        assert rep["within_bounds"]
        assert rep["lower"] == pytest.approx(0.25 * math.exp(-2), rel=1e-12)
        assert rep["upper"] == pytest.approx(math.exp(-2), rel=1e-12)

    def test_monotone_decreasing_in_n(self):
        a = lune_capacity_bounds(20, 0.1)
        b = lune_capacity_bounds(25, 0.1)
        assert b["estimate"] < a["estimate"] * 1.02

    def test_rescaled_capacity_stable(self):
        #  cap(F_n) e^{n eps} approaches the unit half-disk capacity
        a = lune_capacity_bounds(20, 0.1)["rescaled_estimate"]
        b = lune_capacity_bounds(40, 0.1)["rescaled_estimate"]
        assert abs(a - b) < 0.1 * a

    def test_too_fat_rejected(self):
        with pytest.raises(ValueError):
            lune_capacity_bounds(5, 0.1)

    def test_report_json(self):
        d = lune_capacity_bounds(20, 0.1)
        assert {"estimate", "lower", "upper", "n", "eps"} <= set(d)


class TestRegionParsing:
    def test_lune_roundtrip(self):
        s = math.exp(-2)
        pts = 1 + s * lune_rescaled_boundary(s, 256)
        #  every boundary point obeys both lune constraints (to rounding)
        assert np.all(np.abs(pts - 1) <= s * (1 + 1e-9))
        assert np.all(np.abs(pts) >= 1 - 1e-9)

    def test_segment_sampler_includes_endpoints(self):
        pts = segment_boundary(-1, 1)
        assert pts[0] == -1 and pts[-1] == 1
