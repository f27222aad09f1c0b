import bisect
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potlab import (DegenerateGrid, PrecisionContext, chebyshev_grid,
                    generate, target_arcsine, target_blend, target_uniform,
                    verify_weighted_asymptotics)
from potlab import leja
from potlab.leja import LejaSequence
from potlab.measures import ks_distance

from conftest import leja_generate_reference

LOCALIZE_TOL = 2e-4          # grid spacing + golden-section stopping width


def empirical_cdf(points):
    """CDF callable of the uniform empirical measure on the given points."""
    xs = sorted(float(x) for x in points)
    n = len(xs)

    def cdf(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.asarray([bisect.bisect_right(xs, v) / n for v in t])

    return cdf


def _next(points, target=None, grid=None):
    """The greedy point that follows points, through one leja._step."""
    nodes = chebyshev_grid() if grid is None else grid
    pts = np.asarray(points, dtype=float)
    logsum = sum(leja._log_dist(nodes, x) for x in pts)
    vg = None if target is None else target.grid_potential(nodes)
    return leja._step(pts, nodes, logsum, vg, target)


def _brute_argmax(points, vpot=None, m=100_001):
    g = np.linspace(-1, 1, m)
    obj = np.zeros_like(g)
    if vpot is not None:
        obj += len(points) * vpot(g)
    for p in points:
        with np.errstate(divide="ignore"):
            obj += np.log(np.abs(g - p))
    return g[int(np.argmax(obj))]


@pytest.fixture(scope="module")
def unweighted_800():
    return generate(800)


class TestExtension:
    def test_second_point_is_other_endpoint(self):
        assert generate(2).points == (1.0, -1.0)
        assert _brute_argmax([1.0]) == pytest.approx(-1.0)

    def test_third_point_is_center(self):
        assert abs(generate(3).points[2]) < LOCALIZE_TOL
        assert abs(_brute_argmax([1.0, -1.0])) < 1e-4

    def test_fourth_point_left_tiebreak(self):
        # argmax of |x||x-1||x+1| sits at x^2 = 1/3; exact tie -> leftmost
        x = _next([1.0, -1.0, 0.0])
        assert x == pytest.approx(-1 / math.sqrt(3), abs=LOCALIZE_TOL)
        oracle = _brute_argmax([1.0, -1.0, 0.0])
        assert abs(abs(oracle) - 1 / math.sqrt(3)) < 1e-4

    def test_greedy_optimality_on_grid(self):
        grid = chebyshev_grid(512)
        pts = np.array([1.0, -1.0, 0.3])
        x = _next(pts, grid=grid)
        vals = np.zeros(len(grid))
        for p in pts:
            with np.errstate(divide="ignore"):
                vals += np.log(np.abs(grid - p))
        best = float(np.sum(np.log(np.abs(x - pts))))
        assert best >= np.max(vals) - 1e-12

    def test_weighted_arcsine_reduction_with_refinement(self):
        #  constant weight: identical choices on the same grid
        grid = chebyshev_grid(1024)
        arc = target_arcsine()
        a, b = [1.0], [1.0]
        for _ in range(25):
            a.append(_next(a, grid=grid))
            b.append(_next(b, arc, grid))
        assert a == b

    def test_weighted_uniform_golden_value(self):
        #  argmax of 2 V(x) + log(1 - x^2) for the uniform target is 0
        uni = target_uniform()
        assert abs(_next([1.0, -1.0], uni)) < LOCALIZE_TOL
        from potlab.potentials import potential_on_grid
        oracle = _brute_argmax(
            [1.0, -1.0], vpot=lambda g: potential_on_grid(uni, g))
        assert abs(oracle) < 1e-4

    def test_existing_point_never_selected(self):
        #  candidate equal to a chosen point scores -inf
        x = _next([1.0, -1.0], grid=np.array([-1.0, -0.5, 0.5, 1.0]))
        assert -1.0 < x < 1.0

    def test_degenerate_grid(self):
        with pytest.raises(DegenerateGrid):
            _next([1.0, -1.0], grid=np.array([-1.0, 1.0]))
        with pytest.raises(DegenerateGrid):
            generate(3, grid=chebyshev_grid(2))

    @pytest.mark.parametrize("n", [0, -3])
    def test_generate_needs_a_point(self, n):
        with pytest.raises(ValueError):
            generate(n)

    def test_distinctness(self, unweighted_800):
        assert unweighted_800.separation > 0
        assert len(set(unweighted_800.points)) == 800

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_separation_is_min_pairwise_distance(self, data):
        xs = data.draw(st.lists(st.floats(-1, 1), max_size=12))
        if xs:
            xs += data.draw(st.lists(st.sampled_from(xs), max_size=3))
        pts = data.draw(st.permutations(xs))
        want = min((abs(x - y) for i, x in enumerate(pts) for y in pts[:i]),
                   default=math.inf)
        assert LejaSequence(points=tuple(pts)).separation == want

    def test_grid_potential_once_per_generate(self, monkeypatch):
        #  one full-grid evaluation; the refinement reads the target's
        #  grid_potential on its probe arrays directly
        sizes = []
        inner = leja.potential_on_grid

        def recording(target, x):
            sizes.append(np.size(x))
            return inner(target, x)

        monkeypatch.setattr(leja, "potential_on_grid", recording)
        grid = chebyshev_grid(256)
        generate(10, target=target_uniform(), grid=grid)
        assert sizes == [len(grid)]

    def test_refine_batches_its_probes(self):
        #  the opening pair and the four final candidates take one call
        #  each, about 7.5 calls a step; one probe a call makes 11.5
        calls = []
        uni = target_uniform()

        def counting(x):
            calls.append(x)
            return uni.grid_potential(x)

        n = 200
        generate(n, target=dataclasses.replace(uni, grid_potential=counting))
        assert len(calls) / (n - 1) < 9


TARGETS = {"none": None, "arcsine": target_arcsine(),
           "uniform": target_uniform(), "blend:0.3": target_blend(0.3)}


def _outcome(gen, n, target, grid):
    """The points gen returns, or the type and message of what it raises."""
    try:
        return gen(n, target=target, grid=grid).points
    except DegenerateGrid as exc:
        return type(exc), str(exc)


class TestReference:
    """generate against the one-probe-per-call code it replaced
    (tests/conftest.py), compared with tuple ==."""

    @pytest.mark.parametrize("m", [4096, 1024, 256, 5])
    @pytest.mark.parametrize("name", TARGETS)
    def test_bit_equal_on_chebyshev_grids(self, name, m):
        target, grid = TARGETS[name], chebyshev_grid(m)
        n = 200 if m > 5 else 12
        assert (_outcome(generate, n, target, grid)
                == _outcome(leja_generate_reference, n, target, grid))

    def test_bit_equal_at_benchmark_size(self):
        #  the leja-uniform benchmark run: 1000 points, 4096 nodes
        uni, grid = target_uniform(), chebyshev_grid(4096)
        assert (generate(1000, uni, grid).points
                == leja_generate_reference(1000, uni, grid).points)

    @settings(max_examples=80, deadline=None)
    @given(xs=st.lists(st.floats(-1, 1), min_size=8, max_size=300,
                       unique=True),
           n=st.integers(2, 40),
           name=st.sampled_from(list(TARGETS)))
    def test_bit_equal_on_random_grids(self, xs, n, name):
        target, grid = TARGETS[name], np.sort(np.array(xs))
        assert (_outcome(generate, n, target, grid)
                == _outcome(leja_generate_reference, n, target, grid))


class TestAsymptotics:
    def test_unweighted_single_point_exact(self):
        r = verify_weighted_asymptotics(LejaSequence(points=(1.0,)), None,
                                        [2.0])[0]
        want = 0.0 - (math.log(2 + math.sqrt(3)) - math.log(2))
        assert r == pytest.approx(want, abs=1e-14)

    def test_unweighted_residual_decay(self, unweighted_800):
        half = LejaSequence(points=unweighted_800.points[:400])
        for z in (2.0, 2j, -3.0):
            r400 = verify_weighted_asymptotics(half, None, [z])[0]
            r800 = verify_weighted_asymptotics(unweighted_800, None, [z])[0]
            assert abs(r400) < 0.02
            assert abs(r800) < abs(r400)

    def test_residual_smaller_far_away(self, unweighted_800):
        half = LejaSequence(points=unweighted_800.points[:400])
        r2, r10 = verify_weighted_asymptotics(half, None, [2.0, 10.0])
        assert abs(r10) < abs(r2)

    def test_median_trend_statistical(self, unweighted_800):
        #  median |r| over {2, 2i, -3} should drop under doubling for most n
        zs = (2.0, 2j, -3.0)
        wins = 0
        for n in (50, 100, 200, 400):
            a = np.median(np.abs(verify_weighted_asymptotics(
                LejaSequence(points=unweighted_800.points[:n]), None, zs)))
            b = np.median(np.abs(verify_weighted_asymptotics(
                LejaSequence(points=unweighted_800.points[:2 * n]), None,
                zs)))
            wins += b < a
        assert wins >= 3
        first = np.median(np.abs(verify_weighted_asymptotics(
            LejaSequence(points=unweighted_800.points[:50]), None, zs)))
        last = np.median(np.abs(verify_weighted_asymptotics(
            unweighted_800, None, zs)))
        assert last < first

    def test_weighted_arcsine_matches_unweighted_target(self,
                                                            unweighted_800):
        #  -V_arcsine(z) = log|phi(z)| - log 2 off the segment
        arc = target_arcsine(PrecisionContext(128))
        half = LejaSequence(points=unweighted_800.points[:400])
        ra = verify_weighted_asymptotics(half, arc, [2.0])[0]
        rt = verify_weighted_asymptotics(half, None, [2.0])[0]
        assert ra == pytest.approx(rt, abs=1e-12)

    def test_weighted_asymptotics_uniform(self):
        uni = target_uniform(PrecisionContext(128))
        seq = generate(400, target=uni)
        r = verify_weighted_asymptotics(seq, uni, [2j])[0]
        assert abs(r) < 0.05

    def test_single_point_weighted_identity(self):
        uni = target_uniform(PrecisionContext(128))
        r = verify_weighted_asymptotics(LejaSequence(points=(1.0,)), uni, [2.0])[0]
        want = math.log(abs(2.0 - 1.0)) + float(uni.potential(2.0))
        assert r == pytest.approx(want, abs=1e-14)


class TestEquidistribution:
    def test_ks_decreases_and_small(self):
        arc = target_arcsine()
        seq = generate(200, target=arc)
        ks200 = ks_distance(seq.points, arc.cdf)
        ks100 = ks_distance(seq.points[:100], arc.cdf)
        assert ks200 < 0.05
        assert ks200 < ks100

    def test_blend_ks(self):
        bl = target_blend(0.5)
        seq = generate(200, target=bl)
        assert ks_distance(seq.points, bl.cdf) < 0.05

    def test_single_atom_at_right_end(self):
        assert ks_distance([1.0], target_arcsine().cdf) == pytest.approx(1.0)

    def test_empirical_cdf_against_itself(self):
        pts = [-0.5, 0.1, 0.9]
        assert ks_distance(pts, empirical_cdf(pts)) == 0.0


class TestKsDistance:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_supremum(self, data):
        """ks_distance, which reads the CDFs only at the atoms (both one-sided
        limits), equals a brute-force supremum that adds a dense grid."""
        #  distinct atoms on a 1e-3 lattice inside (-1, 1), where the
        #  arcsine CDF moves by less than 1e-14 over one ulp
        ticks = data.draw(st.lists(st.integers(-999, 999), min_size=1,
                                   max_size=30, unique=True))
        xs = np.array(ticks) / 1000
        masses = data.draw(st.one_of(
            st.none(), st.lists(st.integers(1, 100), min_size=len(xs),
                                max_size=len(xs))))
        ws = np.ones(len(xs)) if masses is None else np.array(masses, float)
        kind = data.draw(st.sampled_from(["arcsine", "uniform", "empirical"]))
        if kind == "empirical":
            #  jumps only at atoms, where the evaluated limits see them
            sub = sorted(data.draw(st.lists(st.sampled_from(list(xs)),
                                            min_size=1)))
            cdf = empirical_cdf(sub)
            cx_left = [bisect.bisect_left(sub, x) / len(sub) for x in xs]
        else:
            cdf = (target_arcsine() if kind == "arcsine"
                   else target_uniform()).cdf
            cx_left = cdf(xs)

        def measure(mask):
            return ws[mask].sum() / ws.sum()

        grid = np.linspace(-1.5, 1.5, 3001)
        #  right and left limits at every atom, then a dense grid
        vals = [abs(measure(xs <= x) - c) for x, c in zip(xs, cdf(xs))]
        vals += [abs(measure(xs < x) - c) for x, c in zip(xs, cx_left)]
        vals += [abs(measure(xs <= t) - c) for t, c in zip(grid, cdf(grid))]
        assert ks_distance(xs, cdf, weights=masses) == pytest.approx(
            max(vals), abs=1e-12)

