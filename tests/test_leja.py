import bisect
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from potlab import (DegenerateGrid, chebyshev_grid, generate, target_arcsine,
                    target_blend, target_uniform, verify_weighted_asymptotics)
from potlab import leja
from potlab.measures import ks_distance, separation

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
    with np.errstate(divide="ignore"):
        logsum = sum(leja._log_dist(nodes, x) for x in pts)
    vg = None if target is None else target.grid_potential(nodes)
    return leja._step(pts, nodes, logsum, vg, target, np.empty_like(nodes))


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
        assert generate(2) == (1.0, -1.0)
        assert _brute_argmax([1.0]) == pytest.approx(-1.0)

    def test_third_point_is_center(self):
        assert abs(generate(3)[2]) < LOCALIZE_TOL
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
        oracle = _brute_argmax([1.0, -1.0], vpot=uni.grid_potential)
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
        assert separation(unweighted_800) > 0
        assert len(set(unweighted_800)) == 800

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_separation_is_min_pairwise_distance(self, data):
        xs = data.draw(st.lists(st.floats(-1, 1), max_size=12))
        if xs:
            xs += data.draw(st.lists(st.sampled_from(xs), max_size=3))
        pts = data.draw(st.permutations(xs))
        want = min((abs(x - y) for i, x in enumerate(pts) for y in pts[:i]),
                   default=math.inf)
        assert separation(tuple(pts)) == want

    def test_grid_potential_once_per_generate(self):
        #  one full-grid evaluation, first; past it the refinement reads
        #  grid_potential only on floats (the grid candidates read vg)
        calls = []
        uni = target_uniform()

        def recording(x):
            calls.append(x)
            return uni.grid_potential(x)

        grid = chebyshev_grid(256)
        generate(10, target=dataclasses.replace(
            uni, grid_potential=recording), grid=grid)
        assert np.size(calls[0]) == len(grid)
        assert all(type(x) is float for x in calls[1:])

    def test_refine_batches_its_probes(self):
        #  per step: the golden pair's two floats, about 5.5 in-loop
        #  probes and the refined point, 8.497 calls a step at n = 200;
        #  the grid candidates take their potential from the full grid,
        #  the only array call
        calls = []
        uni = target_uniform()

        def counting(x):
            calls.append(x)
            return uni.grid_potential(x)

        n = 200
        generate(n, target=dataclasses.replace(uni, grid_potential=counting))
        assert len(calls) / (n - 1) < 8.6
        assert isinstance(calls[0], np.ndarray)
        assert all(type(x) is float for x in calls[1:])

    @pytest.mark.parametrize("fail", [False, True])
    @pytest.mark.parametrize("name", ["none", "uniform"])
    def test_error_state_restored(self, name, fail):
        #  under divide="raise", an unguarded log 0 would raise too
        target = TARGETS[name]
        with np.errstate(divide="raise", over="warn", under="ignore",
                         invalid="raise"):
            before = np.geterr()
            if fail:
                grid = np.array([1.0])
                with pytest.raises(DegenerateGrid):
                    generate(2, target, grid)
                with pytest.raises(DegenerateGrid):
                    _next([1.0], target, grid)
            else:
                generate(30, target, chebyshev_grid(64))
                #  both bracket ends are chosen points: log 0 in the batch
                _next([1.0, -1.0], target, np.array([-1.0, 0.0, 1.0]))
            assert np.geterr() == before

    @pytest.mark.parametrize("name", ["none", "uniform"])
    def test_one_error_state_per_step(self, name, monkeypatch):
        #  one for the first point's log distances, then one a step, the
        #  grid sums' update included
        entered = []
        errstate = np.errstate

        def counting(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counting)
        generate(30, TARGETS[name], chebyshev_grid(64))
        assert len(entered) == 30


TARGETS = {"none": None, "arcsine": target_arcsine(),
           "uniform": target_uniform(), "blend:0.3": target_blend(0.3)}


def _outcome(gen, n, target, grid):
    """The points gen returns, or the type and message of what it raises."""
    try:
        return gen(n, target=target, grid=grid)
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
        assert (generate(1000, uni, grid)
                == leja_generate_reference(1000, uni, grid))

    @settings(max_examples=80, deadline=None)
    @given(xs=st.lists(st.floats(-1, 1), min_size=8, max_size=300,
                       unique=True),
           n=st.integers(2, 40),
           name=st.sampled_from(list(TARGETS)))
    def test_bit_equal_on_random_grids(self, xs, n, name):
        target, grid = TARGETS[name], np.sort(np.array(xs))
        assert (_outcome(generate, n, target, grid)
                == _outcome(leja_generate_reference, n, target, grid))


PROBE_EDGES = [1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0),
               0.0, -0.0]


def _bits(vs):
    vs = np.asarray(vs)
    assert vs.dtype == np.float64
    return vs.view(np.uint64)


class TestObjective:
    """The golden-section objective on a float probe, summed in its reused
    buffer, against _batch's value for the same point, bit for bit (sign
    bit included), across numpy's pairwise-sum block sizes 8 and 128."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.one_of(st.integers(1, 1100),
                       st.sampled_from([1, 8, 9, 128, 129, 256, 1025])),
           seed=st.integers(0, 2 ** 32 - 1),
           ends=st.booleans(),
           probes=st.lists(st.one_of(st.floats(-1, 1),
                                     st.sampled_from(PROBE_EDGES)),
                           min_size=1, max_size=6),
           name=st.sampled_from(list(TARGETS)))
    @example(n=1100, seed=0, ends=True, probes=PROBE_EDGES, name="uniform")
    def test_float_probe_bits_equal_array_probe(self, n, seed, ends, probes,
                                                name):
        #  the golden pair's way: V from grid_potential on each float
        pts = np.random.default_rng(seed).uniform(-1, 1, n)
        if ends:
            #  Leja's first points, which a probe at +-1 meets (log 0)
            pts[:2] = [1.0, -1.0][:n]
        target = TARGETS[name]
        f = leja._objective(pts, target)
        vs = (None if target is None
              else [target.grid_potential(x) for x in probes])
        with np.errstate(divide="ignore", invalid="ignore"):
            want = leja._batch(pts, probes, vs)
            got = [f(x) for x in probes]
        assert np.array_equal(_bits(want), _bits(got))

    @settings(max_examples=120, deadline=None)
    @given(xs=st.lists(st.one_of(st.floats(-1, 1),
                                 st.sampled_from(PROBE_EDGES)),
                       min_size=1, max_size=300, unique=True),
           i=st.integers(0, 2 ** 16),
           n=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1),
           name=st.sampled_from(list(TARGETS)))
    @example(xs=chebyshev_grid(4096).tolist(), i=2047, n=129, seed=0,
             name="uniform")
    def test_grid_candidate_bits_equal_float_probe(self, xs, i, n, seed,
                                                   name):
        #  the grid candidates' way: V read from vg, the target potential
        #  on the whole grid, at the argmax node and its neighbours
        nodes = np.sort(np.array(xs))
        m = len(nodes)
        i %= m
        j = [max(i - 1, 0), i, min(i + 1, m - 1)]
        pts = np.random.default_rng(seed).uniform(-1, 1, n)
        pts[:2] = nodes[j[::2]][:n]   # chosen points a candidate meets
        target = TARGETS[name]
        vg = None if target is None else target.grid_potential(nodes)
        f = leja._objective(pts, target)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = leja._batch(pts, nodes[j].tolist(),
                               None if vg is None else vg[j].tolist())
            got = [f(x) for x in nodes[j].tolist()]
        assert np.array_equal(_bits(want), _bits(got))


class TestAsymptotics:
    def test_unweighted_single_point_exact(self):
        r = verify_weighted_asymptotics((1.0,), None, [2.0])[0]
        want = 0.0 - (math.log(2 + math.sqrt(3)) - math.log(2))
        assert r == pytest.approx(want, abs=1e-14)

    def test_unweighted_residual_decay(self, unweighted_800):
        half = unweighted_800[:400]
        for z in (2.0, 2j, -3.0):
            r400 = verify_weighted_asymptotics(half, None, [z])[0]
            r800 = verify_weighted_asymptotics(unweighted_800, None, [z])[0]
            assert abs(r400) < 0.02
            assert abs(r800) < abs(r400)

    def test_residual_smaller_far_away(self, unweighted_800):
        half = unweighted_800[:400]
        r2, r10 = verify_weighted_asymptotics(half, None, [2.0, 10.0])
        assert abs(r10) < abs(r2)

    def test_median_trend_statistical(self, unweighted_800):
        #  median |r| over {2, 2i, -3} should drop under doubling for most n
        zs = (2.0, 2j, -3.0)
        wins = 0
        for n in (50, 100, 200, 400):
            a = np.median(np.abs(verify_weighted_asymptotics(
                unweighted_800[:n], None, zs)))
            b = np.median(np.abs(verify_weighted_asymptotics(
                unweighted_800[:2 * n], None, zs)))
            wins += b < a
        assert wins >= 3
        first = np.median(np.abs(verify_weighted_asymptotics(
            unweighted_800[:50], None, zs)))
        last = np.median(np.abs(verify_weighted_asymptotics(
            unweighted_800, None, zs)))
        assert last < first

    def test_weighted_arcsine_matches_unweighted_target(self,
                                                            unweighted_800):
        #  -V_arcsine(z) = log|phi(z)| - log 2 off the segment
        arc = target_arcsine()
        half = unweighted_800[:400]
        ra = verify_weighted_asymptotics(half, arc, [2.0])[0]
        rt = verify_weighted_asymptotics(half, None, [2.0])[0]
        assert ra == pytest.approx(rt, abs=1e-12)

    def test_weighted_asymptotics_uniform(self):
        uni = target_uniform()
        seq = generate(400, target=uni)
        r = verify_weighted_asymptotics(seq, uni, [2j])[0]
        assert abs(r) < 0.05

    def test_single_point_weighted_identity(self):
        uni = target_uniform()
        r = verify_weighted_asymptotics((1.0,), uni, [2.0])[0]
        want = math.log(abs(2.0 - 1.0)) + uni.potential(2.0)
        assert r == pytest.approx(want, abs=1e-14)


class TestEquidistribution:
    def test_ks_decreases_and_small(self):
        arc = target_arcsine()
        seq = generate(200, target=arc)
        ks200 = ks_distance(seq, arc.cdf)
        ks100 = ks_distance(seq[:100], arc.cdf)
        assert ks200 < 0.05
        assert ks200 < ks100

    def test_blend_ks(self):
        bl = target_blend(0.5)
        seq = generate(200, target=bl)
        assert ks_distance(seq, bl.cdf) < 0.05

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
            return mask.sum() / len(xs)

        grid = np.linspace(-1.5, 1.5, 3001)
        #  right and left limits at every atom, then a dense grid
        vals = [abs(measure(xs <= x) - c) for x, c in zip(xs, cdf(xs))]
        vals += [abs(measure(xs < x) - c) for x, c in zip(xs, cx_left)]
        vals += [abs(measure(xs <= t) - c) for t, c in zip(grid, cdf(grid))]
        assert ks_distance(xs, cdf) == pytest.approx(
            max(vals), abs=1e-12)

