import csv
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_abs, mpf_le, round_nearest

from potlab import (BreakdownError, DiscreteMeasure, ExperimentConfig,
                    PairingFailure, PrecisionContext, PrecisionTooLow,
                    SigmaBuildConfig, build_sigma, chebyshev_grid,
                    epsilon_stress_test, generate, ks_distance,
                    orthopoly_zeros, precision_floor, stieltjes_recurrence,
                    target_arcsine, target_blend, target_uniform,
                    verify_weighted_asymptotics, zero_stability_check)
from potlab import orthopoly as op
from potlab.experiments import run_prop1, target_from_name
from potlab.orthopoly import enclosures_hold

from conftest import (build_sigma_via_public_audit, exact_enclosures_hold,
                      exact_recurrence, mpf_fraction, orth_tol,
                      stieltjes_recurrence_reference, sturm_count_reference)

CTX = PrecisionContext(256)


def _monic_values(rc, k, x):
    """[P_0(x), ..., P_k(x)] by the recurrence; run under rc.ctx."""
    vals = [mpf(0), mpf(1)]
    for j in range(k):
        bj = rc.b[j] if j > 0 else 0
        vals.append((x - rc.a[j]) * vals[-1] - bj * vals[-2])
    return vals[1:]


def evaluate_monic(rc, k, x):
    """Value of the monic orthogonal polynomial P_k at x (k <= len(rc))."""
    if k > len(rc):
        raise ValueError("recurrence too short")
    with rc.ctx.workprec():
        return _monic_values(rc, k, x)[-1]


def orthogonality_residual(m, rc, n):
    """max_{k<n} |<P_n, x^k>| / (|P_n| * |x^k|) under the measure m."""
    ctx = m.ctx
    with ctx.workprec():
        vals = [evaluate_monic(rc, n, x) for x in m.locations]
        norm_p = mp.sqrt(mp.fsum(w * v * v for w, v in zip(m.weights, vals)))
        worst = mpf(0)
        for k in range(n):
            ip = mp.fsum(w * v * x ** k
                         for w, v, x in zip(m.weights, vals, m.locations))
            scale = mp.sqrt(mp.fsum(w * x ** (2 * k)
                                    for w, x in zip(m.weights, m.locations)))
            if norm_p > 0 and scale > 0:
                worst = max(worst, abs(ip) / (norm_p * scale))
        return worst


def gauss_quadrature(m, n):
    """n-point Gauss rule of the measure m: nodes and Christoffel weights.

    The rule integrates polynomials up to degree 2n-1 exactly against m,
    so its n-atom measure matches the first 2n moments of m.
    """
    rc = stieltjes_recurrence(m, n)
    zs = orthopoly_zeros(rc, n)
    ctx = m.ctx
    with ctx.workprec():
        norms = []
        acc = mpf(1)
        for k in range(n):
            acc *= rc.b[k]
            norms.append(acc)
        weights = []
        for x in zs.roots:
            vals = _monic_values(rc, n - 1, x)
            weights.append(1 / sum(p * p / nk for p, nk in zip(vals, norms)))
        return list(zs.roots), weights


def _dyadic(v, prec=None):
    """The dyadic Fraction v as a raw mpf, exact or rounded to prec."""
    e = v.denominator.bit_length() - 1
    assert v.denominator == 1 << e
    return from_man_exp(v.numerator, -e, prec, round_nearest)


def bisect_zeros(rc, n):
    """Zeros of P_n by plain Sturm bisection in exact dyadic arithmetic,
    a sweep at every midpoint down to width root_tol, and the last
    midpoint rounded once to bits: the oracle orthopoly_zeros must match
    bit for bit."""
    if n < 1 or n > len(rc):
        raise ValueError(f"need 1 <= n <= {len(rc)}")
    ctx = rc.ctx
    with ctx.workprec():
        a = [mpf(v) for v in rc.a[:n]]
        b = [mpf(v) for v in rc.b[:n]]
        for k in range(1, n):
            if not b[k] > 0:
                raise BreakdownError(f"b[{k}] = {b[k]} is not positive")
        r = max((mp.sqrt(b[k]) for k in range(1, n)), default=mpf(0))
        lo0 = mpf_fraction(min(a) - 2 * r - 1)
        hi0 = mpf_fraction(max(a) + 2 * r + 1)
        tol = mpf_fraction(ctx.root_tol)
        tiny = from_man_exp(1, -4 * ctx.bits)
        a = [v._mpf_ for v in a]
        b = [v._mpf_ for v in b]
        roots = []
        for k in range(1, n + 1):
            lo, hi = lo0, hi0
            while hi - lo > tol:
                mid = (lo + hi) / 2
                if op._sturm_count(a, b, n, _dyadic(mid), tiny) >= k:
                    hi = mid
                else:
                    lo = mid
            roots.append(mp.make_mpf(_dyadic((lo + hi) / 2, ctx.bits)))
    return tuple(roots)


def bits_of(roots):
    return [r._mpf_ for r in roots]


def two_atom():
    return DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5)), ctx=CTX)


def gauss_chebyshev(N=64, ctx=CTX):
    with ctx.workprec():
        atoms = tuple((mp.cos((2 * k - 1) * mp.pi / (2 * N)), mpf(1) / N)
                      for k in range(1, N + 1))
    return DiscreteMeasure(atoms, ctx=ctx)


@pytest.fixture(scope="module")
def arcsine_seq():
    return generate(12, target=target_arcsine())


@pytest.fixture(scope="module")
def sigma6(arcsine_seq):
    cfg = SigmaBuildConfig(q=0.4, n_max=6, bits=1024)
    return build_sigma(cfg, arcsine_seq)


@pytest.fixture(scope="module")
def arcsine_200():
    #  the prop1 runners' sequence: 200 arcsine Leja points on 4096 nodes
    return generate(200, target=target_arcsine())


@pytest.fixture(scope="module")
def bench_sigma(arcsine_200):
    #  the prop1 benchmark sigma: q = 0.4, n_max = 7, 768 bits
    return build_sigma(SigmaBuildConfig(q=0.4, n_max=7, bits=768),
                       arcsine_200)


@pytest.fixture(scope="module")
def readme_sigma(arcsine_200):
    return build_sigma(SigmaBuildConfig(q=0.4, n_max=10, bits=2048),
                       arcsine_200)


@pytest.fixture(scope="module")
def sigma6_power(arcsine_seq):
    cfg = SigmaBuildConfig(q=0.4, n_max=6, bits=1024, cascade="power")
    return build_sigma(cfg, arcsine_seq)


class TestStieltjes:
    def test_two_atoms(self):
        rc = stieltjes_recurrence(two_atom(), 2)
        assert abs(rc.a[0]) < 1e-70 and abs(rc.a[1]) < 1e-70
        assert abs(rc.b[0] - 1) == 0
        assert abs(rc.b[1] - 1) < 1e-70

    def test_two_atoms_breakdown_beyond_support(self):
        with pytest.raises(BreakdownError):
            stieltjes_recurrence(two_atom(), 3)

    @pytest.mark.parametrize("bits", [64, 256, 768])
    @pytest.mark.parametrize("atoms", [
        ((-0.7, 0.25), (0.1, 0.5)),
        ((-0.7, 0.25), (0.1, 0.5), (0.8, 0.125)),
        ((-0.7, 0.25), (0.1, 0.5), (0.8, 0.125), (0.1, 0.125)),
    ], ids=["two", "three", "three_of_four"])
    @pytest.mark.parametrize("beyond", [1, 2])
    def test_breakdown_beyond_distinct_locations(self, bits, atoms, beyond):
        #  P_d of d distinct locations vanishes on the atoms, so its norm
        #  is a rounding residue (b_3 about 1e-155 at 256 bits for three
        #  atoms), not a breakdown the norm test can see; a repeated
        #  location counts once
        m = DiscreteMeasure(atoms, ctx=PrecisionContext(bits))
        d = len({x for x, _ in atoms})
        assert len(stieltjes_recurrence(m, d)) == d
        with pytest.raises(BreakdownError):
            stieltjes_recurrence(m, d + beyond)

    def test_b0_is_total_mass_exactly(self):
        m = DiscreteMeasure(((-0.7, 0.25), (0.1, 0.5), (0.8, 0.125)), ctx=CTX)
        rc = stieltjes_recurrence(m, 1)
        with CTX.workprec():
            assert rc.b[0] == mp.fsum(m.weights)

    def test_gauss_chebyshev_recurrence(self):
        rc = stieltjes_recurrence(gauss_chebyshev(64), 10)
        for ak in rc.a:
            assert abs(ak) < 1e-3
        assert float(rc.b[1]) == pytest.approx(0.5, abs=1e-3)
        for bk in rc.b[2:]:
            assert float(bk) == pytest.approx(0.25, abs=1e-3)

    def test_orthogonality_residual(self):
        m = gauss_chebyshev(64)
        rc = stieltjes_recurrence(m, 12)
        res = orthogonality_residual(m, rc, 12)
        assert res < orth_tol(CTX)

    def test_moment_matched_measures_agree(self):
        #  the n-point Gauss rule of m matches its first 2n moments, so
        #  both measures give the same first n recurrence pairs
        n = 8
        m = gauss_chebyshev(40)
        nodes, weights = gauss_quadrature(m, n)
        g = DiscreteMeasure(tuple(zip(nodes, weights)), ctx=CTX)
        with CTX.workprec():
            for k in range(2 * n):
                ma = mp.fsum(w * x ** k for x, w in m.atoms)
                mb = mp.fsum(w * x ** k for x, w in g.atoms)
                assert abs(ma - mb) < orth_tol(CTX)
        ra = stieltjes_recurrence(m, n)
        rb = stieltjes_recurrence(g, n)
        for x, y in zip(ra.a, rb.a):
            assert abs(x - y) < orth_tol(CTX)
        for x, y in zip(ra.b, rb.b):
            assert abs(x - y) < orth_tol(CTX)


def _random_measure(data):
    """Atoms on a 1e-3 lattice, weights m/100 q^(e^2) with the exponents e
    spread over the atoms' count, and a precision of 64 to 4096 bits."""
    ticks = data.draw(st.lists(st.integers(-1000, 1000), min_size=1,
                               max_size=10, unique=True))
    q = data.draw(st.sampled_from(["0.2", "0.3", "0.4", "0.45"]))
    bits = data.draw(st.one_of(st.sampled_from([64, 65, 768, 1001, 2048,
                                                4095, 4096]),
                               st.integers(64, 4096)))
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        atoms = tuple((mpf(t) / 1000,
                       mpf(data.draw(st.integers(1, 100))) / 100
                       * mpf(q) ** data.draw(st.integers(0, len(ticks))) ** 2)
                      for t in ticks)
    return DiscreteMeasure(atoms, ctx=ctx)


def _raw(values):
    return [v._mpf_ for v in values]


class TestRawKernels:
    """The raw-value kernels against the mpf-object loops they replace."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stieltjes_equals_mpf_object_version(self, data):
        m = _random_measure(data)
        n = data.draw(st.integers(0, len(m) + 1))
        try:
            want = stieltjes_recurrence_reference(m, n)
        except BreakdownError as exc:
            with pytest.raises(BreakdownError) as got:
                stieltjes_recurrence(m, n)
            assert str(got.value) == str(exc)
            return
        got = stieltjes_recurrence(m, n)
        assert _raw(got.a) == _raw(want.a)
        assert _raw(got.b) == _raw(want.b)

    def test_stieltjes_breakdown_message(self):
        with pytest.raises(BreakdownError) as want:
            stieltjes_recurrence_reference(two_atom(), 3)
        with pytest.raises(BreakdownError) as got:
            stieltjes_recurrence(two_atom(), 3)
        assert str(got.value) == str(want.value)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sturm_count_equals_mpf_object_version(self, data):
        #  "pivot" puts x at a[0], so the first pivot is exactly zero and
        #  the tiny substitute carries the count on
        m = _random_measure(data)
        n = data.draw(st.integers(1, len(m)))
        rc = stieltjes_recurrence(m, n)
        ctx = m.ctx
        kind = data.draw(st.sampled_from(["pivot", "lattice", "atom"]))
        with ctx.workprec():
            if kind == "pivot":
                x = rc.a[0]
            elif kind == "lattice":
                x = mpf(data.draw(st.integers(-1100, 1100))) / 1000
            else:
                x = data.draw(st.sampled_from(m.locations))
            tiny = mpf(2) ** (-4 * ctx.bits)
            want = sturm_count_reference(rc.a, rc.b, n, x, tiny)
            got = op._sturm_count(_raw(rc.a), _raw(rc.b), n, x._mpf_,
                                  tiny._mpf_)
            assert kind != "pivot" or rc.a[0] - x == 0
        assert got == want

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a2", ["-1", "0", "1"])
    def test_sturm_count_second_pivot_zero(self, n, a2):
        #  at x = 0, d_1 = 1/4 - (1/4) / 1 is exactly zero: the tiny
        #  substitute past the first pivot, last (n = 2) or followed (n = 3)
        with CTX.workprec():
            a = [mpf(1), mpf(1) / 4, mpf(a2)]
            b = [mpf(1), mpf(1) / 4, mpf(1) / 4]
            x = mpf(0)
            assert (a[1] - x) - b[1] / (a[0] - x) == 0
            tiny = mpf(2) ** (-4 * CTX.bits)
            want = sturm_count_reference(a, b, n, x, tiny)
            got = op._sturm_count(_raw(a), _raw(b), n, x._mpf_, tiny._mpf_)
        assert got == want == 1


class TestZeros:
    def test_two_atom_degree_one(self):
        rc = stieltjes_recurrence(two_atom(), 1)
        zs = orthopoly_zeros(rc, 1)
        assert abs(zs.roots[0]) < 1e-35

    def test_chebyshev_zeros(self):
        rc = stieltjes_recurrence(gauss_chebyshev(64), 5)
        zs = orthopoly_zeros(rc, 5)
        want = sorted(math.cos((2 * k - 1) * math.pi / 10) for k in range(1, 6))
        for r, w in zip(zs.roots, want):
            assert float(r) == pytest.approx(w, abs=1e-3)

    def test_roots_sorted_and_inside_hull(self, sigma6):
        lo = min(float(x) for x in sigma6.locations)
        hi = max(float(x) for x in sigma6.locations)
        for n in range(1, 7):
            rc = stieltjes_recurrence(sigma6, n)
            zs = orthopoly_zeros(rc, n)
            rr = [float(r) for r in zs.roots]
            assert rr == sorted(rr)
            assert all(lo - 1e-20 <= r <= hi + 1e-20 for r in rr)

    def test_interlacing(self, sigma6):
        rc = stieltjes_recurrence(sigma6, 6)
        prev = orthopoly_zeros(rc, 1).roots
        for n in range(2, 7):
            cur = orthopoly_zeros(rc, n).roots
            for k in range(len(prev)):
                assert cur[k] < prev[k] < cur[k + 1]
            prev = cur

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_measure_zeros_eigvalsh_and_interlace(self, data):
        #  atoms on a 1e-3 lattice and weights in [0.1, 1] keep the
        #  Jacobi matrix at moderate scales, where float64 eigvalsh is
        #  accurate to a few ulps
        ticks = data.draw(st.lists(st.integers(-1000, 1000), min_size=3,
                                   max_size=12, unique=True))
        masses = data.draw(st.lists(st.integers(10, 100), min_size=len(ticks),
                                    max_size=len(ticks)))
        n = data.draw(st.integers(2, len(ticks)))
        ctx = PrecisionContext(128)
        m = DiscreteMeasure(tuple((mpf(t) / 1000, mpf(w) / 100)
                                  for t, w in zip(ticks, masses)), ctx=ctx)
        rc = stieltjes_recurrence(m, n)
        roots = orthopoly_zeros(rc, n).roots
        off = [math.sqrt(float(b)) for b in rc.b[1:n]]
        jac = (np.diag([float(a) for a in rc.a[:n]])
               + np.diag(off, 1) + np.diag(off, -1))
        want = np.linalg.eigvalsh(jac)
        assert np.max(np.abs(np.array([float(r) for r in roots]) - want)) \
            <= 1e-12
        prev = orthopoly_zeros(rc, n - 1).roots
        for k in range(n - 1):
            assert roots[k] < prev[k] < roots[k + 1]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_measure_roots_bit_equal_to_bisection(self, data):
        #  flat weights, or a cascade q^(k^2+1) like sigma's; the
        #  enclosures change which midpoints are swept, never a root bit.
        #  One flat atom at a dyadic x has the Gershgorin interval
        #  [x - 1, x + 1], exactly a power of two wide
        ticks = data.draw(st.lists(st.integers(-1000, 1000), min_size=1,
                                   max_size=8, unique=True))
        cascade = data.draw(st.booleans())
        q = data.draw(st.sampled_from(["0.2", "0.3", "0.4"]))
        ctx = PrecisionContext(data.draw(st.sampled_from([64, 65, 128, 256,
                                                          768, 1001])))
        scale = 1000
        if data.draw(st.booleans()):
            ticks, cascade, scale = ticks[:1], False, 1024
        with ctx.workprec():
            atoms = tuple((mpf(t) / scale,
                           mpf(q) ** (k * k + 1) if cascade else mpf(1))
                          for k, t in enumerate(ticks))
        rc = stieltjes_recurrence(DiscreteMeasure(atoms, ctx=ctx),
                                  len(ticks))
        for n in range(1, len(ticks) + 1):
            zs = orthopoly_zeros(rc, n)
            assert bits_of(zs.roots) == bits_of(bisect_zeros(rc, n)), n

    @pytest.mark.parametrize("bits", [65, 1001, 2048])
    @pytest.mark.parametrize("atoms, scale", [
        (((-0.9, 1), (-0.2, 0.3), (0.35, 0.09), (0.8, 0.027), (0.05, 0.0081)),
         1),
        #  every a_k is exactly 0, so the bisection to the middle root of
        #  an odd degree starts at mid = 0 and halves toward it
        (((-1, 1), (-0.5, 2), (0, 1), (0.5, 2), (1, 1)), 1),
        #  atoms stretched to +-50: the Gershgorin interval of J_5 is
        #  about (-77, 85), so the grid has the most cells here
        (((-1, 1), (-0.25, 0.5), (0.06, 1), (0.545, 0.25), (1, 1)), 50),
    ], ids=["cascade", "symmetric", "spread_50"])
    def test_roots_bit_equal_to_bisection_at_odd_precision_and_wide_span(
            self, atoms, scale, bits):
        ctx = PrecisionContext(bits)
        rc = stieltjes_recurrence(DiscreteMeasure(atoms, ctx=ctx), len(atoms))
        with ctx.workprec():
            rc = op.RecurrenceCoeffs(
                a=tuple(scale * a for a in rc.a),
                b=rc.b[:1] + tuple(scale ** 2 * b for b in rc.b[1:]), ctx=ctx)
        for n in range(1, len(atoms) + 1):
            zs = orthopoly_zeros(rc, n)
            assert bits_of(zs.roots) == bits_of(bisect_zeros(rc, n)), n
            assert zs.fallbacks == 0

    @pytest.mark.parametrize("bits", [65, 1001, 2048])
    def test_root_within_tol_of_zero_bit_equal_to_bisection(self, bits):
        #  the Gershgorin ends, -1 and 1 shifted by x0, carry bits down to
        #  2^(1-bits), and the root's cell lies within root_tol of 0: the
        #  grid holds every end exactly, and only the midpoint is rounded
        ctx = PrecisionContext(bits)
        with ctx.workprec():
            x0 = -mpf(420095) * mpf(2) ** -(bits + 13)
        rc = stieltjes_recurrence(DiscreteMeasure(((x0, 1),), ctx=ctx), 1)
        assert bits_of(orthopoly_zeros(rc, 1).roots) == bits_of(
            bisect_zeros(rc, 1))

    def test_middle_root_of_a_symmetric_measure_is_zero(self):
        ctx = PrecisionContext(1001)
        m = DiscreteMeasure(((-1, 1), (-0.5, 2), (0, 1), (0.5, 2), (1, 1)),
                            ctx=ctx)
        rc = stieltjes_recurrence(m, 5)
        assert all(a == 0 for a in rc.a)
        for n in (1, 3, 5):
            assert abs(orthopoly_zeros(rc, n).roots[n // 2]) <= ctx.root_tol

    @pytest.mark.parametrize("spoil", [
        lambda s: np.where(np.arange(len(s)) == 2, s[1], s),
        lambda s: np.where(np.arange(len(s)) == 2, np.nan, s),
    ], ids=["seed_of_the_root_below", "nan_seed"])
    def test_bad_seed_falls_back_to_the_same_bits(self, sigma6, monkeypatch,
                                                   spoil):
        #  Newton from the neighbouring root's seed lands on that root,
        #  whose enclosure cannot hold the k-th eigenvalue; a NaN seed
        #  gives no enclosure at all
        rc = stieltjes_recurrence(sigma6, 5)
        seeds = op._seeds
        monkeypatch.setattr(op, "_seeds", lambda a, b, n: spoil(
            seeds(a, b, n)))
        zs = orthopoly_zeros(rc, 5)
        assert zs.fallbacks == 1
        assert bits_of(zs.roots) == bits_of(bisect_zeros(rc, 5))

    def test_at_most_three_sweeps_per_root(self, bench_sigma, monkeypatch):
        #  two enclosure counts, and at most one cell end inside it
        rc = stieltjes_recurrence(bench_sigma, 7)
        calls = []
        sweep = op._sturm_count

        def counting(*args):
            calls.append(1)
            return sweep(*args)

        monkeypatch.setattr(op, "_sturm_count", counting)
        for n in range(1, 8):
            calls.clear()
            zs = orthopoly_zeros(rc, n)
            assert zs.fallbacks == 0
            assert len(calls) <= 3 * n, (n, len(calls))

    @pytest.mark.parametrize("n_max, bits, compared", [
        (7, 768, range(1, 8)),
        (10, 2048, range(1, 11)),
        (13, 3380, (13,)),
    ], ids=["bench_sigma", "readme_sigma", "n_max_13"])
    def test_newton_ladder_certifies_every_root(self, arcsine_200,
                                                monkeypatch, n_max, bits,
                                                compared):
        #  Newton stops at bits/2 + 32 bits, plus one for a root of modulus
        #  in [1, 2); its points still certify every enclosure, so the
        #  cell, and every root bit, is the plain bisection's.  At 3380
        #  bits that bisection takes seconds per degree near the top, so
        #  only degree 13 is compared there.
        sigma = build_sigma(SigmaBuildConfig(q=0.4, n_max=n_max, bits=bits),
                            arcsine_200)
        rc = stieltjes_recurrence(sigma, n_max)
        newton, points = op._newton, []

        def recording(*args):
            points.append(newton(*args))
            return points[-1]

        monkeypatch.setattr(op, "_newton", recording)
        for n in range(1, n_max + 1):
            zs = orthopoly_zeros(rc, n)
            assert zs.fallbacks == 0, n
            if n in compared:
                assert bits_of(zs.roots) == bits_of(bisect_zeros(rc, n)), n
        assert len(points) == n_max * (n_max + 1) // 2
        assert max(bc for _, _, _, bc in points) <= bits // 2 + 33

    @pytest.mark.parametrize("sigma, n_max, extra", [
        ("bench_sigma", 7, 1), ("readme_sigma", 10, 0)])
    def test_newton_stops_after_one_step_at_top(self, request, monkeypatch,
                                                sigma, n_max, extra):
        #  a step divides once, by P_n', at its precision: each ladder
        #  climbs to top and stops after one step there, unless the next
        #  step shows the point still more than stop = root_tol/16 off
        #  (one root of P_6 of the bench sigma, 2^-384 off after one);
        #  test_newton_ladder_certifies_every_root checks the roots
        rc = stieltjes_recurrence(request.getfixturevalue(sigma), n_max)
        newton, div, ladders, active = op._newton, op.mpf_div, [], []

        def recording(a, b, n, seed, stop, bits):
            ladders.append((min(bits, bits // 2 + 32
                                + max(math.frexp(seed)[1], 0)), stop, []))
            active.append(ladders[-1][2])
            try:
                return newton(a, b, n, seed, stop, bits)
            finally:
                active.pop()

        def dividing(s, t, prec, rnd):
            step = div(s, t, prec, rnd)
            if active:
                active[-1].append((prec, mpf_abs(step)))
            return step

        monkeypatch.setattr(op, "_newton", recording)
        monkeypatch.setattr(op, "mpf_div", dividing)
        for n in range(1, n_max + 1):
            assert orthopoly_zeros(rc, n).fallbacks == 0, n
        assert len(ladders) == n_max * (n_max + 1) // 2
        at_top = [[s for p, s in steps if p == top]
                  for top, _, steps in ladders]
        assert all(steps[-1][0] == top for top, _, steps in ladders)
        assert sum(len(s) - 1 for s in at_top) == extra
        assert all(not mpf_le(s, stop) for (_, stop, _), steps
                   in zip(ladders, at_top) for s in steps[1:])

    def test_zero_evaluation_consistency(self, sigma6):
        #  P_n vanishes at the bisection roots to root-tolerance scale
        rc = stieltjes_recurrence(sigma6, 4)
        zs = orthopoly_zeros(rc, 4)
        with sigma6.ctx.workprec():
            for r in zs.roots:
                val = evaluate_monic(rc, 4, r)
                assert abs(val) < mpf(2) ** (-sigma6.ctx.bits // 2 + 40)


class TestGaussQuadrature:
    def test_two_atom_rule(self):
        nodes, weights = gauss_quadrature(two_atom(), 2)
        assert float(nodes[0]) == pytest.approx(-1, abs=1e-60)
        assert float(nodes[1]) == pytest.approx(1, abs=1e-60)
        for w in weights:
            assert float(w) == pytest.approx(0.5, abs=1e-60)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exact_to_degree_2n_minus_1(self, data):
        #  atoms on a 1e-3 lattice keep the measure away from coincident
        #  atoms, where no rule is well defined
        ticks = data.draw(st.lists(st.integers(-1000, 1000), min_size=1,
                                   max_size=8, unique=True))
        masses = data.draw(st.lists(st.integers(1, 100), min_size=len(ticks),
                                    max_size=len(ticks)))
        n = data.draw(st.integers(1, len(ticks)))
        ctx = PrecisionContext(data.draw(st.sampled_from([128, 256])))
        m = DiscreteMeasure(tuple((mpf(t) / 1000, mpf(w) / 100)
                                  for t, w in zip(ticks, masses)), ctx=ctx)
        nodes, weights = gauss_quadrature(m, n)
        with ctx.workprec():
            for k in range(2 * n):
                exact = mp.fsum(w * x ** k for x, w in m.atoms)
                rule = mp.fsum(w * x ** k for x, w in zip(nodes, weights))
                assert abs(rule - exact) <= orth_tol(ctx), (k, rule, exact)


class TestBuildSigma:
    def test_power_weights(self, arcsine_seq):
        cfg = SigmaBuildConfig(q=0.4, n_max=3, bits=512, cascade="power")
        sigma = build_sigma(cfg, arcsine_seq)
        with sigma.ctx.workprec():
            q = mpf("0.4")
            for k, (_, w) in enumerate(sigma.atoms):
                assert abs(w - q ** ((k + 1) ** 2)) == 0
        ws = [float(w) for w in sigma.weights]
        assert ws == pytest.approx([0.4, 0.0256, 0.000262144], rel=1e-12)

    def test_tail_condition_at_truncation(self, sigma6_power):
        with sigma6_power.ctx.workprec():
            ws = sigma6_power.weights
            for k in range(len(ws) - 1):
                assert mp.fsum(ws[k + 1:]) < ws[k]

    def test_q_range_rejected(self):
        with pytest.raises(ValueError):
            SigmaBuildConfig(q=0.6, n_max=3, bits=512)

    def test_precision_floor_enforced(self):
        assert precision_floor(0.4, 10, "power") > 256
        with pytest.raises(PrecisionTooLow):
            SigmaBuildConfig(q=0.4, n_max=10, bits=256, cascade="power")

    def test_stabilized_floor_equals_summed_span(self):
        #  the closed form of 1 + sum_{k<n} k^2 + n^2 against the sum
        lg = math.log2(1 / 0.4)
        for n in range(1, 301):
            span = 1 + sum(k * k for k in range(1, n)) + n * n
            assert precision_floor(0.4, n) == math.ceil(3 * span * lg) + 128

    def test_stabilized_cascade_respects_paper_interval(self, sigma6):
        #  eps_{n+1} < q^(n^2) * eps_n
        with sigma6.ctx.workprec():
            q = mpf("0.4")
            ws = sigma6.weights
            assert abs(ws[0] - q) == 0
            for n in range(1, len(ws)):
                assert ws[n] < q ** (n * n) * ws[n - 1]

    def test_atoms_are_leja_points(self, sigma6, arcsine_seq):
        for (x, _), p in zip(sigma6.atoms, arcsine_seq):
            assert float(x) == p

    def test_zeros_agree_at_more_bits(self):
        #  precision adequacy: the prop1 benchmark sigma (q = 0.4, n_max = 7,
        #  200 arcsine Leja points on 4096 nodes) rebuilt at 1024 bits
        #  moves no zero of P_1 ... P_7 by more than the 768-bit root_tol
        seq = generate(200, target=target_arcsine())
        zeros = {}
        for bits in (768, 1024):
            sigma = build_sigma(SigmaBuildConfig(q=0.4, n_max=7, bits=bits),
                                seq)
            rc = stieltjes_recurrence(sigma, 7)
            zeros[bits] = [orthopoly_zeros(rc, n).roots for n in range(1, 8)]
        tol = PrecisionContext(768).root_tol
        with mp.workprec(1024):
            gap = max(abs(a - b) for ra, rb in zip(zeros[768], zeros[1024])
                      for a, b in zip(ra, rb))
        assert gap < tol, (mp.nstr(gap, 4), mp.nstr(tol, 4))

    def test_one_discrete_measure_per_build(self, arcsine_200, monkeypatch):
        #  the calibration's atoms are built inside build_sigma and valid
        #  by construction: the one DiscreteMeasure made is the sigma returned
        inner, made = DiscreteMeasure.__post_init__, []

        def recording(self):
            made.append(self)
            inner(self)

        monkeypatch.setattr(DiscreteMeasure, "__post_init__", recording)
        sigma = build_sigma(SigmaBuildConfig(q=0.4, n_max=7, bits=768),
                            arcsine_200)
        assert len(made) == 1 and made[0] is sigma

    def test_stabilized_margins_across_q(self, arcsine_seq):
        #  the calibration is not tuned to one q: margins stay comfortable
        #  over the admissible range
        for q in (0.3, 0.45):
            cfg = SigmaBuildConfig(q=q, n_max=6, bits=1024)
            sigma = build_sigma(cfg, arcsine_seq)
            rc = stieltjes_recurrence(sigma, 6)
            for n in range(2, 7):
                rep = zero_stability_check(rc, arcsine_seq, n, q)
                assert rep.margin >= 2


class TestZeroStability:
    def test_degree_one_closed_form(self, sigma6):
        #  the single zero of P_1 is the mean of the measure
        rep = zero_stability_check(stieltjes_recurrence(sigma6, 1),
                                   _seq_of(sigma6), 1, 0.4)
        with sigma6.ctx.workprec():
            mean = (mp.fsum(w * x for x, w in sigma6.atoms)
                    / mp.fsum(sigma6.weights))
            assert abs(rep.zeros.roots[0] - mean) < mpf(2) ** -400
        assert rep.max_deviation < mpf("0.4")

    def test_stabilized_sigma_passes_with_margin(self, sigma6):
        seq = _seq_of(sigma6)
        rc = stieltjes_recurrence(sigma6, 6)
        for n in range(2, 7):
            rep = zero_stability_check(rc, seq, n, 0.4)
            assert rep.passed
            assert rep.margin >= 2

    def test_power_cascade_violates_bound_at_three(self, sigma6_power):
        #  eps_n = q^(n^2) decays too slowly: the measured deviation of the
        #  degree-3 zeros exceeds q^9 (the bound fails from n = 3 on)
        rep = zero_stability_check(stieltjes_recurrence(sigma6_power, 3),
                                   _seq_of(sigma6_power), 3, 0.4)
        assert rep.max_deviation > rep.bound

    def test_power_cascade_top_degree_is_exact(self, sigma6_power):
        #  P_6 of the 6-atom measure vanishes at the atoms themselves
        rep = zero_stability_check(stieltjes_recurrence(sigma6_power, 6),
                                   _seq_of(sigma6_power), 6, 0.4)
        assert rep.passed
        assert float(rep.max_deviation) < 1e-100

    def test_certificate_fails_below_the_true_deviation(self, sigma6):
        #  each zero of P_4 lies within max_deviation of its Leja point:
        #  radius 2d certifies that, d/2 cannot, and a radius reaching
        #  half the separation makes the intervals overlap
        seq = _seq_of(sigma6)
        rc = stieltjes_recurrence(sigma6, 4)
        d = zero_stability_check(rc, seq, 4, 0.4).max_deviation
        assert enclosures_hold(rc, 4, seq, 2 * d)
        assert not enclosures_hold(rc, 4, seq, d / 2)
        gap = min(abs(x - y) for i, x in enumerate(seq[:4])
                  for y in seq[:i])
        assert not enclosures_hold(rc, 4, seq, gap / 2)
        with pytest.raises(ValueError):
            enclosures_hold(rc, 4, seq[:3], 2 * d)
        #  the same through the report: q^16 = d/2 puts the bound below d
        with sigma6.ctx.workprec():
            q = float((d / 2) ** (mpf(1) / 16))
        rep = zero_stability_check(rc, seq, 4, q)
        assert rep.bound < rep.max_deviation and not rep.passed

    def test_exact_proof_on_the_bench_sigma(self, bench_sigma):
        #  sigma's atoms are floats and its weights mpf, so its recurrence
        #  and Sturm counts in rationals carry no rounding: every degree's
        #  bound q^(n^2) is proved for the measure itself
        seq = _seq_of(bench_sigma)
        a, b = exact_recurrence(bench_sigma, 7)
        for n in range(1, 8):
            assert exact_enclosures_hold(a, b, n, seq,
                                         Fraction(2, 5) ** (n * n)), n
        #  a radius below the true deviation cannot be proved
        d = zero_stability_check(stieltjes_recurrence(bench_sigma, 4), seq,
                                 4, 0.4).max_deviation
        assert not exact_enclosures_hold(a, b, 4, seq,
                                         mpf_fraction(d / 2))

    @settings(max_examples=20, deadline=None)
    @given(q=st.floats(0.2, 0.45), weight=st.floats(0, 1),
           n_max=st.integers(2, 6))
    def test_certificate_on_random_sigmas(self, q, weight, n_max):
        bits = precision_floor(q, n_max) + 64
        seq = generate(n_max, target=target_blend(weight),
                       grid=chebyshev_grid(1024))
        sigma = build_sigma(SigmaBuildConfig(q=q, n_max=n_max, bits=bits),
                            seq)
        rc = stieltjes_recurrence(sigma, n_max)
        for n in range(1, n_max + 1):
            assert zero_stability_check(rc, seq, n, q).passed, n

    def test_short_sequences_are_refused(self, sigma6):
        #  too few Leja points is a caller's error, not a failed pairing
        seq = _seq_of(sigma6)
        with pytest.raises(ValueError) as got:
            zero_stability_check(stieltjes_recurrence(sigma6, 5), seq[:3],
                                 5, 0.4)
        assert type(got.value) is ValueError
        assert str(got.value) == "need 5 Leja points, have 3"
        with pytest.raises(ValueError, match="^need 3 Leja points, have 2$"):
            epsilon_stress_test(sigma6, seq[:2], 3, sigma6.weights[3], q=0.4)

    def test_check_sweeps_only_in_its_zero_finder(self, bench_sigma,
                                                  monkeypatch):
        #  every pair of counts of the bound's certificate follows from
        #  an enclosure that orthopoly_zeros already proved
        seq = _seq_of(bench_sigma)
        rc = stieltjes_recurrence(bench_sigma, 7)
        calls = _recording(monkeypatch, "_sturm_count")
        for n in range(1, 8):
            del calls[:]
            orthopoly_zeros(rc, n)
            finder = len(calls)
            del calls[:]
            assert zero_stability_check(rc, seq, n, 0.4).passed, n
            assert len(calls) == finder, (n, len(calls), finder)

    def test_enclosure_verdict_equals_sweeps_on_the_bench_sigma(
            self, bench_sigma):
        #  radii from below delta to beyond the separation: the verdict
        #  read off the enclosures is enclosures_hold's, which sweeps
        seq = _seq_of(bench_sigma)
        rc = stieltjes_recurrence(bench_sigma, 7)
        ctx = rc.ctx
        for n in range(1, 8):
            J = orthopoly_zeros(rc, n).jacobi
            verdicts = set()
            for e in [*range(-ctx.bits // 2 - 8, 0, 9), 2]:
                with ctx.workprec():
                    got = op._holds(J, ctx, seq, mpf(2) ** e)
                assert got == enclosures_hold(rc, n, seq, mpf(2) ** e), (n, e)
                verdicts.add(got)
            assert verdicts == {True, False}, n

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_enclosure_verdict_equals_sweeps_on_random_measures(self, data):
        #  centers off the roots by 2^-e, each on its own side; radii
        #  below delta, about the centers' deviation, and up to beyond
        #  the separation
        m = _random_measure(data)
        n = data.draw(st.integers(1, len(m)))
        rc = stieltjes_recurrence(m, n)
        zs = orthopoly_zeros(rc, n)
        ctx, J = m.ctx, zs.jacobi
        with ctx.workprec():
            centers = [r + data.draw(st.sampled_from([-1, 1]))
                       * mpf(2) ** -data.draw(st.integers(2, ctx.bits // 2
                                                          + 4))
                       for r in zs.roots]
            d = max(abs(c - r) for c, r in zip(centers, zs.roots))
            radii = [J.delta / 16, J.delta, d / 2, d, d + J.delta,
                     2 * d + 4 * J.delta, mpf(1) / 64, mpf(1), mpf(4)]
            got = [op._holds(J, ctx, centers, r) for r in radii]
        assert got == [enclosures_hold(rc, n, centers, r) for r in radii]

    def test_low_precision_fails_loudly(self, arcsine_seq):
        #  64 bits cannot carry the q^100 weight span of ten atoms
        ctx = PrecisionContext(64)
        with ctx.workprec():
            q = mpf("0.4")
            atoms = tuple((ctx.mpf(x), q ** ((k + 1) ** 2))
                          for k, x in enumerate(arcsine_seq[:10]))
        bad = DiscreteMeasure(atoms, ctx=ctx)
        with pytest.raises((PairingFailure, BreakdownError)):
            for n in range(2, 11):
                zero_stability_check(stieltjes_recurrence(bad, n),
                                     arcsine_seq, n, 0.4)


def _seq_of(sigma):
    return tuple(float(x) for x in sigma.locations)


class TestStressAudit:
    def test_zero_perturbation_matches_baseline(self, sigma6):
        seq = _seq_of(sigma6)
        rep = epsilon_stress_test(sigma6, seq, 4, sigma6.weights[4],
                                  family=[("zero", None)], q=0.4)
        sigma4 = DiscreteMeasure(sigma6.atoms[:4], ctx=sigma6.ctx)
        base = zero_stability_check(stieltjes_recurrence(sigma4, 4), seq, 4,
                                    0.4)
        assert abs(rep.results[0][1] - base.max_deviation) < mpf(2) ** -300

    def test_calibrated_eps_passes_documented_family(self, sigma6):
        #  the cascade's own eps_5 was chosen to survive exactly this audit
        seq = _seq_of(sigma6)
        rep = epsilon_stress_test(sigma6, seq, 4, sigma6.weights[4], q=0.4)
        assert not rep.violations
        assert [name for name, _ in rep.results] == [
            "delta_-1", "delta_+1", "uniform_grid_64"]

    @pytest.mark.parametrize("n", [2, 4])
    def test_default_members_move_a_zero_and_own_atoms_none(self, uniform_200,
                                                            n):
        #  the uniform-target Leja points do not start at +-1, so each
        #  default member moves a zero by more than rounding; nothing, or
        #  an atom at one of sigma_n's own locations, leaves an n-atom
        #  measure whose zeros are its atoms
        sigma = build_sigma(SigmaBuildConfig(q=0.35, n_max=6, bits=1024),
                            uniform_200)
        ctx = sigma.ctx
        rep = epsilon_stress_test(sigma, uniform_200, n, sigma.weights[n],
                                  q=0.35)
        assert all(d > ctx.root_tol for _, d in rep.results), rep.results
        own = [("zero", None)] + [(f"delta_leja_{k + 1}",
                                   ((ctx.mpf(x), ctx.mpf(1)),))
                                  for k, x in enumerate(uniform_200[:n])]
        rep = epsilon_stress_test(sigma, uniform_200, n, sigma.weights[n],
                                  q=0.35, family=own)
        assert [name for name, _ in rep.results] == [name for name, _ in own]
        assert all(d <= ctx.root_tol for _, d in rep.results), rep.results

    def test_oversized_eps_fails(self, sigma6):
        #  q^25 is far above the stability threshold for n = 4
        seq = _seq_of(sigma6)
        with sigma6.ctx.workprec():
            eps5 = mpf("0.4") ** 25
        rep = epsilon_stress_test(sigma6, seq, 4, eps5, q=0.4)
        assert rep.violations

    def test_atom_coincident_perturbations_are_harmless(self, sigma6_power):
        #  an extra atom on an existing location only reweights: P_4 of the
        #  4-atom truncation still vanishes at the atoms, so even the
        #  oversized eps_5 = q^25 passes for delta perturbations at +-1
        seq = _seq_of(sigma6_power)
        with sigma6_power.ctx.workprec():
            eps5 = mpf("0.4") ** 25
        fam = [("delta_+1", ((sigma6_power.ctx.mpf(1), mpf(1)),)),
               ("delta_-1", ((sigma6_power.ctx.mpf(-1), mpf(1)),))]
        rep = epsilon_stress_test(sigma6_power, seq, 4, eps5, family=fam,
                                  q=0.4)
        assert not rep.violations

    @pytest.mark.parametrize("n", [4, 5])
    def test_degree_beyond_sigma_atoms_raises(self, sigma6, n):
        #  sigma_3 has no P_4 or P_5 to audit, whatever the family adds
        sigma3 = DiscreteMeasure(sigma6.atoms[:3], ctx=sigma6.ctx)
        with pytest.raises(BreakdownError):
            epsilon_stress_test(sigma3, _seq_of(sigma6), n,
                                sigma6.weights[3], q=0.4)

    def test_member_refusals_keep_their_text(self, sigma6):
        #  a member's atoms are validated as sigma_n + 2 eps nu was
        seq = _seq_of(sigma6)
        ctx = sigma6.ctx
        cases = [(0, None, "nonpositive weight 0.0 at -1.0"),
                 (sigma6.weights[4], [("far", ((1.5, 0.5),))],
                  "atom 1.5 outside [-1,1]"),
                 (sigma6.weights[4], [("zero", None),
                                      ("far", ((0.25, 0.5), (-1.25, 0.5)))],
                  "atom -1.25 outside [-1,1]")]
        with ctx.workprec():
            eps = -sigma6.weights[4]
            with pytest.raises(ValueError) as want:
                DiscreteMeasure(sigma6.atoms[:4] + ((mpf(-1), 2 * eps),),
                                ctx=ctx)
        cases.append((eps, None, str(want.value)))
        for eps, family, text in cases:
            with pytest.raises(ValueError) as got:
                epsilon_stress_test(sigma6, seq, 4, eps, family=family,
                                    q=0.4)
            assert str(got.value) == text

    def test_mass_cap(self, sigma6):
        seq = _seq_of(sigma6)
        heavy = [("heavy", ((sigma6.ctx.mpf(0.5), sigma6.ctx.mpf(2)),))]
        with pytest.raises(ValueError):
            epsilon_stress_test(sigma6, seq, 3, sigma6.weights[3],
                                family=heavy, q=0.4)


def _recording(monkeypatch, name):
    """Replace op.<name> by a wrapper that records each call's arguments."""
    inner, calls = getattr(op, name), []

    def recording(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(op, name, recording)
    return calls


def _bits_of_sigma(sigma):
    return [(x._mpf_, w._mpf_) for x, w in sigma.atoms]


@pytest.fixture(scope="module")
def uniform_200():
    return generate(200, target=target_uniform())


def _random_audit_member(data):
    """(rc, Leja points, n) of a random audit member: dyadic atoms and
    weights, as a sigma_n whose first n locations are the Leja points,
    plus one small atom, as the audit adds; a weight near 2^(-bits/2)
    moves the zeros by about root_tol, where the margins matter."""
    ticks = data.draw(st.lists(st.integers(-1024, 1024), min_size=3,
                               max_size=12, unique=True))
    masses = data.draw(st.lists(st.integers(1, 128), min_size=len(ticks),
                                max_size=len(ticks)))
    bits = data.draw(st.sampled_from([64, 128, 256, 768]))
    small = data.draw(st.integers(1, bits))
    ctx = PrecisionContext(bits)
    with ctx.workprec():
        atoms = [(mpf(t) / 1024, mpf(w) / 128)
                 for t, w in zip(ticks, masses)]
        atoms[-1] = (atoms[-1][0], mpf(2) ** -small)
    n = len(ticks) - 1
    rc = stieltjes_recurrence(DiscreteMeasure(tuple(atoms), ctx=ctx), n)
    return rc, [t / 1024 for t in ticks[:n]], n


_SIGMA_BUILDS = pytest.mark.parametrize("q, n_max, bits, seq", [
    (0.4, 7, 768, "arcsine_200"),
    (0.4, 10, 2048, "arcsine_200"),
    (0.35, 6, 1024, "uniform_200"),
    (0.45, 6, 1024, "arcsine_200"),
], ids=["bench", "readme", "uniform", "q045"])


class TestPrunedAudit:
    """The calibration prunes its audit: it audits only the members its
    certificate rejects, with sigma bit for bit, and each audit finds
    every root as orthopoly_zeros does."""

    @_SIGMA_BUILDS
    def test_build_sigma_equals_uncertified_calibration(
            self, request, monkeypatch, q, n_max, bits, seq):
        #  with the certificate refusing, every member is audited exactly
        seq = request.getfixturevalue(seq)
        cfg = SigmaBuildConfig(q=q, n_max=n_max, bits=bits)
        got = build_sigma(cfg, seq)
        monkeypatch.setattr(op, "_worst_within", lambda *args: False)
        assert _bits_of_sigma(got) == _bits_of_sigma(build_sigma(cfg, seq))

    @_SIGMA_BUILDS
    def test_build_sigma_equals_public_audit_calibration(
            self, request, q, n_max, bits, seq):
        seq = request.getfixturevalue(seq)
        cfg = SigmaBuildConfig(q=q, n_max=n_max, bits=bits)
        assert _bits_of_sigma(build_sigma(cfg, seq)) == _bits_of_sigma(
            build_sigma_via_public_audit(cfg, seq))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_certificate_accepts_only_worsts_within_tgt(self, data):
        #  tgt on a grid of root_tol/8 within 3 root_tol of the worst, on
        #  both sides: a root lies up to root_tol/2 beyond its count step,
        #  so a certificate without the slack accepts some tgt < worst
        rc, pts, n = _random_audit_member(data)
        shift = data.draw(st.integers(0, 7))
        ctx = rc.ctx
        with ctx.workprec():
            worst = op._worst_deviation(op._jacobi(rc, n), pts)
            J = op._jacobi(rc, n)       # no enclosures yet, as in build_sigma
            for j in range(-24, 25):
                tgt = worst + (8 * j + shift) * ctx.root_tol / 64
                if op._worst_within(J, ctx, pts, tgt):
                    assert worst <= tgt

    def test_deviations_below_root_tol_rank_by_the_roots(self):
        #  a 2^-32 atom moves both zeros of P_2 by less than root_tol =
        #  2^-32: Newton's points rank their deviations (1.3e-11 and
        #  5.2e-11) the other way round from the roots (5.4e-11 and
        #  1.1e-11), so the audit has to find both, as plain bisection
        #  finds them
        ctx = PrecisionContext(64)
        with ctx.workprec():
            atoms = ((mpf(0), mpf(1) / 128), (mpf(-3) / 1024, mpf(1) / 128),
                     (mpf(1) / 1024, mpf(2) ** -32))
        rc = stieltjes_recurrence(DiscreteMeasure(atoms, ctx=ctx), 2)
        pts = [0.0, -3 / 1024]
        roots = bisect_zeros(rc, 2)
        with ctx.workprec():
            want = max(min(abs(r - mpf(p)) for p in pts) for r in roots)
            got = op._worst_deviation(op._jacobi(rc, 2), pts)
        assert got._mpf_ == want._mpf_

    def test_nan_seeds_walk_every_root(self, sigma6, monkeypatch):
        seq = _seq_of(sigma6)
        want = epsilon_stress_test(sigma6, seq, 4, sigma6.weights[4], q=0.4)
        monkeypatch.setattr(op, "_seeds", lambda a, b, n: np.full(n, np.nan))
        walks = _recording(monkeypatch, "_root")
        got = epsilon_stress_test(sigma6, seq, 4, sigma6.weights[4], q=0.4)
        assert len(walks) == 4 * len(got.results)
        assert all(x is None for _, _, x in walks)
        assert [(name, d._mpf_) for name, d in got.results] == [
            (name, d._mpf_) for name, d in want.results]

    def test_readme_build_finds_roots_one_sweep_past_each_enclosure(
            self, arcsine_200, monkeypatch):
        #  the certificate accepts 22 of this build's 28 audit members (142
        #  roots); the exact audits of the other 6 find all 27 of their
        #  roots, each enclosed one with at most one sweep past the two
        #  counts of its enclosure
        members = _recording(monkeypatch, "_worst_deviation")
        sweeps = _recording(monkeypatch, "_sturm_count")
        root, found = op._root, []

        def counting(J, k, x):
            before = len(sweeps)
            r = root(J, k, x)
            found.append((x, len(sweeps) - before))
            return r

        monkeypatch.setattr(op, "_root", counting)
        build_sigma(SigmaBuildConfig(q=0.4, n_max=10, bits=2048), arcsine_200)
        assert len(members) == 6
        assert len(found) == 27
        assert all(used <= 1 for x, used in found if x is not None)


class TestCountingMeasure:
    def test_chebyshev_zero_distribution(self):
        n = 50
        roots = tuple(math.cos((2 * k - 1) * math.pi / (2 * n))
                      for k in range(1, n + 1))
        ks = ks_distance(roots, target_arcsine().cdf)
        assert ks == pytest.approx(1 / (2 * n), abs=1e-12)
        assert ks < 0.03

    def test_single_root_at_center(self):
        assert ks_distance((0.0,), target_arcsine().cdf) \
            == pytest.approx(0.5, abs=1e-12)


class TestPotentialAsymptotics:
    def test_degree_one_identity(self, sigma6):
        arc = target_arcsine()
        rc = stieltjes_recurrence(sigma6, 1)
        zs = orthopoly_zeros(rc, 1)
        rows = verify_weighted_asymptotics(zs.roots, arc, [2.0])
        root = zs.roots[0]
        with sigma6.ctx.workprec():
            want = float(mp.log(abs(mpf(2) - root)) + arc.potential(2.0))
        assert rows[0] == pytest.approx(want, abs=1e-14)

    def test_agreement_with_leja_residual(self, sigma6):
        #  zeros sit within a q^(n^2)-size band of the atoms, so the
        #  product-form residual tracks the Leja one far closer than q^(n^2)
        arc = target_arcsine()
        n = 4
        zs = orthopoly_zeros(stieltjes_recurrence(sigma6, n), n)
        rows = verify_weighted_asymptotics(zs.roots, arc, [2.0])
        seq = tuple(float(x) for x in sigma6.locations[:n])
        leja_res = verify_weighted_asymptotics(seq, arc, [2.0])[0]
        assert abs(rows[0] - leja_res) < 10 * 0.4 ** (n * n)

    def test_residual_trend_doubling(self, arcsine_seq):
        #  zeros track the atoms to far below the residual scale, so the
        #  the product-form residual inherits the point-sequence trend;
        #  the envelope at z = 2 shrinks from n = 6 to n = 12
        arc = target_arcsine()
        res = {}
        for n in (6, 12):
            sub = arcsine_seq[:n]
            res[n] = verify_weighted_asymptotics(sub, arc, [2.0])[0]
        assert abs(res[12]) < abs(res[6])

    @pytest.mark.parametrize("target", [target_arcsine(), target_uniform()],
                             ids=["arcsine", "uniform"])
    def test_mpf_roots_and_their_floats_give_the_same_bits(self, bench_sigma,
                                                           target):
        #  run_prop1 passes the mpf roots: their complex array is that of
        #  their floats, so the residuals are those over the floats
        z_samples = [2.0, 1.5 + 0.5j, -3.0, 2j]
        rc = stieltjes_recurrence(bench_sigma, 7)
        for n in range(2, 8):
            roots = orthopoly_zeros(rc, n).roots
            floats = [float(r) for r in roots]
            assert (np.asarray(roots, dtype=complex).tobytes()
                    == np.array(floats, dtype=complex).tobytes())
            assert (verify_weighted_asymptotics(roots, target, z_samples)
                    == verify_weighted_asymptotics(floats, target, z_samples))

    @pytest.mark.parametrize("target", ["arcsine", "uniform"])
    def test_rows_equal_leja_residuals_on_the_roots(self, tmp_path,
                                                    monkeypatch, target):
        #  prop1's residuals.csv rows and per_n residuals are
        #  verify_weighted_asymptotics over each stability report's roots
        reports = []
        inner = op.zero_stability_check

        def recording(*args):
            reports.append(inner(*args))
            return reports[-1]

        monkeypatch.setattr(op, "zero_stability_check", recording)
        cfg = ExperimentConfig(experiment="prop1", q=0.4, n_list=(2, 3, 4, 5),
                               n_max=5, bits=768, leja_n=30, grid_size=1024,
                               target=target, out_dir=str(tmp_path))
        keys = list(run_prop1(cfg)["per_n"][0]["residuals"])
        per_n = json.loads((tmp_path / "summary.json").read_text())["per_n"]
        want = [verify_weighted_asymptotics(
            rep.zeros.roots, target_from_name(target),
            [complex(z) for z in keys]) for rep in reports]
        assert [rep.n for rep in reports] == [e["n"] for e in per_n]
        assert [e["residuals"] for e in per_n] == [
            dict(zip(keys, res)) for res in want]
        with open(tmp_path / "residuals.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows == [["n", "z", "residual"]] + [
            [str(rep.n), z, "%.17g" % r]
            for rep, res in zip(reports, want) for z, r in zip(keys, res)]
