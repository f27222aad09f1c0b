import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf, mpc

from potlab import (DiscreteMeasure, PrecisionContext, chebyshev_grid,
                    equilibrium_potential_segment, target_arcsine,
                    target_blend, target_uniform)
from potlab.potentials import phi_np

from conftest import uniform_potential_grid_reference

CTX = PrecisionContext(256)
#  the potentials are float64 closed forms; these bounds are in units of
#  their rounding (log 2 and 1 - log 2 round correctly to half an ulp)
ULP_1 = 2.0 ** -52


def phi(z, ctx=CTX):
    """Exterior map z + sqrt(z-1)*sqrt(z+1) with |phi| >= 1 under ctx:
    the big-float oracle of phi_np and of the Chebyshev identities.

    The two-square-root form is stable near the branch points +-1; the
    branch with modulus < 1 is the reciprocal of the one we want.
    """
    with ctx.workprec():
        z = mpc(z)
        w = z + mp.sqrt(z - 1) * mp.sqrt(z + 1)
        if abs(w) < 1:
            w = 1 / w
        return w


def far_potential(z, alpha, bits):
    """alpha V_arcsine + (1 - alpha) V_uniform at z from their closed
    forms, with the uniform one at `bits` for its cancellation far out."""
    with mp.workprec(bits):
        zz = mpc(z)
        uni = 1 - ((zz + 1) * mp.log(zz + 1)
                   - (zz - 1) * mp.log(zz - 1)).real / 2
        arc = mp.log(2) - mp.log(abs(phi(zz, CTX)))
        return float(mpf(alpha) * arc + mpf(1 - alpha) * uni)


FAR_TARGETS = pytest.mark.parametrize(
    "alpha, target", [(0.0, target_uniform()), (0.3, target_blend(0.3)),
                      (1.0, target_arcsine())],
    ids=["uniform", "blend:0.3", "arcsine"])


def chebyshev_monic(n, z, ctx):
    """Monic Chebyshev value T_n(z) = 2^(-n) (phi^n + phi^(-n)), n >= 1."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    with ctx.workprec():
        p = phi(z, ctx)
        return (p ** n + p ** (-n)) / mpf(2) ** n


def chebyshev_monic_recurrence(n, z, ctx):
    """Monic Chebyshev by the three-term recurrence (independent route).

    T_1 = z, T_2 = z^2 - 1/2, then T_{k+1} = z*T_k - T_{k-1}/4.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    with ctx.workprec():
        z = mpc(z)
        if n == 1:
            return z
        prev, cur = mpc(1), z
        for k in range(1, n):
            b = mpf(1) / 2 if k == 1 else mpf(1) / 4
            prev, cur = cur, z * cur - b * prev
        return cur


class TestPrecisionContext:
    def test_minimum_bits(self):
        from potlab import PrecisionTooLow
        with pytest.raises(PrecisionTooLow):
            PrecisionContext(32)

    def test_tolerances(self):
        ctx = PrecisionContext(256)
        assert ctx.root_tol == mpf(2) ** -128

    def test_nstr_digits_deterministic(self):
        ctx = PrecisionContext(96)
        a = ctx.nstr(ctx.mpf(1) / 3)
        assert a == ctx.nstr(ctx.mpf(1) / 3)
        assert len(a.replace("0.", "")) >= 96 // 4

    def test_values_carry_precision(self):
        ctx = PrecisionContext(512)
        x = ctx.mpf(2)
        with ctx.workprec():
            s = mp.sqrt(x)
            assert abs(s * s - 2) < mpf(2) ** -500


class TestPhi:
    def test_at_two(self):
        assert abs(phi(2, CTX) - (2 + mp.sqrt(3))) < 1e-60

    def test_branch_point(self):
        assert abs(phi(1, CTX) - 1) < 1e-70
        assert abs(phi(-1, CTX) + 1) < 1e-70

    def test_boundary_limit_from_above(self):
        # |phi| -> 1 approaching the cut; brute-force limit at 0.5 + i*delta
        vals = [abs(phi(mpc(0.5, d), CTX)) for d in (1e-3, 1e-6, 1e-9)]
        assert abs(float(vals[-1]) - 1) < 1e-8
        assert vals[0] > vals[1] > vals[2]
        # boundary value itself
        assert abs(abs(phi(0.5, CTX)) - 1) < 1e-70

    def test_modulus_exceeds_one_off_segment(self):
        rng = np.random.default_rng(7)
        r = 1.01 + 8.99 * rng.random(1000)
        t = 2 * np.pi * rng.random(1000)
        zs = r * np.exp(1j * t)
        assert np.all(np.abs(phi_np(zs)) > 1)
        for z in zs[:25]:
            assert abs(phi(complex(z), CTX)) > 1

    def test_infinity_normalization(self):
        # (z^2-1)^(1/2)/z -> 1 means phi(z) ~ 2z far out
        z = mpc(1e8, 1e8)
        assert abs(phi(z, CTX) / (2 * z) - 1) < 1e-15

    @settings(max_examples=50, deadline=None)
    @given(z=st.one_of(
        st.builds(complex, st.floats(-3, 3), st.floats(1e-6, 3)),
        st.builds(complex, st.floats(-3, 3), st.floats(-3, -1e-6)),
        #  within 1e-6 of +-1, at least 0.1*pi away from the cut's direction
        st.builds(lambda s, r, t: s * (1 + r * complex(math.cos(t),
                                                       math.sin(t))),
                  st.sampled_from([-1.0, 1.0]), st.floats(1e-9, 1e-6),
                  st.floats(-0.9 * math.pi, 0.9 * math.pi))),
        x=st.floats(-1, 1))
    def test_phi_np_matches_phi(self, z, x):
        want = phi(z, PrecisionContext(256))
        got = complex(phi_np(np.array([z]))[0])
        assert abs(got - complex(want)) <= 1e-13 * abs(complex(want))
        assert abs(want) > 1 and abs(got) > 1
        #  on the segment either conjugate boundary value may come back,
        #  and both have modulus one
        assert abs(abs(phi_np(np.array([x]))[0]) - 1) <= 4e-16
        assert abs(abs(phi(x, CTX)) - 1) <= mpf(2) ** -240

    @pytest.mark.parametrize("z", [0.5, 0.5 + 0.25j, np.array(-0.3),
                                   np.array(1.0 + 0j)])
    def test_phi_np_scalar_is_0d(self, z):
        got = phi_np(z)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.dtype == complex
        assert complex(got) == complex(phi_np(np.array([z]))[0])

    def test_phi_np_flip_equals_full_divide(self):
        #  the form that divided every entry and kept the |w| < 1 ones
        def phi_where(z):
            z = np.asarray(z, dtype=complex)
            w = z + np.sqrt(z - 1) * np.sqrt(z + 1)
            flip = np.abs(w) < 1
            return np.where(flip, np.divide(1.0, w, out=np.ones_like(w),
                                            where=w != 0), w)

        x = np.concatenate([np.linspace(-1, 1, 4001),
                            np.nextafter([-1.0, 1.0], 0.0)])
        for z in (x + 0j, np.conj(x + 0j), x + 1e-300j, x - 1e-17j,
                  x + 1e-9j, np.nextafter([-1.0, 1.0], [-2.0, 2.0]) + 0j,
                  np.array([-1, 1, -1j, 1j, 2, -2, 1e-8j, 1 + 1e-12j])):
            before = z.copy()
            want, got = phi_where(z), phi_np(z)
            assert np.array_equal(got.view(float), want.view(float))
            assert np.array_equal(np.signbit(got.view(float)),
                                  np.signbit(want.view(float)))
            assert np.array_equal(z.view(float), before.view(float))
        #  the cut does take the flip by rounding
        w = x + np.sqrt(x - 1 + 0j) * np.sqrt(x + 1 + 0j)
        assert np.count_nonzero(np.abs(w) < 1) > 100


class TestChebyshevMonic:
    def test_degree_two_at_zero(self):
        assert abs(chebyshev_monic(2, 0, CTX) + mpf(1) / 2) < 1e-70
        assert abs(chebyshev_monic_recurrence(2, 0, CTX) + mpf(1) / 2) < 1e-70

    def test_degree_one_identity(self):
        for z in (0.3, 2 + 1j, -5):
            assert abs(chebyshev_monic_recurrence(1, z, CTX) - mpc(z)) == 0

    def test_explicit_matches_recurrence_degree_eight(self):
        a = chebyshev_monic(8, 2, CTX)
        b = chebyshev_monic_recurrence(8, 2, CTX)
        assert abs(a - b) < mpf(10) ** -30

    def test_explicit_matches_recurrence_random(self):
        rng = np.random.default_rng(3)
        zs = (rng.random(100) * 6 - 3) + 1j * (rng.random(100) * 6 - 3)
        tol = mpf(2) ** (-CTX.bits // 2)
        for z in zs:
            n = int(rng.integers(1, 12))
            a = chebyshev_monic(n, complex(z), CTX)
            b = chebyshev_monic_recurrence(n, complex(z), CTX)
            assert abs(a - b) <= tol * max(1, abs(b))

    def test_classical_cosine_form_on_segment(self):
        for x in (-0.9, -0.2, 0.4, 0.77):
            for n in (1, 2, 5, 9):
                want = 2.0 ** (1 - n) * math.cos(n * math.acos(x))
                got = complex(chebyshev_monic(n, x, CTX))
                assert got.real == pytest.approx(want, abs=1e-13)
                assert abs(got.imag) < 1e-15


class TestDiscreteMeasure:
    @pytest.mark.parametrize("atoms", [
        ((0.5, 0),),
        ((0.5, -0.25),),
        ((-1.5, 1),),
        #  1 + 2^-200 as (mantissa, exponent): exact at CTX's 256 bits
        (((2 ** 200 + 1, -200), 1),),
    ], ids=["zero_weight", "negative_weight", "atom_at_-1.5",
            "atom_just_past_1"])
    def test_rejects_bad_atoms(self, atoms):
        with pytest.raises(ValueError):
            DiscreteMeasure(atoms, ctx=CTX)

    def test_accepts_the_endpoints(self):
        m = DiscreteMeasure(((-1, 0.5), (1, 0.5)), ctx=CTX)
        assert m.locations == [-1, 1]


class TestEquilibriumPotentials:
    def test_segment_on_cut(self):
        assert abs(equilibrium_potential_segment(0.3) - mp.log(2)) <= ULP_1 / 4

    def test_segment_at_two(self):
        got = equilibrium_potential_segment(2)
        assert got == pytest.approx(-0.6238107163648714, abs=1e-15)
        # independent quadrature of the arcsine potential
        with CTX.workprec():
            oracle = mp.quad(lambda t: -mp.log(abs(mpf(2) - t))
                             / (mp.pi * mp.sqrt(1 - t ** 2)), [-1, 1])
        assert abs(got - oracle) < ULP_1

    def test_segment_asymptote(self):
        z = 1e6
        assert equilibrium_potential_segment(z) == pytest.approx(
            -math.log(z), abs=1e-6)


class TestTargets:
    def test_arcsine_cdf_center(self):
        arc = target_arcsine()
        assert float(arc.cdf(np.array([0.0]))[0]) == pytest.approx(0.5)

    def test_arcsine_potential_is_equilibrium(self):
        arc = target_arcsine()
        assert abs(arc.potential(0.3) - mp.log(2)) <= ULP_1 / 4
        assert arc.potential(2) == equilibrium_potential_segment(2)

    def test_uniform_potential_center_closed_form(self):
        uni = target_uniform()
        assert uni.potential(0.0) == 1
        # adaptive quadrature oracle of int log(1/|t|) dt / 2
        with CTX.workprec():
            oracle = mp.quad(lambda t: -mp.log(abs(t)) / 2, [-1, 0, 1])
        assert abs(uni.potential(0.0) - oracle) < 1e-40
        #  the endpoints, where 0 log 0 = 0: V(+-1) = 1 - log 2
        for x in (1, -1, 1.0, mpc(-1)):
            assert abs(uni.potential(x) - (1 - mp.log(2))) <= ULP_1 / 8

    @settings(max_examples=30, deadline=None)
    @example(z=2j, bits=128)
    @given(z=st.one_of(
        #  |Im z| >= 0.05, real points past the ends, and points within
        #  1e-3 of +-1 on every side but the segment's
        st.builds(complex, st.floats(-3, 3),
                  st.floats(0.05, 3) | st.floats(-3, -0.05)),
        st.floats(1.001, 3) | st.floats(-3, -1.001),
        st.builds(lambda c, r, th: c * (1 + r * cmath.exp(1j * th)),
                  st.sampled_from([-1.0, 1.0]), st.floats(1e-6, 1e-3),
                  st.floats(-3, 3))),
        bits=st.integers(128, 256))
    def test_uniform_potential_off_segment_matches_quadrature(self, z, bits):
        """The closed form against -(1/2) int_{-1}^{1} log|z - t| dt by
        adaptive quadrature, split at Re z where that lies on the segment
        so the near-singular peak of the integrand sits at a node."""
        ctx = PrecisionContext(bits)
        got = target_uniform().potential(z)
        x = complex(z).real
        nodes = sorted({-1, 0, 1} | ({x} if -1 < x < 1 else set()))
        with ctx.workprec():
            zz = mpc(z)
            oracle = -mp.quad(lambda t: mp.log(abs(zz - t)), nodes) / 2
            #  1.8e-15 at worst over 60,000 points drawn like these
            assert abs(got - oracle) < 3e-15

    @FAR_TARGETS
    @settings(max_examples=60, deadline=None)
    @example(lg=308.0, u=1)
    @example(lg=308.0, u=-1)
    @example(lg=308.0, u=1j)
    @example(lg=math.log10(9e307), u=1)
    @example(lg=300.0, u=-1)
    @example(lg=300.0, u=-1j)
    @example(lg=100.0, u=1j)
    @example(lg=15.0, u=-1)
    @example(lg=0.0, u=1)
    @given(lg=st.floats(math.log10(4), 308),
           u=st.sampled_from([1, -1, 1j, -1j])
           | st.floats(-math.pi, math.pi).map(lambda t: cmath.exp(1j * t)))
    def test_potential_far_from_the_segment(self, alpha, target, lg, u):
        """V at 4 <= |z| <= 1e308 against the closed forms at enough bits
        for the uniform one's cancellation, to 1e-14 or 2^-52 |V|, the
        larger, with no overflow on the way (warnings are errors).  A
        relative 1e-16 is below half an ulp at the bottom of a binade, so
        no float64 V keeps it everywhere; over 9000 such points the
        uniform V erred by 5.7e-14 at worst (half an ulp, |V| = 564), the
        blend by 9.5e-14 and the arcsine V by 1.1e-13 (|V| = 561)."""
        z = max(4.0, 10.0 ** lg) * u
        got = target.potential(z)
        want = far_potential(z, alpha, 120 + round(lg * math.log2(10)))
        assert abs(got - want) <= max(1e-14, ULP_1 * abs(want))

    @FAR_TARGETS
    @pytest.mark.parametrize("z", [1.5e308 + 1.5e308j, 1e308 + 1.7e308j,
                                   1e308 + 1e308j, -1.2e308 - 1.3e308j])
    def test_potential_past_float64_modulus(self, alpha, target, z):
        """V at finite z whose |z| or |Re z| + |Im z| passes float64's
        maximum, where abs(z) overflows and CPython's 1/z returns 0,
        within the envelope of the test above."""
        got = target.potential(z)
        want = far_potential(z, alpha, 1200)
        assert abs(got - want) <= max(1e-14, ULP_1 * abs(want))

    def test_blend_reduces_to_arcsine(self):
        bl = target_blend(1.0)
        assert abs(bl.potential(0.3) - mp.log(2)) <= ULP_1 / 4

    def test_blend_parameter_validation(self):
        with pytest.raises(ValueError):
            target_blend(1.5)

    @pytest.mark.parametrize("factory", [target_arcsine, target_uniform,
                                         lambda: target_blend(0.5)])
    def test_potential_is_a_float(self, factory):
        t = factory()
        for z in (0.3, 1, -1.0, 2, 2j, -3.0, 1.5 + 0.5j, mpc(-1)):
            assert type(t.potential(z)) is float

    @pytest.mark.parametrize("factory", [target_arcsine, target_uniform,
                                         lambda: target_blend(0.5)])
    def test_cdf_monotone_and_normalized(self, factory):
        t = factory()
        c = np.asarray(t.cdf(np.linspace(-1, 1, 10_000)), dtype=float)
        assert abs(c[0]) <= 1e-12 and abs(c[-1] - 1) <= 1e-12
        assert np.all(np.diff(c) >= 0)

    @pytest.mark.parametrize("factory", [target_arcsine, target_uniform,
                                         lambda: target_blend(0.5)])
    def test_potential_oscillation_decreases_under_refinement(self, factory):
        t = factory()
        osc = []
        for m in (200, 400, 800):
            g = np.linspace(-1, 1, m)
            v = t.grid_potential(g)
            osc.append(np.max(np.abs(np.diff(v))))
        #  constant potentials sit at zero oscillation from the start
        assert osc[2] <= osc[1] <= osc[0]
        if osc[0] > 0:
            assert osc[2] < osc[0]

    @pytest.mark.parametrize("factory", [target_arcsine, target_uniform,
                                         lambda: target_blend(0.5)])
    def test_potential_grid_matches_scalar(self, factory):
        t = factory()
        g = np.linspace(-0.95, 0.95, 7)
        v = t.grid_potential(g)
        for x, vx in zip(g, v):
            assert vx == pytest.approx(t.potential(float(x)), abs=1e-12)


#  the endpoints, both zeros and the floats next to the endpoints
GRID_EDGES = [1.0, -1.0, 0.0, -0.0, math.nextafter(1.0, 0.0),
              math.nextafter(-1.0, 0.0)]


def _grid_oracle(name, x):
    """The float64 grid potential of target name in its np.where form."""
    arcsine = np.full_like(np.asarray(x, dtype=float), np.log(2.0))
    if name == "arcsine":
        return arcsine
    uniform = uniform_potential_grid_reference(x)
    if name == "uniform":
        return uniform
    return 0.3 * arcsine + (1 - 0.3) * uniform


def _bits(v):
    v = np.asarray(v)
    assert v.dtype == np.float64
    return v.view(np.uint64)


class TestGridPotentialOracle:
    """Each target's grid_potential on a float, a 0-d array and an array
    against the np.where form, bit for bit (sign bit included)."""

    TARGETS = {"uniform": target_uniform(), "arcsine": target_arcsine(),
               "blend:0.3": target_blend(0.3)}

    @pytest.mark.parametrize("name", TARGETS)
    @settings(max_examples=150, deadline=None)
    @given(xs=st.lists(st.one_of(st.floats(-1, 1),
                                 st.sampled_from(GRID_EDGES)),
                       min_size=1, max_size=60))
    @example(xs=GRID_EDGES)
    @example(xs=chebyshev_grid(4096).tolist())
    def test_float_and_array_bits_equal_oracle(self, name, xs):
        grid_potential = self.TARGETS[name].grid_potential
        want = _grid_oracle(name, np.array(xs))
        assert np.array_equal(_bits(grid_potential(np.array(xs))),
                              _bits(want))
        for x, w in zip(xs, want):
            assert _bits(grid_potential(x)) == _bits(w)
            assert _bits(grid_potential(np.array(x))) == _bits(w)
