"""Orthogonal polynomials of discrete measures and the sigma construction.

The pipeline: take weighted Leja points x_1, x_2, ..., attach a rapidly
decaying weight cascade eps_n, and study the monic orthogonal polynomials
of sigma = sum eps_n delta_{x_n}.  With a cascade that decays fast enough
the degree-n polynomial keeps its zeros within q^(n^2) of the first n
atoms, which is what makes the zero-counting measures follow the target.

Everything here runs in a PrecisionContext (mpmath); weight ratios reach
scales like q^300, far outside float64.

Zeros
-----
The zeros of P_n are the eigenvalues of the Jacobi matrix J_n.  Its
Gershgorin interval is cut into 2^h equal cells, h the fewest exact
halvings to a width of root_tol or below.  The k-th root is the
midpoint, rounded once to the working precision, of the cell whose ends
the Sturm counts put on either side of the k-th eigenvalue: the cell
plain bisection ends in, as the computed count is monotone in x.  A
Newton-refined float64 eigenvalue that two counts put within root_tol/4
of the root leaves at most one cell end to count.  The same pair of
counts certifies Proposition 1's bound (enclosures_hold); its k-th pair,
at c - R and c + R, follows from the enclosure of Newton's point x when
c - R <= x - root_tol/4 and x + root_tol/4 <= c + R, and is not made.

Each root is enclosed (_enclose), then found in its cell (_root), by
orthopoly_zeros and the stress audit alike (_zeros); build_sigma needs
only whether the audit's worst is <= tgt, which two counts per zero can
prove (_worst_within).

Newton's point only narrows the bisection, so its steps climb a
precision ladder: the precision about doubles per step from the seed's
53 bits up to about bits/2 plus a guard, never above bits, and stops
there once quadratic convergence puts the point within root_tol/16,
fine enough for the enclosure.  The two counts that certify it run at
the full precision; a point they reject sends its root to the full
bisection.

The Stieltjes recurrence, the Sturm counts and Newton's iteration run
on raw mpf values (mpmath.libmp), with the roundings and association
order of the mpf arithmetic they replace.

Cascades
--------
``power``      eps_n = q^(n^2).  The simple closed form; its consecutive
               ratios q^(2n+1) shrink too slowly for the zero-stability
               bound once n >= 3 (the perturbation of the degree-n zeros
               is of order eps_{n+1}/eps_n, which dwarfs q^(n^2)).
``stabilized`` eps_1 = q and eps_{n+1} chosen inside (0, q^(n^2) eps_n),
               shrunk until it passes the stress audit
               (epsilon_stress_test) with a two-member family, an atom at
               the next Leja point and a 64-atom uniform grid, at half
               the audit bound: every degree-n zero moves by at most
               min(q^(n^2), delta_n)/4.  sigma_n, the members and the
               bound are set once per degree; a candidate only rescales
               the members' weights and audits those the counts do not
               certify (see Zeros).  The constructive "pick eps_{n+1}
               small enough": the deviation is linear in eps_{n+1}, so a
               violation says how much to shrink.  Default.
"""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (fone, from_float, from_man_exp, fzero, mpf_abs,
                          mpf_add, mpf_div, mpf_le, mpf_mul, mpf_neg, mpf_sub,
                          mpf_sum, round_nearest)

from .measures import DiscreteMeasure, separation
from .precision import PrecisionContext, PrecisionTooLow


class BreakdownError(ArithmeticError):
    """A norm in the Stieltjes iteration came out nonpositive."""


class PairingFailure(ValueError):
    """Nearest-neighbor matching of zeros to Leja points is not bijective."""


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """Monic three-term recurrence data P_{k+1} = (x - a_k) P_k - b_k P_{k-1}.

    a and b have equal length n and determine P_0 ... P_n; b[0] is the
    measure's total mass and b[k] = |P_k|^2 / |P_{k-1}|^2 > 0 for k >= 1.
    """

    a: tuple
    b: tuple
    ctx: PrecisionContext

    def __len__(self):
        return len(self.a)


@dataclass(frozen=True)
class ZeroSet:
    """Sorted real simple zeros of a degree-n orthogonal polynomial."""

    roots: tuple
    fallbacks: int             # roots bisected without a certified enclosure
    jacobi: object = field(repr=False, compare=False)  # _jacobi's J_n


def _require_support(xs, n):
    """Raise BreakdownError unless xs holds n or more distinct raw mpf."""
    d = len(set(xs))
    if d < n:
        raise BreakdownError(f"the measure has {d} distinct atom locations, "
                             f"fewer than n = {n}")


def stieltjes_recurrence(m, n):
    """First n recurrence coefficient pairs of the measure m.

    Uses the discrete Stieltjes procedure: polynomials are carried as
    value vectors on the atoms and coefficients come from the inner
    products <p, q> = sum w_k p(x_k) q(x_k).  Needs at least n distinct
    atom locations; raises BreakdownError otherwise.

    The loop runs on raw mpf values with the calls, roundings and
    association order of mpf arithmetic and mp.fsum: (w p) p and ((w x)
    p) p, with w x rounded once before the loop, summed by mpf_sum, then
    (x - a_k) p_k - b_k p_{k-1}.  P_0 = 1 and w, w x hold the working
    precision, so degree 0 takes w, w x and x - a_0 unmultiplied.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    with m.ctx.workprec():
        return _stieltjes(m.atoms, n, m.ctx)


def _stieltjes(atoms, n, ctx):
    """stieltjes_recurrence on mpf atoms of ctx's precision; run under ctx."""
    xs, ws = [x._mpf_ for x, _ in atoms], [w._mpf_ for _, w in atoms]
    _require_support(xs, n)
    prec, rnd = mp._prec_rounding
    wxs = [mpf_mul(w, x, prec, rnd) for w, x in zip(ws, xs)]
    a, b = [], []
    for k in range(n):
        nu = mpf_sum(ws if k == 0 else [
            mpf_mul(mpf_mul(w, p, prec, rnd), p, prec, rnd)
            for w, p in zip(ws, p_cur)], prec, rnd)
        if mpf_le(nu, fzero):
            raise BreakdownError(
                f"norm of degree-{k} polynomial is {mp.make_mpf(nu)}; "
                f"the measure has fewer than {k + 1} atoms of support "
                f"or bits are too low")
        ak = mpf_div(mpf_sum(wxs if k == 0 else [
            mpf_mul(mpf_mul(wx, p, prec, rnd), p, prec, rnd)
            for wx, p in zip(wxs, p_cur)], prec, rnd), nu, prec, rnd)
        bk = nu if k == 0 else mpf_div(nu, nu_prev, prec, rnd)
        a.append(ak)
        b.append(bk)
        nu_prev = nu
        if k + 1 == n:
            break       # the degree-n values are never read
        t = [mpf_sub(x, ak, prec, rnd) for x in xs]
        #  P_{-1} = 0 and P_0 = 1, so P_1 is t itself
        p_prev, p_cur = ([fone] * len(xs), t) if k == 0 else (p_cur, [
            mpf_sub(mpf_mul(v, pc, prec, rnd), mpf_mul(bk, pp, prec, rnd),
                    prec, rnd) for v, pc, pp in zip(t, p_cur, p_prev)])
    make = mp.make_mpf
    return RecurrenceCoeffs(a=tuple(map(make, a)), b=tuple(map(make, b)),
                            ctx=ctx)


def _sturm_count(a, b, n, x, tiny):
    """Number of eigenvalues below x of the order-n Jacobi matrix.

    a, b, x and tiny are raw mpf values; the pivots d_0 = a_0 - x and
    d_i = (a_i - x) - b_i / d_{i-1} round at mpmath's working precision,
    and an exactly zero pivot is replaced by -tiny and counted.
    """
    prec, rnd = mp._prec_rounding
    cnt, d = 0, None
    for i in range(n):
        d = mpf_sub(a[i], x, prec, rnd) if d is None else mpf_sub(
            mpf_sub(a[i], x, prec, rnd), mpf_div(b[i], d, prec, rnd),
            prec, rnd)
        if d[0]:
            cnt += 1
        elif d == fzero:
            d = mpf_neg(tiny)
            cnt += 1
    return cnt


def _seeds(a, b, n):
    """Eigenvalues of the float64 Jacobi matrix J_n, ascending: one
    Newton seed per root, or NaNs where float64 cannot hold J_n."""
    diag = np.array([float(v) for v in a[:n]])
    off = np.sqrt(np.array([float(v) for v in b[1:n]]))
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        return np.full(n, np.nan)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                              + np.diag(off, -1))


def _newton(a, b, n, seed, stop, bits):
    """Newton's iteration for P_n from the float64 seed, with P_n and P_n'
    run through the three-term recurrence on raw mpf values.

    The precision about doubles per step from the seed's 53 bits up to
    top = bits/2 + 32, plus the bits of |seed| above 1, but at most bits;
    it ends after a step s at top once |s| or the next step, which
    quadratic convergence predicts from the one before, r, as |s|^3/r^2,
    is at most stop.  The point only narrows the bisection, and stop =
    root_tol/16 is absolute, so top needs bits/2 plus a guard for the 4
    bits of stop and the rounding of P_n near the root, not all bits.
    """
    rnd = round_nearest
    top = min(bits, bits // 2 + 32 + max(math.frexp(seed)[1], 0))
    x, prec, r = from_float(seed), 53, fzero
    for _ in range(bits.bit_length() + 2):
        prec = min(2 * prec, top)
        p0, p, d0, d = fzero, fone, fzero, fzero
        for i in range(n):
            t = mpf_sub(x, a[i], prec, rnd)
            bi = b[i]
            p0, p, d0, d = p, mpf_sub(
                mpf_mul(t, p, prec, rnd), mpf_mul(bi, p0, prec, rnd),
                prec, rnd), d, mpf_sub(
                mpf_add(p, mpf_mul(t, d, prec, rnd), prec, rnd),
                mpf_mul(bi, d0, prec, rnd), prec, rnd)
        if d == fzero:
            break
        step = mpf_div(p, d, prec, rnd)
        x, s = mpf_sub(x, step, prec, rnd), mpf_abs(step)
        if prec == top and (mpf_le(s, stop) or mpf_le(
                mpf_mul(mpf_mul(s, s, prec, rnd), s, prec, rnd),
                mpf_mul(mpf_mul(r, r, prec, rnd), stop, prec, rnd))):
            break
        r = s
    return x


def _encloses(J, k, lo, hi):
    """Whether the Sturm counts put the k-th eigenvalue of J_n in (lo, hi]."""
    return (_sturm_count(J.a, J.b, J.n, lo, J.tiny) < k
            <= _sturm_count(J.a, J.b, J.n, hi, J.tiny))


def _to_grid(x, s):
    """floor(x 2^s) for a finite mpf x."""
    sign, man, exp, _ = x._mpf_
    v = -man if sign else man
    return v << exp + s if exp + s >= 0 else v >> -(exp + s)


def _jacobi(rc, n):
    """J_n of the first n pairs of rc as _enclose and _root read it: raw
    a and b, the enclosure radius delta, the float64 seeds, Newton's
    certified points (None until enclosed), and on the grid 2^-s lo0 as
    lo, then cells cells of width cell.  Run under rc.ctx."""
    if n < 1 or n > len(rc):
        raise ValueError(f"need 1 <= n <= {len(rc)}")
    ctx = rc.ctx
    a = [mpf(v) for v in rc.a[:n]]
    b = [mpf(v) for v in rc.b[:n]]
    for k in range(1, n):
        if not b[k] > 0:
            raise BreakdownError(f"b[{k}] = {b[k]} is not positive")
    r = max((mp.sqrt(b[k]) for k in range(1, n)), default=mpf(0))
    lo0 = min(a) - 2 * r - 1
    hi0 = max(a) + 2 * r + 1
    tol = ctx.root_tol
    #  hi0 - lo0 = width 2^e, and h halvings bring it to root_tol = 2^te
    #  or below; on the grid 2^-s every cell end and midpoint is an integer
    e = min(lo0._mpf_[2], hi0._mpf_[2])
    width = _to_grid(hi0, -e) - _to_grid(lo0, -e)
    h = max(0, (width - 1).bit_length() - tol._mpf_[2] + e)
    s = h + 1 - e
    return SimpleNamespace(
        a=[v._mpf_ for v in a], b=[v._mpf_ for v in b], n=n, bits=ctx.bits,
        tiny=from_man_exp(1, -4 * ctx.bits), delta=tol / 4, points=[None] * n,
        seeds=_seeds(a, b, n), s=s, lo=_to_grid(lo0, s), cell=width << 1,
        cells=1 << h)


def _enclose(J, k):
    """Newton's point x for the k-th eigenvalue of J_n if the counts at
    x - delta and x + delta put it in between, else None."""
    seed = J.seeds[k - 1]
    if not math.isfinite(seed):
        return None
    x = mp.make_mpf(_newton(J.a, J.b, J.n, float(seed), (J.delta / 4)._mpf_,
                            J.bits))
    if _encloses(J, k, (x - J.delta)._mpf_, (x + J.delta)._mpf_):
        return x
    return None


def _root(J, k, x):
    """The k-th root of P_n, its cell's midpoint rounded once to bits:
    cell indices are bisected, with no sweep at the ends the enclosure
    of x places (at every index midpoint if x is None)."""
    i, j, lo, cell, s = 0, J.cells, J.lo, J.cell, J.s
    if x is not None:
        i = max(i, (_to_grid(x - J.delta, s) - lo) // cell)
        j = min(j, -((lo + _to_grid(-x - J.delta, s)) // cell))
    while j - i > 1:
        mid = (i + j) // 2
        if _sturm_count(J.a, J.b, J.n, from_man_exp(lo + mid * cell, -s),
                        J.tiny) < k:
            i = mid
        else:
            j = mid
    return mp.make_mpf(from_man_exp(lo + i * cell + cell // 2, -s, J.bits,
                                    round_nearest))


def _zeros(J):
    """Every root of J_n, ascending: each enclosed, then found in its
    cell, with J.points set to the enclosures; run under J's precision."""
    J.points = [_enclose(J, k) for k in range(1, J.n + 1)]
    return tuple(_root(J, k, x) for k, x in enumerate(J.points, 1))


def orthopoly_zeros(rc, n):
    """Zeros of P_n by Sturm bisection, steered by certified enclosures.

    Roots are the eigenvalues of the n-by-n Jacobi matrix J_n built from
    rc, so they are real, simple, and interlace those of P_{n-1}.  The
    k-th root is bisected exactly from the Gershgorin interval down to
    width root_tol = 2^(-bits/2), taking hi = mid when at least k
    eigenvalues lie below mid by the Sturm count and lo = mid otherwise;
    the last midpoint is rounded once to the working precision.

    Most of those counts are known before they are made.  A float64
    eigenvalue of J_n, refined by Newton's method, gives a point x;
    when the counts at x - d and x + d (d = root_tol/4) put the k-th
    eigenvalue in between, a midpoint at or below x - d takes lo = mid
    and one at or above x + d takes hi = mid without a sweep.  That
    holds because the computed count is monotone in x under correctly
    rounded arithmetic (Kahan 1966; Demmel, Dhillon & Ren 1995), so
    every bit of the root is that of the plain bisection, from at most
    one sweep inside (x - d, x + d).  A root whose enclosure fails is
    bisected with a sweep at every midpoint, counted in ZeroSet.fallbacks.
    """
    with rc.ctx.workprec():
        J = _jacobi(rc, n)
        roots = _zeros(J)
    return ZeroSet(roots=roots, fallbacks=J.points.count(None), jacobi=J)


def _nearest(r, pts):
    """(j, |r - pts[j]|) for the point pts[j] nearest to r, the first on
    a tie; run under the working precision."""
    ds = [abs(r - p) for p in pts]
    d = min(ds)
    return ds.index(d), d


def _worst_deviation(J, leja_points):
    """max over the zeros of J_n, found as orthopoly_zeros finds them, of
    the distance to the nearest of the first n Leja points; run under J's
    precision."""
    pts = [mpf(x) for x in leja_points[:J.n]]
    return max(_nearest(r, pts)[1] for r in _zeros(J))


# ---------------------------------------------------------------------------
#  sigma construction


@dataclass(frozen=True)
class SigmaBuildConfig:
    """Parameters of the sigma measure built on weighted Leja points."""

    q: float
    n_max: int
    bits: int = 2048
    cascade: str = "stabilized"

    def __post_init__(self):
        if not 0 < self.q < 0.5:
            raise ValueError(f"q must lie in (0, 1/2), got {self.q}")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.cascade not in ("stabilized", "power"):
            raise ValueError(f"unknown cascade {self.cascade!r}")
        floor = precision_floor(self.q, self.n_max, self.cascade)
        if self.bits < floor:
            raise PrecisionTooLow(
                f"{self.bits} bits < floor {floor} for q={self.q}, "
                f"n_max={self.n_max}, cascade={self.cascade}")


def precision_floor(q, n, cascade="stabilized"):
    """Bits needed to keep the weight cascade well inside the significand."""
    lg = -math.log2(q)      # 1 / q overflows for a subnormal q
    if cascade == "power":
        return math.ceil(3 * n * n * lg) + 128
    span = 1 + (n - 1) * n * (2 * n - 1) // 6 + n * n   # 1 + sum k^2 + n^2
    return math.ceil(3 * span * lg) + 128


def build_sigma(cfg, seq):
    """Measure sum eps_n delta_{x_n} over the first n_max points of seq.

    The cascade depends on cfg.cascade (see module docstring).  For the
    stabilized cascade each eps_{n+1} is calibrated by the stress audit
    of epsilon_stress_test with an atom at the next Leja point (the
    realized continuation) and a 64-atom uniform grid (a spread-out worst
    case).  sigma_n's atoms, these members' and tgt, half the audit bound,
    are built once per degree; a candidate scales the members' weights by
    2 cand and passes if worst <= tgt, else it is rescaled by tgt/worst/2.
    worst is the max over the members _worst_within does not accept (0 if
    none): the pass decision is the full audit's, and so is a failing max.
    Tail sums are checked to stay below the preceding weight.
    """
    if len(seq) < cfg.n_max:
        raise ValueError(f"need {cfg.n_max} Leja points, have {len(seq)}")
    ctx = PrecisionContext(cfg.bits)
    with ctx.workprec():
        q = ctx.mpf(str(cfg.q))
        pts = [ctx.mpf(x) for x in seq[:cfg.n_max]]
        if cfg.cascade == "power":
            eps = [q ** ((k + 1) ** 2) for k in range(cfg.n_max)]
        else:
            eps = [q]
            grid = _uniform_grid_64(ctx)
            for n in range(1, cfg.n_max):
                atoms = tuple(zip(pts, eps))
                family = (((pts[n], 1),), grid)
                tgt = _stress_bound(seq, n, cfg.q, ctx) / 2
                cand = q ** (n * n) * eps[-1] * q
                for _ in range(64):
                    eps2, worst = 2 * cand, 0
                    for nu in family:
                        rc = _stieltjes(atoms + tuple(
                            (x, eps2 * w) for x, w in nu), n, ctx)
                        J = _jacobi(rc, n)
                        if not _worst_within(J, ctx, seq, tgt):
                            worst = max(worst, _worst_deviation(J, seq))
                    if worst <= tgt:
                        break
                    #  deviation is linear in cand: rescale with headroom
                    cand = cand * tgt / worst / 2
                else:
                    raise PrecisionTooLow(
                        f"calibration of eps_{n + 1} did not converge")
                eps.append(cand)
        #  tail domination implies decay: a rounded sum >= its largest term
        for k in range(cfg.n_max - 1):
            if not mp.fsum(eps[k + 1:]) < eps[k]:
                raise ValueError(f"tail not dominated at {k}")
        return DiscreteMeasure(tuple(zip(pts, eps)), ctx=ctx)


@dataclass(frozen=True)
class StabilityReport:
    n: int
    zeros: ZeroSet
    deviations: tuple          # (leja index, distance) per root
    max_deviation: object      # mpf
    bound: object              # mpf, q^(n^2)
    passed: bool               # enclosures_hold at radius bound

    @property
    def margin(self):
        return self.bound / self.max_deviation if self.max_deviation > 0 \
            else mpf("inf")


def enclosures_hold(rc, n, centers, radius):
    """Whether each zero of P_n lies within radius of a distinct center.

    The intervals (c - radius, c + radius] around the first n centers,
    sorted, must be disjoint, and the Sturm counts of J_n must put the
    k-th eigenvalue in the k-th of them: then each holds exactly one.
    That is two sweeps per center and no root finding; it certifies the
    computed recurrence rc, of length n or more.
    """
    with rc.ctx.workprec():
        return _holds(_jacobi(rc, n), rc.ctx, centers, radius)


def _holds(J, ctx, centers, radius):
    """enclosures_hold on J, the _jacobi record of J_n, without the
    counts J.points imply (see Zeros); run under ctx."""
    if len(centers) < J.n:
        raise ValueError(f"need {J.n} centers, have {len(centers)}")
    radius = ctx.mpf(radius)
    ends = [(c - radius, c + radius)
            for c in sorted(ctx.mpf(c) for c in centers[:J.n])]
    if any(not hi < lo for (_, hi), (lo, _) in zip(ends, ends[1:])):
        return False
    return all(x is not None and lo <= x - J.delta and x + J.delta <= hi
               or _encloses(J, k, lo._mpf_, hi._mpf_)
               for k, ((lo, hi), x) in enumerate(zip(ends, J.points), 1))


def _worst_within(J, ctx, seq, tgt):
    """Whether counts prove _worst_deviation(J, seq) <= tgt: _holds at
    r = tgt - 2 root_tol; run under ctx.

    Then count(c - r) < k <= count(c + r) for the k-th sorted Leja point
    c; the k-th root's cell has count(lo) < k <= count(hi), so lo < c + r
    and hi > c - r by the monotone count, and hi - lo <= root_tol.  Its
    midpoint, the root before its one rounding, is within r + root_tol/2
    of c, and so is the root's rounded distance to the nearest Leja
    point, up to roundings of 2^-bits relative, which the remaining
    3 root_tol/2 cover.
    """
    return _holds(J, ctx, seq, tgt - 2 * ctx.root_tol)


def zero_stability_check(rc, seq, n, q):
    """Pair zeros of P_n with the first n Leja points.

    rc is the measure's recurrence, of length n or more; its first n
    pairs are exactly those of a length-n recurrence, so one recurrence
    serves every degree up to its length.  Raises ValueError when seq
    holds fewer than n points and PairingFailure when the nearest-atom
    map is not a bijection; otherwise reports the worst |x_k - x_{n,k}|
    next to the bound q^(n^2), passing when enclosures_hold proves each
    zero within it of a distinct Leja point, on orthopoly_zeros' J_n.
    """
    if len(seq) < n:
        raise ValueError(f"need {n} Leja points, have {len(seq)}")
    zs = orthopoly_zeros(rc, n)
    ctx = rc.ctx
    with ctx.workprec():
        pts = [ctx.mpf(x) for x in seq[:n]]
        pairs = [_nearest(r, pts) for r in zs.roots]
        worst = max(d for _, d in pairs)
        if len({j for j, _ in pairs}) < n:
            raise PairingFailure(
                f"zeros of P_{n} do not pair bijectively with the Leja "
                f"points (worst deviation {mp.nstr(worst, 8)})")
        bound = ctx.mpf(str(q)) ** (n * n)
        passed = _holds(zs.jacobi, ctx, seq, bound)
    return StabilityReport(n=n, zeros=zs, deviations=tuple(pairs),
                           max_deviation=worst, bound=bound, passed=passed)


def default_stress_family(ctx):
    """The documented perturbation family: an atom at -1, one at +1 and a
    64-atom uniform grid, each of mass one.

    An atom at one of sigma_n's own locations moves no zero of P_n:
    sigma_n plus it is an n-atom measure, whose P_n is prod (x - x_k) over
    the atoms.  So the family holds none but the endpoints, which are
    atoms of sigma_n only when the Leja points start there."""
    return [("delta_-1", ((ctx.mpf(-1), ctx.mpf(1)),)),
            ("delta_+1", ((ctx.mpf(1), ctx.mpf(1)),)),
            ("uniform_grid_64", _uniform_grid_64(ctx))]


def _uniform_grid_64(ctx):
    """64 equally spaced atoms on [-1, 1], of mass 1/64 each."""
    w = ctx.mpf(1) / 64
    return tuple((ctx.mpf(-1) + ctx.mpf(2) * i / 63, w) for i in range(64))


@dataclass(frozen=True)
class StressReport:
    bound: object
    results: tuple             # (name, max deviation) per family member

    @property
    def worst(self):
        return max(self.results, key=lambda t: t[1])

    @property
    def violations(self):
        return tuple(name for name, d in self.results if not d < self.bound)


def epsilon_stress_test(m, seq, n, eps_next, q, family=None):
    """Recompute the zeros of P_n under sigma_n + 2*eps_next*nu.

    Every nu in the family has support in [-1,1] and mass at most one;
    the deviation bound is min(q^(n^2), delta_n)/2.  The report's
    violations name every member that moves a zero by the bound or more.
    Raises BreakdownError when the first n atoms of m hold fewer than n
    distinct locations, as P_n of sigma_n does not exist then.

    The family is the caller's: each member meets the mass cap, and its
    atoms, scaled, are validated as a DiscreteMeasure before any audit.
    A member's result is the largest distance from a zero of P_n, found
    as orthopoly_zeros finds it, to the nearest of the first n Leja
    points (_worst_deviation).
    """
    ctx = m.ctx
    with ctx.workprec():
        bound = _stress_bound(seq, n, q, ctx)
        _require_support([x._mpf_ for x in m.locations[:n]], n)
        eps2, members = 2 * ctx.mpf(eps_next), []
        for name, nu in (default_stress_family(ctx) if family is None
                         else family):
            nu = nu or ()  # None is the zero measure
            mass = mp.fsum(w for _, w in nu)
            if mass > 1 + ctx.eps:
                raise ValueError(f"family member {name} has mass {mass} > 1")
            added = DiscreteMeasure(tuple((x, eps2 * w) for x, w in nu),
                                    ctx=ctx).atoms
            members.append((name, _stieltjes(m.atoms[:n] + added, n, ctx)))
        return StressReport(bound=bound, results=tuple(
            (name, _worst_deviation(_jacobi(rc, n), seq))
            for name, rc in members))


def _stress_bound(seq, n, q, ctx):
    """The audit bound min(q^(n^2), delta_n)/2 at degree n; run under ctx."""
    if len(seq) < n:
        raise ValueError(f"need {n} Leja points, have {len(seq)}")
    return min(ctx.mpf(str(q)) ** (n * n), ctx.mpf(separation(seq[:n]))) / 2
