"""Orthogonal polynomials of discrete measures and the sigma construction.

The pipeline: take weighted Leja points x_1, x_2, ..., attach a rapidly
decaying weight cascade eps_n, and study the monic orthogonal polynomials
of sigma = sum eps_n delta_{x_n}.  With a cascade that decays fast enough
the degree-n polynomial keeps its zeros within q^(n^2) of the first n
atoms, which is what makes the zero-counting measures follow the target.

The recurrences, zeros and audits run in a PrecisionContext (mpmath),
which each public function enters once for the private helpers it calls;
weights reach q^300, far outside float64, and build_sigma's float64
certificate (_lagrange_within) takes only ratios of them.

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
orthopoly_zeros and the member audit alike (_zeros).

Newton's point only steers the bisection, so it runs in fixed point on
Python ints, on a precision ladder up to about bits/2 (_newton).  The
Sturm counts that certify it, and the Stieltjes recurrence, run on raw
mpf values (mpmath.libmp) with the roundings and association order of
the mpf arithmetic they replace; a point the counts reject sends its
root to the full bisection.

Cascades
--------
``power``      eps_n = q^(n^2).  The simple closed form; its consecutive
               ratios q^(2n+1) shrink too slowly for the zero-stability
               bound once n >= 3 (the perturbation of the degree-n zeros
               is of order eps_{n+1}/eps_n, which dwarfs q^(n^2)).
``stabilized`` eps_1 = q and eps_{n+1} chosen inside (0, q^(n^2) eps_n),
               shrunk until a two-member family, an atom at the next
               Leja point and a 64-atom uniform grid, passes the member
               audit of epsilon_stress_test (_worst_deviation) at half
               the audit bound: every degree-n zero moves by at most
               min(q^(n^2), delta_n)/4.  sigma_n, the members and the
               bound are set once per degree; a candidate only rescales
               the members' weights and audits those that a float64
               Lagrange-coordinate certificate declines (build_sigma).
               The constructive "pick eps_{n+1} small enough": the
               deviation is linear in eps_{n+1}, so a violation says how
               much to shrink.  Default.
"""

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (fone, from_float, from_man_exp, fzero, mpf_div,
                          mpf_le, mpf_mul, mpf_neg, mpf_sub, mpf_sum,
                          round_ceiling, round_floor, round_nearest, to_float)

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
    atom locations; raises BreakdownError otherwise.  A gap of more than
    bits binary orders between consecutive weights can lose an atom: J_n
    then has a near-double root, a fallback or a refusal of orthopoly_zeros.

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


def _step(J, x, f):
    """Newton's step P_n(x)/P_n'(x), 0 where P_n' is, by J's recurrence
    on the grid 2^-f: x, the step, P_n, P_n', a and b floored to it."""
    sh, p0, p, d0, d = J.bits + J.guard - f, 0, 1 << f, 0, 0
    for a, b in zip(J.ai, J.bi):
        t, b = x - (a >> sh), b >> sh
        p0, p, d0, d = p, t * p - b * p0 >> f, d, p + (t * d - b * d0 >> f)
    return (p << f) // d if d else 0


def _newton(J, seed):
    """Newton's point for a root of P_n from the float64 seed, a raw mpf
    of top bits: the precision about doubles per step from 53 bits up to
    top = bits/2 + 32, plus the bits of |seed| above 1, at most bits, with
    a step at precision p on the grid 2^-(p + J.guard) (_step).  It ends
    after a step s at top once |s| or the next step, which quadratic
    convergence predicts from the one before, r, as |s|^3/r^2, is at most
    stop = root_tol/16: absolute, so top needs bits/2 plus a guard for its
    4 bits and the rounding of P_n near the root, not all bits."""
    top = min(J.bits, J.bits // 2 + 32 + max(math.frexp(seed)[1], 0))
    num, den = seed.as_integer_ratio()
    prec, r, x = 53, 0, (num << J.guard + 53) // den
    stop = _to_grid(J.delta, top + J.guard) >> 2
    for _ in range(J.bits.bit_length() + 2):
        up = min(prec, top - prec)          # the grid refines by up bits
        prec, x, r = prec + up, x << up, r << up
        step = _step(J, x, prec + J.guard)
        x, s = x - step, abs(step)
        if prec == top and (s <= stop or s ** 3 <= r * r * stop):
            break
        r = s
    return from_man_exp(x, -prec - J.guard, top, round_nearest)


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
    a and b, and as ai and bi on Newton's grid 2^-(bits + guard), the
    enclosure radius delta, the float64 seeds, Newton's certified points
    (None until enclosed), and on the grid 2^-s lo0 as lo, then cells
    cells of width cell.  Run under rc.ctx."""
    if n < 1 or n > len(rc):
        raise ValueError(f"need 1 <= n <= {len(rc)}")
    ctx = rc.ctx
    a = [mpf(v) for v in rc.a[:n]]
    b = [mpf(v) for v in rc.b[:n]]
    for k in range(1, n):
        if not b[k] > 0:
            raise BreakdownError(f"b[{k}] = {b[k]} is not positive")
    r = mp.sqrt(max(b[1:n], default=mpf(0)))
    lo0, hi0 = min(a) - 2 * r - 1, max(a) + 2 * r + 1
    tol = ctx.root_tol
    #  hi0 - lo0 = width 2^e, and h halvings bring it to root_tol = 2^te
    #  or below; on the grid 2^-s every cell end and midpoint is an integer
    e = min(lo0._mpf_[2], hi0._mpf_[2])
    width = _to_grid(hi0, -e) - _to_grid(lo0, -e)
    h = max(0, (width - 1).bit_length() - tol._mpf_[2] + e)
    s, seeds = h + 1 - e, _seeds(a, b, n)
    #  Newton's guard: 2n + 32 bits, plus the bits that |P_n'| < 1 at a
    #  root costs fixed point, from the seeds (all where two coincide)
    with np.errstate(all="ignore"):
        lost = -np.log2(abs(seeds[:, None] - seeds) + np.eye(n)).sum(1).min()
    guard = 2 * n + 32 + int(np.clip(np.nan_to_num(lost), 0, ctx.bits))
    return SimpleNamespace(
        a=[v._mpf_ for v in a], b=[v._mpf_ for v in b], n=n, bits=ctx.bits,
        ai=[_to_grid(v, ctx.bits + guard) for v in a], guard=guard,
        bi=[_to_grid(v, ctx.bits + guard) for v in b], s=s, seeds=seeds,
        tiny=from_man_exp(1, -4 * ctx.bits), delta=tol / 4, points=[None] * n,
        lo=_to_grid(lo0, s), cell=width << 1, cells=1 << h)


def _enclose(J, k):
    """Newton's point x for the k-th eigenvalue of J_n if the counts at
    x - delta and x + delta put it in between, else None."""
    seed = J.seeds[k - 1]
    if not math.isfinite(seed):
        return None
    x = mp.make_mpf(_newton(J, float(seed)))
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
    cell, with J.points set to the enclosures; run under J's precision.
    J_n's eigenvalues are simple, so two roots in one cell are refused."""
    J.points = [_enclose(J, k) for k in range(1, J.n + 1)]
    roots = tuple(_root(J, k, x) for k, x in enumerate(J.points, 1))
    if any(r == s for r, s in zip(roots, roots[1:])):
        raise PrecisionTooLow(f"two roots of P_{J.n} share one bisection "
                              f"cell at {J.bits} bits")
    return roots


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
    Two roots in one cell raise PrecisionTooLow.
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


def _worst_deviation(atoms, n, seq, ctx):
    """The member audit: max over the zeros of P_n of the mpf atoms' measure,
    found as orthopoly_zeros finds them, of the distance to the nearest of
    the first n points of seq; run under ctx."""
    pts = [mpf(x) for x in seq[:n]]
    zeros = _zeros(_jacobi(_stieltjes(atoms, n, ctx), n))
    return max(_nearest(r, pts)[1] for r in zeros)


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


def _lagrange_within(x, eps, nu, eps2, r):
    """Whether float64 bounds prove each zero of P_n(sigma_n + eps2 nu),
    sigma_n = sum eps_i delta_{x_i} on the n points of the float64 array
    x, within r of its x_i; nu is (t, w), the float64 arrays of its atoms
    off the x_i (an atom on an x_k only adds to eps_k).

    P_n = omega_n (1 + sum_j c_j/(x - x_j)), omega_n = prod (x - x_j), c_j
    = y_j/omega_n'(x_j) and (E + G) y = -h, with E = diag(eps), G_ij =
    eps2 sum_a w_a l_i(t_a) l_j(t_a), h_i = eps2 sum_a w_a omega_n(t_a)
    l_i(t_a) over nu's atoms (t_a, w_a) and l_i the Lagrange basis
    (Gautschi 2004, 2.4).  If each kappa_i = sum_j |G_ij|/eps_i < 1/2, a
    Neumann series gives |y_i| <= |h_i|/eps_i + 2 kappa_i max_k |h_k|/eps_k;
    then |c_i|/r + sum_{j != i} |c_j|/(|x_i - x_j| - r) < 1 makes P_n
    change sign across (x_i - r, x_i + r), and 2r below the separation
    makes these n intervals disjoint, one zero each.  The weights enter as
    eps2/eps_i and eps2/(eps_i r), rounded up from mpf; each numpy bound
    takes Higham's (2002) gamma_k for its roundings and for t_a's to
    float64 (a subnormal result errs by 2^-1075 at most, far inside it).
    r <= 0, a value that is not finite, or an atom within rounding of an
    x_j declines.
    """
    def up(v):      # the raw mpf v >= 0 rounded up to float64, at any size
        f = to_float(v, rnd=round_ceiling)
        return f if f >= 2.0 ** -1022 else math.nextafter(f, 1)

    (t, w), n, u = nu, len(x), 2.0 ** -53
    if not r > 0:
        return False
    e2, rr, ru = eps2._mpf_, r._mpf_, up(r._mpf_)
    rho = np.array([up(mpf_div(e2, e._mpf_, 53, round_ceiling)) for e in eps])
    rho_r = np.array([up(mpf_div(e2, mpf_mul(e._mpf_, rr, 53, round_floor),
                                 53, round_ceiling)) for e in eps])
    with np.errstate(all="ignore"):
        dx = x[:, None] - x
        np.fill_diagonal(dx, 1.0)
        pd = dx.prod(axis=1)                    # omega_n'(x_i)
        d = t[:, None] - x                      # t_a - x_j
        eta = u + np.max((2 * u * np.abs(t)[:, None] + 2.0 ** -1074)
                         / np.abs(d), initial=0)
        theta = 8 * (n + 2) * eta               # relative, of l, omega_n, pd
        inflate = 1 + 8 * theta + 8 * (n + len(t) + 16) * u
        om = d.prod(axis=1)
        lag = om[:, None] / (d * pd)            # l_i(t_a)
        kappa = rho * ((w * np.abs(lag).sum(axis=1)) @ np.abs(lag)) * inflate
        s = (w * om)[:, None] * lag             # the terms of h_i / eps2
        h = rho_r * inflate * (np.abs(s.sum(axis=0)) + (4 * theta + 2 * (
            len(t) + 16) * u) * np.abs(s).sum(axis=0))   # >= |h_i|/(eps_i r)
        c = (h + 2 * kappa * h.max(initial=0)) / np.abs(pd) * inflate
        gap = np.abs(dx) * (1 - 2 * u)
        np.fill_diagonal(gap, np.inf)
        total = (c + ru * (c / (gap - ru)).sum(axis=1)) * inflate
        return bool(theta < 2.0 ** -10 and np.all(kappa < 0.5)
                    and 2 * ru < gap.min() and np.all(total < 1))


def build_sigma(cfg, seq):
    """Measure sum eps_n delta_{x_n} over the first n_max points of seq.

    The cascade depends on cfg.cascade (see module docstring).  For the
    stabilized cascade each eps_{n+1} is calibrated by the member audit
    of epsilon_stress_test with an atom at the next Leja point (the
    realized continuation) and a 64-atom uniform grid (a spread-out worst
    case).  sigma_n's atoms, these members', tgt, half the audit bound,
    and the float64 input of _lagrange_within are built once per degree
    (the grid's floats once per build); a candidate scales the members'
    weights by 2 cand and passes if worst <= tgt, else it is rescaled by
    tgt/worst/2.

    worst is the max of the member audit (_worst_deviation) over the
    members that _lagrange_within declines, 0 if none.  A member it
    accepts has each zero of P_n of the exact measure, these mpf atoms and
    weights, proved within r = tgt (1 - 2^-32) of its Leja point; at or
    above precision_floor the audit's rounded recurrence puts its zeros
    far closer than 2^-32 relative to those, so its worst is below tgt
    too.  The pass decision is then the full audit's, and so is a
    failing max.  Tail sums are checked to stay below the previous weight.
    """
    if len(seq) < cfg.n_max:
        raise ValueError(f"need {cfg.n_max} Leja points, have {len(seq)}")
    ctx = PrecisionContext(cfg.bits)
    with ctx.workprec():
        q = mpf(str(cfg.q))
        pts = [mpf(x) for x in seq[:cfg.n_max]]
        if cfg.cascade == "power":
            eps = [q ** ((k + 1) ** 2) for k in range(cfg.n_max)]
        else:
            eps, grid = [q], _uniform_grid_64()
            flat = [(x._mpf_, float(x), float(w)) for x, w in grid]
            for n in range(1, cfg.n_max):
                atoms = tuple(zip(pts, eps))
                family = (((pts[n], 1),), grid)
                xf = np.array([float(p) for p in pts[:n]])
                ok = all(from_float(v) == p._mpf_ for v, p in zip(xf, pts))
                own = {p._mpf_ for p in pts[:n]}
                floats = [np.array([(t, w) for k, t, w in m if k not in own],
                                   dtype=float).reshape(-1, 2).T for m in (
                    [(pts[n]._mpf_, float(pts[n]), 1.0)], flat)]
                tgt = _stress_bound(seq, n, cfg.q) / 2
                r = tgt * (1 - mpf(2) ** -32)
                cand = q ** (n * n) * eps[-1] * q
                for _ in range(64):
                    eps2, worst = 2 * cand, 0
                    for nu, tw in zip(family, floats):
                        if not (ok and _lagrange_within(xf, eps, tw, eps2, r)):
                            worst = max(worst, _worst_deviation(atoms + tuple(
                                (x, eps2 * w) for x, w in nu), n, seq, ctx))
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
        return _holds(_jacobi(rc, n), centers, radius)


def _holds(J, centers, radius):
    """enclosures_hold on J, the _jacobi record of J_n, without the
    counts J.points imply (see Zeros); run under J's precision."""
    if len(centers) < J.n:
        raise ValueError(f"need {J.n} centers, have {len(centers)}")
    radius = mpf(radius)
    ends = [(c - radius, c + radius)
            for c in sorted(mpf(c) for c in centers[:J.n])]
    if any(not hi < lo for (_, hi), (lo, _) in zip(ends, ends[1:])):
        return False
    return all(x is not None and lo <= x - J.delta and x + J.delta <= hi
               or _encloses(J, k, lo._mpf_, hi._mpf_)
               for k, ((lo, hi), x) in enumerate(zip(ends, J.points), 1))


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
    with rc.ctx.workprec():
        pts = [mpf(x) for x in seq[:n]]
        pairs = [_nearest(r, pts) for r in zs.roots]
        worst = max(d for _, d in pairs)
        if len({j for j, _ in pairs}) < n:
            raise PairingFailure(
                f"zeros of P_{n} do not pair bijectively with the Leja "
                f"points (worst deviation {mp.nstr(worst, 8)})")
        bound = mpf(str(q)) ** (n * n)
        passed = _holds(zs.jacobi, seq, bound)
    return StabilityReport(n=n, zeros=zs, deviations=tuple(pairs),
                           max_deviation=worst, bound=bound, passed=passed)


def default_stress_family(ctx):
    """The documented perturbation family: an atom at -1, one at +1 and a
    64-atom uniform grid, each of mass one.

    An atom at one of sigma_n's own locations moves no zero of P_n:
    sigma_n plus it is an n-atom measure, whose P_n is prod (x - x_k) over
    the atoms.  So the family holds none but the endpoints, which are
    atoms of sigma_n only when the Leja points start there."""
    with ctx.workprec():
        return [("delta_-1", ((mpf(-1), mpf(1)),)),
                ("delta_+1", ((mpf(1), mpf(1)),)),
                ("uniform_grid_64", _uniform_grid_64())]


def _uniform_grid_64():
    """64 equally spaced atoms on [-1, 1], of mass 1/64 each: 2i/63 rounded
    once, then -1 rounded once; run under the caller's precision."""
    w = mpf(1) / 64
    return tuple((mpf(-1) + mpf(2) * i / 63, w) for i in range(64))


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
        bound = _stress_bound(seq, n, q)
        _require_support([x._mpf_ for x in m.locations[:n]], n)
        eps2, members = 2 * mpf(eps_next), []
        for name, nu in (default_stress_family(ctx) if family is None
                         else family):
            nu = nu or ()  # None is the zero measure
            mass = mp.fsum(w for _, w in nu)
            if mass > 1 + ctx.eps:
                raise ValueError(f"family member {name} has mass {mass} > 1")
            members.append((name, DiscreteMeasure(tuple(
                (x, eps2 * w) for x, w in nu), ctx=ctx).atoms))
        return StressReport(bound=bound, results=tuple(
            (name, _worst_deviation(m.atoms[:n] + added, n, seq, ctx))
            for name, added in members))


def _stress_bound(seq, n, q):
    """The audit bound min(q^(n^2), delta_n)/2 at degree n."""
    if len(seq) < n:
        raise ValueError(f"need {n} Leja points, have {len(seq)}")
    return min(mpf(str(q)) ** (n * n), mpf(separation(seq[:n]))) / 2
