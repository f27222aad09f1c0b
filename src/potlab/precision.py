"""Binary-precision context for all big-float computations.

Everything that has to survive weight ratios like q^(n^2) runs through a
PrecisionContext, which is a thin wrapper around an mpmath working
precision.  Values created under a context are plain mpf numbers and
can be mixed freely; the context only pins how many bits new operations
carry and which tolerances derived checks should use.

Operations built on a context are pure functions of their inputs, and
the produced values can be shared across threads.  The precision switch
itself goes through mpmath's process-global context, so concurrent
callers should parallelize across processes, not threads.

mpmath is imported inside the methods that use it, not with this
module, so the float runners, which use only MIN_BITS and
PrecisionTooLow, never load it.
"""

from dataclasses import dataclass

MIN_BITS = 64


class PrecisionTooLow(ValueError):
    """Requested computation needs more bits than the context provides."""


@dataclass(frozen=True)
class PrecisionContext:
    """Fixed binary working precision.

    bits : int
        Significand size in bits for reals/complexes created under this
        context.  Must be at least 64.
    """

    bits: int = 256

    def __post_init__(self):
        if int(self.bits) < MIN_BITS:
            raise PrecisionTooLow(f"need at least {MIN_BITS} bits, got {self.bits}")
        object.__setattr__(self, "bits", int(self.bits))

    def workprec(self):
        """Context manager switching mpmath to this precision."""
        from mpmath import mp
        return mp.workprec(self.bits)

    def mpf(self, x):
        from mpmath import mp, mpf
        with mp.workprec(self.bits):
            return mpf(x)

    @property
    def eps(self):
        from mpmath import mpf
        return mpf(2) ** (-self.bits)

    @property
    def root_tol(self):
        """Bisection width for polynomial roots: 2^(-bits/2)."""
        from mpmath import mpf
        return mpf(2) ** (-(self.bits // 2))

    def nstr(self, x):
        """Decimal string with max(bits/3, 17) significant digits."""
        from mpmath import mp, mpf
        with mp.workprec(self.bits):
            return mp.nstr(x if isinstance(x, mpf) else mpf(x),
                           max(self.bits // 3, 17), strip_zeros=False)
