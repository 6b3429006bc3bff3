"""Oscillatory integrals of polynomial phases and sublevel estimates.

The quadrature strategy is deliberately plain: split the interval at the real
roots of p' and p'' so the phase is monotone per piece, bisect panels until
each spans less than pi/2 of phase, then apply fixed Gauss-Legendre rules.
Error is estimated panel-wise by comparing the 16-point and 8-point rules and
offending panels are split until the global estimate clears the tolerance.
No Filon-type machinery is needed at desk scale; cost grows linearly with the
total phase variation, and a fixed panel cap (PANEL_CAP) turns runaway
requests into an explicit failure instead of a silent stall.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_DEGREE = 64
_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)
_CHUNK = 1 << 16
PANEL_CAP = 1 << 20


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance is met."""


@dataclass(frozen=True)
class PhasePoly:
    """Real polynomial b_0 + b_1 t + ... + b_d t^d used as an oscillation phase.

    ``coeffs`` holds b_1..b_d; the constant term is kept separate because the
    oscillation bounds never see it while the sublevel measures do.
    """

    coeffs: tuple = ()
    constant: float = 0.0

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        if len(cs) > MAX_DEGREE:
            raise ValueError(f"degree cap is {MAX_DEGREE}")
        if not all(np.isfinite(cs)) or not np.isfinite(self.constant):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "constant", float(self.constant))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def full_coeffs(self) -> np.ndarray:
        """Power-basis coefficients [b_0, b_1, ..., b_d]."""
        return np.array((self.constant,) + self.coeffs, dtype=float)

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float),
                                                self.full_coeffs())


def _real_roots_in(coeffs: np.ndarray, a: float, b: float) -> np.ndarray:
    """Real roots of a power-basis polynomial inside (a, b)."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if len(c) <= 1:
        return np.empty(0)
    roots = np.polynomial.polynomial.polyroots(c)
    scale = max(abs(a), abs(b), 1.0)
    real = roots[np.abs(roots.imag) <= 1e-9 * scale].real
    real = real[(real > a) & (real < b)]
    return np.unique(real)


def _panel_values(p: PhasePoly, lo: np.ndarray, hi: np.ndarray):
    """GL16 value and GL16-GL8 discrepancy for each panel, chunked."""
    vals = np.empty(len(lo), dtype=complex)
    errs = np.empty(len(lo), dtype=float)
    for start in range(0, len(lo), _CHUNK):
        sl = slice(start, start + _CHUNK)
        mid = 0.5 * (lo[sl] + hi[sl])[:, None]
        half = 0.5 * (hi[sl] - lo[sl])[:, None]
        v16 = (np.exp(1j * p(mid + half * _GL16[0])) @ _GL16[1]) * half[:, 0]
        v8 = (np.exp(1j * p(mid + half * _GL8[0])) @ _GL8[1]) * half[:, 0]
        vals[sl] = v16
        errs[sl] = np.abs(v16 - v8)
    return vals, errs


def _bisect(lo: np.ndarray, hi: np.ndarray, bad: np.ndarray):
    """Panels with the flagged ones split in half."""
    mid = 0.5 * (lo[bad] + hi[bad])
    return (np.concatenate([lo[~bad], lo[bad], mid]),
            np.concatenate([hi[~bad], mid, hi[bad]]))


def _require_tol(tol: float) -> None:
    """The rule at every public tol entry: finite and positive."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def osc_integral(p: PhasePoly, a: float, b: float,
                 tol: float = 1e-10) -> complex:
    """Evaluate int_a^b exp(i p(t)) dt to absolute tolerance tol."""
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise ValueError("need finite a < b")
    _require_tol(tol)
    if p.degree == 0 or not any(p.coeffs):
        return (b - a) * np.exp(1j * p.constant)

    full = p.full_coeffs()
    d1 = np.polynomial.polynomial.polyder(full)
    d2 = np.polynomial.polynomial.polyder(full, 2)
    cuts = np.concatenate([[a], _real_roots_in(d1, a, b),
                           _real_roots_in(d2, a, b), [b]])
    cuts = np.unique(cuts)
    lo, hi = cuts[:-1].copy(), cuts[1:].copy()

    # Bisect until each panel's monotone phase span is below pi/2.
    for _ in range(64):
        span = np.abs(p(hi) - p(lo))
        bad = span > 0.5 * np.pi
        if not bad.any():
            break
        if len(lo) + np.count_nonzero(bad) > PANEL_CAP:
            raise QuadratureError(
                f"panel cap {PANEL_CAP} exceeded splitting phase spans")
        lo, hi = _bisect(lo, hi, bad)
    else:
        raise QuadratureError("phase spans failed to contract")

    for _ in range(64):
        vals, errs = _panel_values(p, lo, hi)
        total_err = float(np.sum(errs))
        if total_err <= tol:
            return complex(np.sum(vals))
        bad = errs > tol / (2.0 * len(lo))
        if len(lo) + np.count_nonzero(bad) > PANEL_CAP:
            raise QuadratureError(
                f"panel cap {PANEL_CAP} exceeded at error {total_err:.3e}")
        lo, hi = _bisect(lo, hi, bad)
    raise QuadratureError("error estimate failed to contract")


def sublevel_measure(p: PhasePoly, a: float, b: float, delta: float,
                     grid_points: int = 10**5) -> float:
    """Lebesgue measure of {t in [a,b] : |p(t)| <= delta} by midpoint sampling.

    The deterministic error is at most (b-a) * (sign_changes + 2) / grid_points
    since each maximal sublevel interval contributes two boundary cells.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    ts = a + (np.arange(grid_points) + 0.5) * (b - a) / grid_points
    inside = np.abs(p(ts)) <= delta
    return float(np.count_nonzero(inside)) * (b - a) / grid_points


@dataclass(frozen=True)
class BoundReport:
    measured: float
    bound_rhs: float
    ratio: float
    details: dict = field(default_factory=dict)


def vinogradov_check(p: PhasePoly, a: float, b: float, delta: float,
                     grid_points: int = 10**5) -> BoundReport:
    """Sublevel measure against max(|a|,|b|) (delta / max|b_k|)^{1/d}.

    The max runs over all coefficients, constant term b_0 included.  The
    source material also uses the max over k >= 1 only, so the report
    carries that alternate ratio in ``details``.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    measured = sublevel_measure(p, a, b, delta, grid_points)
    outer = max(abs(a), abs(b))

    def rhs(include_constant):
        cs = np.abs(p.full_coeffs()) if include_constant else np.abs(p.coeffs)
        top = float(np.max(cs))
        if top == 0.0:
            raise ValueError("zero polynomial")
        return outer * (delta / top) ** (1.0 / p.degree)

    primary = rhs(True)
    alternate = rhs(False)
    return BoundReport(measured=measured, bound_rhs=primary,
                       ratio=measured / primary if primary > 0 else np.inf,
                       details={"alternate_bound": alternate,
                                "alternate_ratio": measured / alternate
                                if alternate > 0 else np.inf})


def vdc_bound_check(p: PhasePoly, a: float, b: float,
                    tol: float = 1e-9) -> BoundReport:
    """|int_a^b e^{ip}| against max(|a|,|b|)^{1-1/d} / (max_{k>=1}|b_k|)^{1/d}."""
    if p.degree < 1 or not any(p.coeffs):
        raise ValueError("need a nonconstant phase")
    if p.constant != 0.0:
        raise ValueError("oscillation bound expects no constant term")
    measured = abs(osc_integral(p, a, b, tol=tol))
    top = float(np.max(np.abs(p.coeffs)))
    bound = max(abs(a), abs(b)) ** (1.0 - 1.0 / p.degree) / top ** (1.0 / p.degree)
    return BoundReport(measured=measured, bound_rhs=bound,
                       ratio=measured / bound if bound > 0 else np.inf)
