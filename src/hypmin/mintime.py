"""Minimal-time formulas and the numerical convolution-support check.

Every minimal time here is one threshold on the travel-time tables of a
SpeedPair,

    Tmin = max( max(T1, T2),  T1 + T2 - saved )

where saved is the travel time that the vanishing prefix spares the lower
component.  For the physical system saved = psi(Xc) = phi1(Xc) + phi2(Xc),
with Xc the vanishing prefix of the coupling c over (0, xbar) and xbar
solving psi(xbar) = T2; the canonical form saves phi2(X1), X1 the prefix of
its trace g.  A reflection q != 0 at x=0 feeds the lower component the
uncontrolled y1(t, 0) before T1, so it saves nothing: Tmin = T1 + T2.  The
n-speed canonical threshold is the largest 2x2 threshold over its
components.  The module also provides a discrete test of the convolution
support identity that underlies the sharpness argument.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .coeffs import CoefficientSpec, Grid, prefix_of_samples, relative_tol, vanishing_prefix
from .characteristics import SpeedPair
from .errors import GridMismatchError, InvalidSpeedsError
from .simulator import SystemSpec

__all__ = [
    "TimesReport",
    "TitchmarshReport",
    "times_report",
    "canonical_min_time",
    "nxn_canonical_min_time",
    "predicted_g_prefix",
    "titchmarsh_check",
]


@dataclass(frozen=True)
class TimesReport:
    T1: float
    T2: float
    Topt: float
    Tunif: float
    xbar: float
    Xc: float
    Tmin: float
    prefix_tol: float
    tolerance_limited: bool
    constant_speed_note: str | None = None

    def as_dict(self) -> dict:
        return asdict(self)

    def pretty(self) -> str:
        lines = [f"{k:<22} {v:.12g}" for k, v in self.as_dict().items()
                 if isinstance(v, (int, float)) and not isinstance(v, bool)]
        lines.append(f"{'tolerance_limited':<22} {self.tolerance_limited}")
        if self.constant_speed_note:
            lines.append(self.constant_speed_note)
        return "\n".join(lines)


def _is_constant(spec: CoefficientSpec, probe: np.ndarray) -> bool:
    vals = np.asarray(spec(probe), dtype=float)
    scale = max(1.0, float(np.max(np.abs(vals))))
    return float(np.max(vals) - np.min(vals)) <= 1e-12 * scale


def _threshold(T1: float, T2: float, saved: float) -> float:
    """The minimal time: the travel times T1, T2 minus the time saved.
    Saving all of T2 leaves exactly max(T1, T2), where (T1 + T2) - saved
    can round one ulp above T1."""
    if saved >= T2:
        return max(T1, T2)
    return max(max(T1, T2), (T1 + T2) - saved)


def _c_prefix(speeds: SpeedPair, c: CoefficientSpec, grid: Grid):
    """xbar, the prefix Xc of c over (0, xbar), and the tolerance
    (relative_tol on grid) it is measured with.  The interval is empty and
    Xc is 0 where xbar is 0, as it is when |lambda1| / lambda2 underflows."""
    tol = relative_tol(c, grid)
    xbar = float(speeds.psi_inv(speeds.T2))
    return xbar, (vanishing_prefix(c, xbar, tol, grid) if xbar > 0.0 else 0.0), tol


def times_report(system: SystemSpec, grid: Grid) -> TimesReport:
    """All characteristic times of the system plus its minimal control time,
    with the vanishing prefix of c measured on grid."""
    speeds = system.speeds
    T1, T2 = speeds.T1, speeds.T2
    xbar, Xc, tol = _c_prefix(speeds, system.c, grid)
    Xc_strict = vanishing_prefix(system.c, xbar, tol * 1e-2, grid) if xbar > 0.0 else 0.0
    limited = (Xc - Xc_strict) > 2.0 * grid.h
    saved = 0.0 if system.q != 0.0 else float(speeds.psi_eval(Xc))
    Tmin = _threshold(T1, T2, saved)
    Tunif = T1 + T2

    note = None
    probe = np.linspace(0.0, 1.0, 257)
    if system.q != 0.0:
        note = (f"reflection q = {system.q:.12g}: the lower component carries the "
                f"uncontrolled y1(t, 0) until T1, so Tmin = Tunif = {Tmin:.12g} "
                "whatever c")
    elif _is_constant(speeds.lambda1, probe) and _is_constant(speeds.lambda2, probe):
        edge = 1.0 - Tmin / Tunif if Tmin < Tunif else 0.0
        note = ("constant speeds: a time T in [Topt, Tunif) is admissible iff "
                f"c = 0 on (0, 1 - T/Tunif); measured prefix {Xc:.12g} gives "
                f"Tmin = {Tmin:.12g} (c must vanish on (0, {edge:.12g}))")
    return TimesReport(T1=T1, T2=T2, Topt=max(T1, T2), Tunif=Tunif, xbar=xbar, Xc=Xc,
                       Tmin=Tmin, prefix_tol=tol, tolerance_limited=limited,
                       constant_speed_note=note)


def predicted_g_prefix(speeds: SpeedPair, c: CoefficientSpec, grid: Grid) -> float:
    """Predicted vanishing prefix of g from the prefix of c.

    With Xc the prefix of c over (0, xbar), measured on grid, the prediction
    is phi2^{-1}(phi1(Xc) + phi2(Xc)); it equals 1 when c vanishes on (0, xbar).
    """
    _, Xc, _ = _c_prefix(speeds, c, grid)
    return float(speeds.phi_inv_ext(2, speeds.psi_eval(Xc)))


def canonical_min_time(speeds: SpeedPair, g: np.ndarray, tol: float) -> float:
    """Threshold time of the canonical form for a sampled trace g."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 1 or g.shape[0] < 2:
        raise GridMismatchError("trace g must be sampled on at least two nodes")
    X1 = prefix_of_samples(g, 1.0 / (g.shape[0] - 1), 1.0, tol)
    return _threshold(speeds.T1, speeds.T2, float(speeds.phi_eval(2, X1)))


def nxn_canonical_min_time(speeds: list, G: list, Q: list) -> float:
    """Threshold time of the n-speed canonical form (one negative speed).

    speeds lists the n speed coefficients (lambda1 negative, the rest
    positive and strictly increasing); G the n-1 sampled traces; Q the n-1
    boundary reflections.  The threshold is the largest 2x2 threshold over
    the components k = 2..n, each on SpeedPair.build(lambda1, lambda_k): a
    reflected component saves nothing and needs T1 + Tk whatever its trace,
    any other one is canonical_min_time of its trace at tolerance 1e-10.
    """
    nspeeds = len(speeds)
    if nspeeds < 2 or len(G) != nspeeds - 1 or len(Q) != nspeeds - 1:
        raise GridMismatchError("need n speeds with n-1 traces and reflections")
    probe = np.linspace(0.0, 1.0, 1025)
    for i in range(2, nspeeds):
        if np.any(speeds[i](probe) <= speeds[i - 1](probe)):
            raise InvalidSpeedsError(
                f"speeds must increase: lambda{i + 1} <= lambda{i} somewhere")
    pairs = [SpeedPair.build(speeds[0], lam) for lam in speeds[1:]]
    return max(_threshold(p.T1, p.T2, 0.0) if q != 0.0 else canonical_min_time(p, g, 1e-10)
               for p, g, q in zip(pairs, G, Q))


@dataclass(frozen=True)
class TitchmarshReport:
    convolution_max: float
    prefix_a: float
    prefix_b: float
    prefix_sum: float
    verdict: str  # "vanishes" | "nonvanishing"
    consistent: bool
    cell: float

    def as_dict(self) -> dict:
        return asdict(self)


def _leading_convolution(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The first len(alpha) entries of np.convolve(alpha, beta), by FFT.

    Only the tails from the first nonzero samples ia and ib are transformed;
    every entry below ia + ib is exactly 0.0, as the true convolution is.
    """
    full = np.zeros(alpha.shape[0])
    ia, ib = int(np.argmax(alpha != 0.0)), int(np.argmax(beta != 0.0))
    L = full.shape[0] - ia - ib
    if alpha[ia] == 0.0 or beta[ib] == 0.0 or L <= 0:
        return full
    # at least 2L - 1 points: no wrapped term reaches the first L entries
    m = _fft_size(2 * L - 1)
    spec = np.fft.rfft(alpha[ia:ia + L], m)
    spec *= np.fft.rfft(beta[ib:ib + L], m)
    full[ia + ib:] = np.fft.irfft(spec, m)[:L]
    return full


def _fft_size(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m, a length the FFT factors into small primes."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def titchmarsh_check(alpha: np.ndarray, beta: np.ndarray, tau_bar: float,
                     tol: float) -> TitchmarshReport:
    """Discrete convolution-support check on (0, tau_bar).

    The convolution of alpha and beta vanishes on (0, tau_bar) exactly when
    their vanishing prefixes sum to at least tau_bar; the report records the
    trapezoid convolution maximum, both measured prefixes, and whether the
    numerical verdict matches that equivalence up to two grid cells: each
    measured prefix ends at the last sample at or below tol, up to one cell
    before the first nonzero sample that the convolution sees.  tol is
    relative, so the check reads the same at every scale of tau_bar and of
    the samples: a prefix ends at the first sample above tol times its
    factor's largest magnitude, and the verdict is "vanishes" when the
    maximum is at most tol * tau_bar * max|alpha| * max|beta|, the largest
    value the convolution can take.  The
    convolution is one FFT product, O(N log N) in the N + 1 samples, and is
    exactly 0.0 below the sum of the first nonzero sample indices.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != beta.shape or alpha.ndim != 1 or alpha.shape[0] < 3:
        raise GridMismatchError("alpha and beta must share a uniform sampling")
    N = alpha.shape[0] - 1
    dtau = tau_bar / N
    full = _leading_convolution(alpha, beta)
    corr = 0.5 * (alpha * beta[0] + alpha[0] * beta)
    conv = dtau * (full - corr)
    conv[0] = 0.0
    conv_max = float(np.max(np.abs(conv)))
    amp_a, amp_b = float(np.max(np.abs(alpha))), float(np.max(np.abs(beta)))
    pa, pb = (prefix_of_samples(v / amp, dtau, tau_bar, tol) if amp > 0.0 else float(tau_bar)
              for v, amp in ((alpha, amp_a), (beta, amp_b)))
    psum = pa + pb
    vanishes = conv_max <= tol * tau_bar * amp_a * amp_b
    verdict = "vanishes" if vanishes else "nonvanishing"
    consistent = (vanishes == (psum >= tau_bar)) or abs(psum - tau_bar) <= 2.0 * dtau
    return TitchmarshReport(convolution_max=conv_max, prefix_a=pa, prefix_b=pb,
                            prefix_sum=psum, verdict=verdict,
                            consistent=bool(consistent), cell=dtau)
