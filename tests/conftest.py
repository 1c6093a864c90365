import math

import numpy as np
import pytest

from hypmin import CoefficientSpec, FeedbackLaw, KernelSet, SpeedPair, SystemSpec
from hypmin.simulator import largest_speed


def const(v):
    return CoefficientSpec.constant(v)


@pytest.fixture(scope="session")
def unit_speeds():
    """lambda = (-1, 1)."""
    return SpeedPair.build(const(-1.0), const(1.0))


@pytest.fixture(scope="session")
def varying_speeds():
    """lambda1 = -(1 + x/2), lambda2 = 1 + x."""
    return SpeedPair.build(CoefficientSpec.polynomial([-1.0, -0.5]),
                           CoefficientSpec.polynomial([1.0, 1.0]))


def make_system(speeds, a=0.0, b=0.0, c=0.0, d=0.0, q=0.0):
    def as_spec(v):
        return v if isinstance(v, CoefficientSpec) else const(float(v))

    return SystemSpec(speeds=speeds, a=as_spec(a), b=as_spec(b), c=as_spec(c),
                      d=as_spec(d), q=q)


def headline_raw(n=400, horizon=1.5):
    """Step coupling at 0.25 with all four couplings active."""
    return {
        "schema_version": 1,
        "system": {
            "lambda1": {"family": "constant", "value": -1.0},
            "lambda2": {"family": "constant", "value": 1.0},
            "a": {"family": "constant", "value": 0.5},
            "b": {"family": "constant", "value": 1.0},
            "c": {"family": "step", "ell": 0.25, "lo": 0.0, "hi": 1.0},
            "d": {"family": "constant", "value": -0.3},
        },
        "grid_n": n,
        "horizon": horizon,
        "seed": 42,
    }


def smooth_bump(xs, center=0.5, width=0.15):
    """C^infinity bump supported in (center-width, center+width)."""
    t = (xs - center) / width
    out = np.zeros_like(xs)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out / np.exp(-1.0)


def random_kernel_set(grid, rng, scale=1.0):
    """Smooth random kernels on the triangle (zero above the diagonal), with
    g and the gains zero (the Volterra transforms read only the kernels)."""
    n = grid.n
    xs = grid.nodes
    X, XI = np.meshgrid(xs, xs, indexing="ij")
    tri = np.tril(np.ones((n + 1, n + 1)))

    def smooth_field():
        c = rng.uniform(-1.0, 1.0, 6)
        f = (c[0] + c[1] * X + c[2] * XI + c[3] * X * XI
             + c[4] * np.sin(3 * X) + c[5] * np.cos(2 * XI))
        return scale * f * tri

    zn = np.zeros(n + 1)
    return KernelSet(grid=grid, k11=smooth_field(), k12=smooth_field(),
                     k21=smooth_field(), k22=smooth_field(), g=zn,
                     gains=FeedbackLaw(nodes=grid.nodes, f1=zn, f2=zn))


def exact_transport(speeds, y10, y20, nodes, t):
    """Characteristic solution of the uncoupled system with zero inflow."""
    x1 = speeds.phi_inv_ext(1, np.asarray(speeds.phi_eval(1, nodes)) + t)
    s_in1 = t + np.asarray(speeds.phi_eval(1, nodes)) - speeds.T1
    y1 = np.where(s_in1 < 0.0, np.interp(np.clip(x1, 0, 1), nodes, y10), 0.0)
    x2 = speeds.phi_inv_ext(2, np.asarray(speeds.phi_eval(2, nodes)) - t)
    s_in2 = t - np.asarray(speeds.phi_eval(2, nodes))
    y2 = np.where(s_in2 < 0.0, np.interp(np.clip(x2, 0, 1), nodes, y20), 0.0)
    return y1, y2


def dense_canonical_map(speeds, g, q, t, x, trace):
    """Reference for simulator.canonical_map: the same quadrature on a dense
    trace.  trace(s) returns one row per time and one column per independent
    trace; the result is the rows [upper; lower], 2*len(x) by those columns.
    Every s-grid point of every row is evaluated, zero weights included, and
    the weighted values are multiplied by the whole trace matrix."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0] - 1
    nodes = np.linspace(0.0, 1.0, n + 1)
    K = max(2, math.ceil(t * largest_speed(speeds, nodes) / (1.0 / n)))
    delta = t / K
    ss = np.linspace(0.0, t, K + 1)
    xs = np.asarray(x, dtype=float)
    phi2x = speeds.phi_eval(2, xs)
    lo = np.maximum(0.0, t - phi2x)
    r0 = np.minimum(np.ceil(lo / delta - 1e-12).astype(np.int64), K)
    part = np.where(r0 < K, r0 * delta, t) - lo
    wlo = 0.5 * part * g[0] + q * (lo > 0.0)
    chi = speeds.phi_inv_ext(2, phi2x[:, None] + ss[None, :] - t)
    WG = np.interp(np.clip(chi, 0.0, 1.0), nodes, g)
    wq = np.where(np.arange(K + 1)[None, :] < r0[:, None], 0.0, delta)
    wq[:, K] = 0.5 * delta
    wq[np.arange(r0.shape[0]), r0] = np.where(r0 < K, 0.5 * delta, 0.0) + 0.5 * part
    lower = wlo[:, None] * trace(lo) + (WG * wq) @ trace(ss)
    return np.concatenate([trace(t + speeds.phi_eval(1, xs)), lower])
