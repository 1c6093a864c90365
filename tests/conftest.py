import numpy as np
import pytest

from hypmin import CoefficientSpec, KernelSet, SpeedPair, SystemSpec


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
    """Smooth random kernels on the triangle (zero above the diagonal)."""
    n = grid.n
    xs = grid.nodes
    X, XI = np.meshgrid(xs, xs, indexing="ij")
    tri = np.tril(np.ones((n + 1, n + 1)))

    def smooth_field():
        c = rng.uniform(-1.0, 1.0, 6)
        f = (c[0] + c[1] * X + c[2] * XI + c[3] * X * XI
             + c[4] * np.sin(3 * X) + c[5] * np.cos(2 * XI))
        return scale * f * tri

    return KernelSet(grid=grid, k11=smooth_field(), k12=smooth_field(),
                     k21=smooth_field(), k22=smooth_field())


def exact_transport(speeds, y10, y20, nodes, t):
    """Characteristic solution of the uncoupled system with zero inflow."""
    x1 = speeds.phi_inv_ext(1, np.asarray(speeds.phi_eval(1, nodes)) + t)
    s_in1 = t + np.asarray(speeds.phi_eval(1, nodes)) - speeds.T1
    y1 = np.where(s_in1 < 0.0, np.interp(np.clip(x1, 0, 1), nodes, y10), 0.0)
    x2 = speeds.phi_inv_ext(2, np.asarray(speeds.phi_eval(2, nodes)) - t)
    s_in2 = t - np.asarray(speeds.phi_eval(2, nodes))
    y2 = np.where(s_in2 < 0.0, np.interp(np.clip(x2, 0, 1), nodes, y20), 0.0)
    return y1, y2
