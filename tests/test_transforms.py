import numpy as np
import pytest

from hypmin import (CoefficientSpec, FeedbackLaw, Grid, KernelSet, SpeedPair, diag_removal,
                    vanishing_prefix, volterra_apply, volterra_invert)
from hypmin.errors import DomainError, GridMismatchError

from conftest import const, random_kernel_set


def zero_kernel_set(grid):
    z = np.zeros((grid.n + 1, grid.n + 1))
    zn = np.zeros(grid.n + 1)
    return KernelSet(grid=grid, k11=z, k12=z.copy(), k21=z.copy(), k22=z.copy(), g=zn,
                     gains=FeedbackLaw(nodes=grid.nodes, f1=zn, f2=zn))


class TestDiagRemoval:
    def test_trivial_gauge(self, unit_speeds):
        grid = Grid.uniform(50)
        b = CoefficientSpec.polynomial([1.0, 1.0])
        c = CoefficientSpec.step(0.3, 0.0, 2.0)
        gauge = diag_removal(const(0.0), b, c, const(0.0), unit_speeds, grid)
        assert np.allclose(gauge.e1, 1.0)
        assert np.allclose(gauge.e2, 1.0)
        assert np.allclose(gauge.bt, b(grid.nodes))
        assert np.allclose(gauge.ct, c(grid.nodes))

    @pytest.mark.parametrize("b", [0.0, -0.0])
    def test_zero_b_is_positive_zero(self, unit_speeds, b):
        # b = -0.0 is b = 0: the kernel solves see the same +0.0 bt either way
        grid = Grid.uniform(20)
        gauge = diag_removal(const(0.5), const(b), const(1.0), const(-0.3), unit_speeds, grid)
        assert not gauge.bt.any() and not np.signbit(gauge.bt).any()

    def test_exponential_weight(self, unit_speeds):
        grid = Grid.uniform(400)
        gauge = diag_removal(const(1.0), const(0.0), const(0.0), const(0.0),
                             unit_speeds, grid)
        assert np.allclose(gauge.e1, np.exp(grid.nodes), atol=1e-5)

    def test_positivity(self, varying_speeds):
        grid = Grid.uniform(100)
        gauge = diag_removal(const(2.0), const(1.0), const(1.0), const(-3.0),
                             varying_speeds, grid)
        assert gauge.e1.min() > 0.0
        assert gauge.e2.min() > 0.0

    @pytest.mark.parametrize("kind", ["constant", "polynomial", "step", "sampled"])
    def test_holds_its_speeds(self, kind):
        # the kernel solves read the speeds and their node values from the
        # gauge: the pair passed in, and lambda_i at the nodes, bit for bit
        xs = np.linspace(0.0, 1.0, 7)
        l1, l2 = {"constant": (const(-0.7), const(1.3)),
                  "polynomial": (CoefficientSpec.polynomial([-1.0, -0.5, 0.3]),
                                 CoefficientSpec.polynomial([1.0, 1.0, -0.4])),
                  "step": (CoefficientSpec.step(0.4, -1.0, -2.0),
                           CoefficientSpec.step(0.6, 1.5, 0.8)),
                  "sampled": (CoefficientSpec.sampled(xs, -1.0 - np.sin(3.0 * xs)),
                              CoefficientSpec.sampled(xs, 1.0 + xs ** 2 / 3.0))}[kind]
        speeds = SpeedPair.build(l1, l2)
        grid = Grid.uniform(37)
        gauge = diag_removal(const(0.3), const(0.2), const(0.5), const(0.1), speeds, grid)
        assert gauge.speeds is speeds
        assert gauge.lam.shape == (2, grid.n + 1)
        for i in (1, 2):
            want = np.asarray(speeds.speed(i, grid.nodes), dtype=float)
            assert gauge.lam[i - 1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("a, d, name", [
        (1136.0, 0.0, "a"),       # e1 = exp(1136 x) overflows
        (-1136.0, 0.0, "a"),      # e1 = exp(-1136 x) underflows to 0
        (0.0, -1136.0, "d"),
        (0.0, 1136.0, "d"),
    ], ids=["a-overflow", "a-underflow", "d-overflow", "d-underflow"])
    def test_weight_out_of_range(self, unit_speeds, recwarn, a, d, name):
        grid = Grid.uniform(16)
        with pytest.raises(DomainError, match=f"coefficient {name} is too large"):
            diag_removal(const(a), const(1.0), const(1.0), const(d), unit_speeds, grid)
        assert len(recwarn) == 0

    def test_gauged_coupling_overflow(self, unit_speeds, recwarn):
        # e1 = exp(700 x) and e2 = exp(-700 x) are finite, but e1/e2 is not
        grid = Grid.uniform(16)
        with pytest.raises(DomainError, match="coefficient b is too large against"):
            diag_removal(const(700.0), const(1.0), const(0.0), const(700.0),
                         unit_speeds, grid)
        assert len(recwarn) == 0

    @pytest.mark.parametrize("eps", [0.3, 0.5, 1.0])
    def test_prefix_preserved(self, unit_speeds, eps):
        grid = Grid.uniform(200)
        c = CoefficientSpec.step(0.25, 0.0, 1.0)
        gauge = diag_removal(const(0.7), const(0.2), c, const(-0.4),
                             unit_speeds, grid)
        ct_spec = CoefficientSpec.sampled(grid.nodes, gauge.ct)
        want = vanishing_prefix(c, eps, 1e-12, grid)
        got = vanishing_prefix(ct_spec, eps, 1e-12, grid)
        assert got == want == pytest.approx(min(0.25, eps), abs=grid.h)


class TestVolterra:
    def test_zero_kernel_identity(self):
        grid = Grid.uniform(40)
        K = zero_kernel_set(grid)
        y1 = np.sin(grid.nodes)
        y2 = grid.nodes ** 2
        h1, h2 = volterra_apply(K, y1, y2)
        assert np.allclose(h1, y1) and np.allclose(h2, y2)
        b1, b2 = volterra_invert(K, y1, y2)
        assert np.allclose(b1, y1) and np.allclose(b2, y2)

    def test_constant_k11_integrates_x(self):
        grid = Grid.uniform(80)
        K = zero_kernel_set(grid)
        K.k11[:, :] = np.tril(np.ones((grid.n + 1, grid.n + 1)))
        ones = np.ones(grid.n + 1)
        zeros = np.zeros(grid.n + 1)
        h1, h2 = volterra_apply(K, ones, zeros)
        assert np.allclose(h1, 1.0 - grid.nodes, atol=1e-14)
        assert np.allclose(h2, 0.0)

    def test_invert_worked_example(self):
        grid = Grid.uniform(80)
        K = zero_kernel_set(grid)
        K.k11[:, :] = np.tril(np.ones((grid.n + 1, grid.n + 1)))
        y1, y2 = volterra_invert(K, 1.0 - grid.nodes, np.zeros(grid.n + 1))
        assert np.allclose(y1, 1.0, atol=1e-12)

    def test_value_at_origin_unchanged(self):
        grid = Grid.uniform(30)
        rng = np.random.default_rng(3)
        K = random_kernel_set(grid, rng)
        y1 = np.cos(grid.nodes)
        y2 = np.exp(grid.nodes)
        h1, h2 = volterra_apply(K, y1, y2)
        assert h1[0] == y1[0]
        assert h2[0] == y2[0]

    def test_roundtrip_random(self):
        grid = Grid.uniform(100)
        rng = np.random.default_rng(7)
        for _ in range(5):
            K = random_kernel_set(grid, rng)
            y1 = np.sin(2 * np.pi * grid.nodes) + 0.3
            y2 = np.cos(np.pi * grid.nodes)
            h = volterra_apply(K, y1, y2)
            b1, b2 = volterra_invert(K, *h)
            assert np.max(np.abs(b1 - y1)) <= 1e-8
            assert np.max(np.abs(b2 - y2)) <= 1e-8
            r1, r2 = volterra_apply(K, *volterra_invert(K, y1, y2))
            assert np.max(np.abs(r1 - y1)) <= 1e-8
            assert np.max(np.abs(r2 - y2)) <= 1e-8

    def test_grid_mismatch(self):
        grid = Grid.uniform(20)
        K = zero_kernel_set(grid)
        with pytest.raises(GridMismatchError):
            volterra_apply(K, np.zeros(5), np.zeros(5))
        with pytest.raises(GridMismatchError):
            volterra_invert(K, np.zeros(21), np.zeros(20))
