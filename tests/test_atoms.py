"""Tests for level structure: CG tables, populations, conversion schemes.

The transition-strength table is checked against an exact-rational oracle:
for the sigma+ ladder the probe/write strength ratios obey
|R_j|^2 = (4+j)/(4-j) exactly, and the paired sigma- ratio satisfies
R_j^+ R_j^- = -1.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from eitconvert import (
    CGTable,
    ConversionScheme,
    Direction,
    PopulationDistribution,
    build_cesium_d1_scheme,
    clebsch_gordan,
    coherence_mismatch,
    effective_depth_factor,
    single_lambda_scheme,
    DegenerateSchemeError,
    SchemeError,
)


class TestClebschGordan:
    """Exact generator against closed-form j2 = 1 tables."""

    def test_selection_rule_m(self):
        assert clebsch_gordan(3, 1, 1, 1, 4, 1) == 0.0

    def test_triangle_rule(self):
        assert clebsch_gordan(3, 0, 1, 0, 5, 0) == 0.0

    def test_invalid_projection_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan(3, 4, 1, 0, 4, 4)

    def test_against_closed_form_j2_is_1(self):
        """<j1 m 1 q | j1+1 m+q> closed forms, j1 = 3."""
        j1 = 3
        for m in range(-3, 4):
            # q = +1
            expect = math.sqrt((j1 + m + 1) * (j1 + m + 2)
                               / ((2 * j1 + 1) * (2 * j1 + 2)))
            got = clebsch_gordan(j1, m, 1, 1, j1 + 1, m + 1)
            assert abs(got - expect) < 1e-14, (m, got, expect)
            # q = 0
            expect0 = math.sqrt((j1 - m + 1) * (j1 + m + 1)
                                / ((2 * j1 + 1) * (j1 + 1)))
            got0 = clebsch_gordan(j1, m, 1, 0, j1 + 1, m)
            assert abs(got0 - expect0) < 1e-14

    def test_same_f_pi_closed_form(self):
        """<3 m 1 0 | 3 m> = m / sqrt(12)."""
        for m in range(-3, 4):
            got = clebsch_gordan(3, m, 1, 0, 3, m)
            assert abs(got - m / math.sqrt(12)) < 1e-14

    def test_half_integer(self):
        # singlet from two spin-1/2
        got = clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0)
        assert abs(got - 1 / math.sqrt(2)) < 1e-15

    def test_completeness(self):
        """Sum over final F of CG^2 equals 1 for fixed projections."""
        for m in range(-3, 4):
            total = sum(clebsch_gordan(3, m, 1, 1, F, m + 1) ** 2
                        for F in (2, 3, 4) if abs(m + 1) <= F)
            assert abs(total - 1.0) < 1e-12


class TestCGTable:
    def setup_method(self):
        self.tab = CGTable.cesium_d1()

    def test_ratio_squares_exact_rational(self):
        for i, j in enumerate(range(-3, 4)):
            expect = Fraction(4 + j, 4 - j)
            assert abs(self.tab.r_plus[i] ** 2 - float(expect)) < 1e-12

    def test_ratio_signs(self):
        assert np.all(self.tab.r_plus < 0)
        assert np.all(self.tab.r_minus > 0)

    def test_ratio_product_is_minus_one(self):
        np.testing.assert_allclose(self.tab.r_plus * self.tab.r_minus,
                                   -1.0, rtol=1e-12)

    def test_edge_normalization(self):
        """Strongest sigma+ line (j = 3) normalized to unit strength."""
        assert self.tab.a_plus[-1] == pytest.approx(1.0, abs=1e-12)

    def test_mirror_symmetry(self):
        np.testing.assert_allclose(self.tab.a_minus, self.tab.a_plus[::-1],
                                   rtol=1e-12)

    def test_ratio_mirror_symmetry(self):
        """|R_{-j}^-| = |R_j^+|."""
        diff = np.abs(self.tab.r_minus[::-1]) - np.abs(self.tab.r_plus)
        assert np.max(np.abs(diff)) <= 1e-12

    def test_ratios_match_generator(self):
        """a_p / CG(4,m,1,q,4,m+q) of the F=4 -> F'=4 control is the table
        ratio times one global constant, sqrt(5/7), for every m and both
        polarizations."""
        for q, a_p, ratio in ((+1, self.tab.a_plus, self.tab.r_plus),
                              (-1, self.tab.a_minus, self.tab.r_minus)):
            for m, a_m, r_m in zip(self.tab.j.tolist(), a_p, ratio):
                a_ctrl = clebsch_gordan(4, m, 1, q, 4, m + q)
                assert abs(a_m / a_ctrl / r_m - math.sqrt(5.0 / 7.0)) <= 1e-12

    def test_built_once_and_read_only(self):
        assert CGTable.cesium_d1() is self.tab
        for arr in (self.tab.j, self.tab.a_plus, self.tab.a_minus,
                    self.tab.r_plus, self.tab.r_minus):
            assert not arr.flags.writeable

    def test_strength_values_exact(self):
        # a_plus,j^2 = (4+j)(5+j)/56 in the unit-peak normalization
        for i, j in enumerate(range(-3, 4)):
            expect = Fraction((4 + j) * (5 + j), 56)
            assert abs(self.tab.a_plus[i] ** 2 - float(expect)) < 1e-12


class TestDirection:
    def test_parse_aliases(self):
        assert Direction.parse("plus_to_minus") is Direction.PLUS_TO_MINUS
        assert Direction.parse("sigma+->sigma-") is Direction.PLUS_TO_MINUS
        assert Direction.parse("-+") is Direction.MINUS_TO_PLUS

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            Direction.parse("left_to_right")


class TestPopulationDistribution:
    def test_isotropic(self):
        pop = PopulationDistribution.isotropic()
        np.testing.assert_allclose(pop.p, 1.0 / 7.0)
        assert pop.is_symmetric()
        assert pop.mean_m() == pytest.approx(0.0, abs=1e-15)

    def test_single_state(self):
        pop = PopulationDistribution.single_state(3)
        assert pop.p[-1] == 1.0
        assert pop.mean_m() == pytest.approx(3.0)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            PopulationDistribution(p=np.ones(6) / 6.0)

    def test_rejects_negative(self):
        p = np.array([-0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2])
        with pytest.raises(ValueError):
            PopulationDistribution(p=p)

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf):
            p = np.array([bad, 0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
            with pytest.raises(SchemeError, match="finite"):
                PopulationDistribution(p=p)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PopulationDistribution(p=np.full(7, 0.2))

    def test_tiny_negative_clipped(self):
        p = np.array([-1e-14, 0.25, 0.25, 0.25, 0.25, 0, 0])
        pop = PopulationDistribution(p=p)
        assert pop.p[0] == 0.0
        assert pop.p.sum() == pytest.approx(1.0, abs=1e-12)


class TestConversionScheme:
    def test_spec_ratios_at_edge(self):
        """Weakest probe line pairs with the strongest converted line."""
        sch = build_cesium_d1_scheme(Direction.PLUS_TO_MINUS,
                                     PopulationDistribution.isotropic(),
                                     alpha_p=500.0, alpha_c=500.0)
        assert sch.R_p[0] == pytest.approx(-math.sqrt(1.0 / 7.0), rel=1e-12)
        assert sch.R_c[0] == pytest.approx(math.sqrt(7.0), rel=1e-12)

    def test_direction_swap_mirrors_tables(self):
        pop = PopulationDistribution.isotropic()
        a = build_cesium_d1_scheme(Direction.PLUS_TO_MINUS, pop, 500.0, 500.0)
        b = build_cesium_d1_scheme(Direction.MINUS_TO_PLUS, pop, 500.0, 500.0)
        np.testing.assert_allclose(np.abs(a.a_p), np.abs(b.a_p[::-1]), rtol=1e-12)
        np.testing.assert_allclose(np.abs(a.R_p), np.abs(b.R_p[::-1]), rtol=1e-12)

    def test_original_readout_mirrors_write(self):
        sch = build_cesium_d1_scheme("plus_to_minus",
                                     PopulationDistribution.isotropic(),
                                     alpha_p=500.0, alpha_c=300.0)
        orig = sch.with_original_readout()
        np.testing.assert_array_equal(orig.a_c, sch.a_p)
        np.testing.assert_array_equal(orig.a_r, sch.a_w)
        assert orig.alpha_c == sch.alpha_p
        assert orig.Gamma_r == 1.0
        assert coherence_mismatch(orig) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["write", "read"])
    def test_channel_constants(self, name):
        """Each channel carries its own depth, linewidth and CG arrays,
        with sums and |a_ctrl| extremes over populated subsystems only."""
        # only m = -2 and m = +2 populated: both channels' largest and
        # smallest control CGs sit on empty subsystems
        pop = PopulationDistribution(p=np.array([0, 0.4, 0, 0, 0, 0.6, 0]))
        sch = build_cesium_d1_scheme("plus_to_minus", pop, alpha_p=500.0,
                                     alpha_c=300.0, Gamma_r=1.7)
        alpha, Gamma, R, a, a_ctrl = {
            "write": (500.0, 1.0, sch.R_p, sch.a_p, sch.a_w),
            "read": (300.0, 1.7, sch.R_c, sch.a_c, sch.a_r)}[name]
        ch = sch.channel(name)
        mask = sch.p > 0
        assert (ch.alpha, ch.Gamma) == (alpha, Gamma)
        np.testing.assert_array_equal(ch.R, R)
        np.testing.assert_array_equal(ch.a_ctrl, a_ctrl)
        p, Rm = sch.p[mask], R[mask]
        assert ch.S2 == pytest.approx(math.fsum(p * Rm**2), rel=1e-15)
        assert ch.S4 == pytest.approx(math.fsum(p * Rm**4 / a[mask]**2),
                                      rel=1e-15)
        assert ch.a_ctrl_min == np.abs(a_ctrl[mask]).min()
        assert ch.a_ctrl_max == np.abs(a_ctrl[mask]).max()
        assert np.abs(a_ctrl).min() < ch.a_ctrl_min
        assert ch.a_ctrl_max < np.abs(a_ctrl).max()

    def test_unknown_channel_rejected(self):
        with pytest.raises(SchemeError, match="write.*read"):
            single_lambda_scheme(500.0, 500.0).channel("probe")

    def test_energy_unit_ratio(self):
        sch = single_lambda_scheme(500.0, 200.0, Gamma_r=2.0)
        assert sch.energy_unit_ratio == pytest.approx(500.0 / 400.0, rel=1e-15)

    def test_arrays_read_only(self):
        sch = single_lambda_scheme(500.0, 500.0)
        with pytest.raises(ValueError):
            sch.p[0] = 0.5

    def test_rejects_unpopulated_control(self):
        # populated subsystem with a vanishing write-control coupling
        with pytest.raises(ValueError):
            ConversionScheme(
                p=np.array([1.0]),
                a_p=np.array([1.0]), a_w=np.array([0.0]),
                a_c=np.array([1.0]), a_r=np.array([1.0]),
                alpha_p=100.0, alpha_c=100.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ConversionScheme(
                p=np.array([0.5, 0.5]),
                a_p=np.array([1.0]), a_w=np.array([1.0]),
                a_c=np.array([1.0]), a_r=np.array([1.0]),
                alpha_p=100.0, alpha_c=100.0)


class TestChannelSums:
    def test_isotropic_effective_depth(self):
        sch = build_cesium_d1_scheme("plus_to_minus",
                                     PopulationDistribution.isotropic(),
                                     alpha_p=500.0, alpha_c=500.0)
        # sum_j p_j a_j^2 = (1/7) sum (4+j)(5+j)/56 = 3/7 for the sigma+ comb
        assert effective_depth_factor(sch, "probe") == pytest.approx(3.0 / 7.0,
                                                                     rel=1e-12)
        assert effective_depth_factor(sch, "converted") == pytest.approx(
            3.0 / 7.0, rel=1e-12)

    def test_isotropic_mismatch_exact_rational(self):
        """Cauchy-Schwarz deficit of the isotropic distribution.

        With r_j^2 = (4+j)/(4-j) and R^p R^c = -1 the three sums are exact
        rationals; the oracle is evaluated in Fraction arithmetic.
        """
        num = Fraction(0)
        den_p = Fraction(0)
        den_c = Fraction(0)
        for j in range(-3, 4):
            rp2 = Fraction(4 + j, 4 - j)
            num += Fraction(1, 7)          # |R_p R_c| = 1 per subsystem
            den_p += Fraction(1, 7) * rp2
            den_c += Fraction(1, 7) / rp2
        oracle = float(num * num / (den_p * den_c))
        sch = build_cesium_d1_scheme("plus_to_minus",
                                     PopulationDistribution.isotropic(),
                                     alpha_p=500.0, alpha_c=500.0)
        assert abs(coherence_mismatch(sch) - oracle) < 1e-12
        assert oracle == pytest.approx(float(Fraction(245, 481) ** 2), abs=1e-15)

    def test_single_state_mismatch_is_one(self):
        for m in range(-3, 4):
            sch = build_cesium_d1_scheme("plus_to_minus",
                                         PopulationDistribution.single_state(m),
                                         alpha_p=500.0, alpha_c=500.0)
            assert coherence_mismatch(sch) == pytest.approx(1.0, abs=1e-12)

    def test_mismatch_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            p = rng.random(7)
            pop = PopulationDistribution(p=p / p.sum())
            sch = build_cesium_d1_scheme("plus_to_minus", pop, 500.0, 500.0)
            xi2 = coherence_mismatch(sch)
            assert 0.0 < xi2 <= 1.0 + 1e-12

    def test_channel_constants_computed_once(self, monkeypatch):
        sch = build_cesium_d1_scheme("plus_to_minus",
                                     PopulationDistribution.isotropic(),
                                     alpha_p=500.0, alpha_c=300.0)
        first = sch.channel("read")
        sums = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda x: sums.append(1) or fsum(x))
        assert sch.channel("read") is first
        assert sch.R_c is first.R and not first.R.flags.writeable
        assert not first.a_ctrl.flags.writeable
        assert sch.channel("write").S2 > 0
        assert len(sums) == 2           # the write channel's first call only
        sch.channel("write")
        assert len(sums) == 2
        with pytest.raises(SchemeError):
            sch.channel("probe")

    def test_companion_read_channel_is_the_write_channel(self):
        pop = PopulationDistribution(
            p=np.array([0.3, 0, 0.1, 0.2, 0, 0.1, 0.3]))
        sch = build_cesium_d1_scheme("plus_to_minus", pop, 500.0, 300.0,
                                     Gamma_r=1.7)
        write = sch.channel("write")
        read = sch.with_original_readout().channel("read")
        assert read is not write
        for key in ("alpha", "Gamma", "S2", "S4", "a_ctrl_min", "a_ctrl_max"):
            assert getattr(read, key) == getattr(write, key), key
        assert np.array_equal(read.R, write.R)
        assert np.array_equal(read.a_ctrl, write.a_ctrl)
        assert sch.channel("read").Gamma == 1.7

    def test_degenerate_scheme_raises(self):
        sch = ConversionScheme(
            p=np.array([1.0]),
            a_p=np.array([1.0]), a_w=np.array([1.0]),
            a_c=np.array([0.0]), a_r=np.array([1.0]),
            alpha_p=100.0, alpha_c=100.0)
        with pytest.raises(DegenerateSchemeError):
            coherence_mismatch(sch)
