"""Closed-form Bayes factor routes: reference values, edges, invariants.

The fixed expected values below were frozen from a high-precision decimal
evaluation of the radical form sqrt(n**df1 * (1 + f*df1/df2)**-n), which is
a different arithmetic path than the log-space implementation under test.
"""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicbf import (
    BayesFactorValue,
    DomainError,
    SummaryStat,
    bf01_from_delta_bic,
    bf01_from_f,
    bf01_from_partial_eta_sq,
    bf01_from_stat,
    bf01_from_t,
    classify,
    delta_bic_10,
    invert,
)

BF_F_2584_1_17_18 = 1.1873094946328774
BF_T_20_71_73 = 1.1557264282807283
BF_F_3061_2_294_300 = 13.631574782469988


class TestBf01FromF:
    def test_reference_value(self):
        value = bf01_from_f(2.584, 1, 17, 18)
        assert value.direction == "01"
        assert value.bf == pytest.approx(BF_F_2584_1_17_18, rel=1e-12)
        assert value.bf == pytest.approx(1.187, abs=0.0005)

    def test_df1_two_reference_value(self):
        value = bf01_from_f(3.061, 2, 294, 300)
        assert value.bf == pytest.approx(BF_F_3061_2_294_300, rel=1e-12)

    def test_zero_f_collapses_to_root_n(self):
        assert bf01_from_f(0.0, 1, 17, 18).bf == pytest.approx(math.sqrt(18), rel=1e-15)
        # the products 0.5*1*log(n) and 0.5*2*log(n) are float-exact
        assert bf01_from_f(0.0, 1, 294, 300).log_bf == 0.5 * math.log(300)
        assert bf01_from_f(0.0, 2, 294, 300).log_bf == math.log(300)

    def test_finite_where_radical_form_overflows(self):
        # (1 + f*df1/df2)**n here is around exp(2600); log space shrugs
        value = bf01_from_f(1e10, 1, 294, 300)
        assert math.isfinite(value.log_bf)
        assert value.log_bf < -2000
        assert value.bf == 0.0
        assert invert(value).bf == math.inf

    def test_rejects_out_of_domain_arguments(self):
        with pytest.raises(DomainError, match="f must"):
            bf01_from_f(-0.5, 1, 17, 18)
        with pytest.raises(DomainError, match="f must"):
            bf01_from_f(math.nan, 1, 17, 18)
        with pytest.raises(DomainError, match="df1 must"):
            bf01_from_f(1.0, 0, 17, 18)
        with pytest.raises(DomainError, match="df2 must"):
            bf01_from_f(1.0, 1, 0, 18)
        with pytest.raises(DomainError, match="n must"):
            bf01_from_f(1.0, 1, 17, 1)

    @given(
        f=st.floats(0.0, 50.0),
        bump=st.floats(0.01, 50.0),
        df1=st.integers(1, 6),
        df2=st.integers(2, 300),
        n=st.integers(2, 500),
    )
    def test_strictly_decreasing_in_f(self, f, bump, df1, df2, n):
        assert bf01_from_f(f + bump, df1, df2, n).log_bf < bf01_from_f(f, df1, df2, n).log_bf

    def test_f_whose_ratio_overflows(self):
        # F*df1/df2 = 5e308 overflows; ln(1 + 5e308) = ln 5 + 308 ln 10
        want = 2.5 * math.log(10) - 5 * (math.log(5) + 308 * math.log(10))
        assert bf01_from_f(1e308, 5, 1, 10).log_bf == pytest.approx(want, rel=1e-15)

    @given(
        f=st.floats(0.0, allow_infinity=False),
        other=st.floats(0.0, allow_infinity=False),
        df1=st.integers(1, 10**300),
        df2=st.integers(1, 10**300),
        n=st.integers(2, 10**300),
    )
    def test_finite_and_nonincreasing_over_every_double(self, f, other, df1, df2, n):
        low, high = sorted((f, other))
        at_low = bf01_from_f(low, df1, df2, n).log_bf
        at_high = bf01_from_f(high, df1, df2, n).log_bf
        assert math.isfinite(at_high)
        assert at_high <= at_low

    @pytest.mark.parametrize("df1, df2", [(2, 3), (7, 3), (3, 10**300)],
                             ids=["2-3", "7-3", "3-1e300"])
    def test_nonincreasing_where_the_ratio_starts_to_overflow(self, df1, df2):
        # F*df1 overflows a double from about max/df1 on; walk 16 doubles across
        f = sys.float_info.max / df1
        for _ in range(8):
            f = math.nextafter(f, 0.0)
        values = []
        for _ in range(16):
            values.append(bf01_from_f(f, df1, df2, 30).log_bf)
            f = math.nextafter(f, math.inf)
        assert not math.isfinite(f * df1)
        assert all(b <= a for a, b in zip(values, values[1:]))

    @given(n=st.integers(2, 10_000), df1=st.integers(1, 6))
    def test_increasing_in_n_at_zero_f(self, n, df1):
        low = bf01_from_f(0.0, df1, 10, n).log_bf
        high = bf01_from_f(0.0, df1, 10, n + 1).log_bf
        assert high > low


class TestBf01FromT:
    def test_reference_value(self):
        value = bf01_from_t(2.0, 71, 73)
        assert value.bf == pytest.approx(BF_T_20_71_73, rel=1e-12)
        assert value.bf == pytest.approx(1.16, abs=0.005)

    def test_zero_t(self):
        assert bf01_from_t(0.0, 71, 73).bf == pytest.approx(math.sqrt(73), rel=1e-15)

    def test_sign_symmetry_exact(self):
        assert bf01_from_t(-2.0, 71, 73).log_bf == bf01_from_t(2.0, 71, 73).log_bf

    def test_matches_f_route_exactly(self):
        assert bf01_from_t(1.7, 40, 42).log_bf == bf01_from_f(1.7 * 1.7, 1, 40, 42).log_bf

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            bf01_from_t(math.inf, 71, 73)
        with pytest.raises(DomainError, match="t must be finite"):
            bf01_from_t(math.nan, 71, 73)

    @pytest.mark.parametrize("t", [1e200, -1e200])
    def test_t_whose_square_overflows(self, t):
        # t**2 = 1e400 overflows, and log1p(t**2/df2) = ln(1e400/10) to
        # double precision.
        want = 0.5 * math.log(20) - 0.5 * 20 * 399 * math.log(10)
        assert bf01_from_t(t, 10, 20).log_bf == pytest.approx(want, rel=1e-15)
        stat = SummaryStat("t", t, None, 10, 20)
        assert bf01_from_stat(stat).log_bf == bf01_from_t(t, 10, 20).log_bf

    @given(
        t=st.floats(allow_nan=False, allow_infinity=False),
        df2=st.integers(1, 10**300),
        n=st.integers(2, 10**300),
    )
    def test_is_the_f_route_bitwise_over_every_double(self, t, df2, n):
        value = bf01_from_t(t, df2, n).log_bf
        assert math.isfinite(value)
        if math.isfinite(t * t):
            assert value == bf01_from_f(t * t, 1, df2, n).log_bf

    def test_continuous_where_the_square_overflows(self):
        below = math.sqrt(sys.float_info.max)
        while not math.isfinite(below * below):
            below = math.nextafter(below, 0.0)
        above = math.nextafter(below, math.inf)
        assert not math.isfinite(above * above)
        assert bf01_from_t(above, 7, 30).log_bf == pytest.approx(
            bf01_from_t(below, 7, 30).log_bf, rel=1e-14
        )

    def test_overflow_route_checks_counts(self):
        with pytest.raises(DomainError, match="df2"):
            bf01_from_t(1e200, 0, 20)
        with pytest.raises(DomainError, match="n must be"):
            bf01_from_t(1e200, 10, 1)


class TestDeltaBic:
    def test_equal_sse_leaves_only_penalty(self):
        assert delta_bic_10(5.0, 5.0, 100, 1) == math.log(100)
        assert delta_bic_10(5.0, 5.0, 100, 3) == 3 * math.log(100)

    def test_sse_route_reproduces_f_route(self):
        # SSE1/SSE0 = df2/(f*df1 + df2) for f = 2.584, df1 = 1, df2 = 17
        value = bf01_from_delta_bic(delta_bic_10(17.0, 2.584 + 17.0, 18, 1))
        assert value.bf == pytest.approx(BF_F_2584_1_17_18, rel=1e-10)

    def test_rejects_bad_sums_of_squares(self):
        with pytest.raises(DomainError, match="sse1"):
            delta_bic_10(0.0, 1.0, 10, 1)
        with pytest.raises(DomainError, match="sse0"):
            delta_bic_10(2.0, 1.0, 10, 1)
        with pytest.raises(DomainError, match="dk"):
            delta_bic_10(1.0, 2.0, 10, 0)
        with pytest.raises(DomainError, match="n"):
            delta_bic_10(1.0, 2.0, 1, 1)

    @pytest.mark.parametrize(
        "sse1, sse0, field",
        [(1.0, math.nan, "sse0"), (math.nan, 1.0, "sse1"), (math.inf, math.inf, "sse1"),
         (1.0, math.inf, "sse0")],
    )
    def test_nonfinite_sums_of_squares_rejected(self, sse1, sse0, field):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            delta_bic_10(sse1, sse0, 20, 1)

    @pytest.mark.parametrize("field", ["n", "dk"])
    def test_counts_beyond_the_double_range_rejected(self, field):
        counts = {"n": 20, "dk": 1, field: 10**400}
        with pytest.raises(DomainError, match=f"{field} must be at most"):
            delta_bic_10(1.0, 2.0, counts["n"], counts["dk"])

    def test_underflowing_quotient_stays_finite(self):
        # 1e-320 / 1e308 is 0 in doubles; the logs themselves are finite
        got = delta_bic_10(1e-320, 1e308, 20, 1)
        expected = 20 * (math.log(1e-320) - math.log(1e308)) + math.log(20)
        assert got == pytest.approx(expected, rel=1e-15)
        # monotone across the switch: a smaller sse1 never raises the value
        normal = delta_bic_10(1e-290, 1e8, 20, 1)
        assert got < normal < delta_bic_10(1.0, 1e8, 20, 1)

    def test_normal_quotient_keeps_its_bits(self):
        assert delta_bic_10(3.0, 7.0, 40, 2) == 40 * math.log(3.0 / 7.0) + 2 * math.log(40)

    def test_difference_beyond_the_double_range_rejected(self):
        with pytest.raises(DomainError, match="double range"):
            delta_bic_10(1e-300, 1.0, 10**308, 1)


class TestBf01FromDeltaBic:
    def test_zero_gives_unit_bayes_factor(self):
        value = bf01_from_delta_bic(0.0)
        assert value.log_bf == 0.0
        assert value.bf == 1.0
        assert value.direction == "01"

    def test_inverse_of_definition(self):
        assert bf01_from_delta_bic(2 * math.log(1.187)).bf == pytest.approx(1.187, rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            bf01_from_delta_bic(math.inf)


class TestBf01FromPartialEtaSq:
    def test_zero_eta_collapses_to_root_n(self):
        assert bf01_from_partial_eta_sq(0.0, 50, 1).bf == pytest.approx(
            math.sqrt(50), rel=1e-15
        )

    def test_eta_identity_reproduces_f_route(self):
        eta = 2.584 * 1 / (2.584 * 1 + 17)
        value = bf01_from_partial_eta_sq(eta, 18, 1)
        assert value.bf == pytest.approx(BF_F_2584_1_17_18, rel=1e-10)

    def test_rejects_eta_outside_unit_interval(self):
        with pytest.raises(DomainError, match="eta_p2"):
            bf01_from_partial_eta_sq(1.0, 18, 1)
        with pytest.raises(DomainError, match="eta_p2"):
            bf01_from_partial_eta_sq(-0.01, 18, 1)
        with pytest.raises(DomainError, match="eta_p2"):
            bf01_from_partial_eta_sq(math.nan, 18, 1)

    @pytest.mark.parametrize("field", ["n", "df1"])
    def test_counts_beyond_the_double_range_rejected(self, field):
        counts = {"n": 18, "df1": 1, field: 10**400}
        with pytest.raises(DomainError, match=f"{field} must be at most"):
            bf01_from_partial_eta_sq(0.1, counts["n"], counts["df1"])


class TestSummaryStat:
    def test_bf_from_stat_needs_n(self):
        stat = SummaryStat("t", 2.0, None, 71)
        with pytest.raises(DomainError, match="n"):
            bf01_from_stat(stat)
        assert bf01_from_stat(stat.replace(n=73)).bf == pytest.approx(BF_T_20_71_73, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            SummaryStat("z", 1.0, 1, 10)
        with pytest.raises(DomainError):
            SummaryStat("F", -1.0, 1, 10)
        with pytest.raises(DomainError):
            SummaryStat("F", 1.0, None, 10)
        with pytest.raises(DomainError):
            SummaryStat("t", 1.0, 2, 10)
        with pytest.raises(DomainError):
            SummaryStat("F", 1.0, 1, 10, p_reported=1.5)
        with pytest.raises(DomainError):
            SummaryStat("F", 1.0, 1, 10, n=1)

    @pytest.mark.parametrize("field", ["df1", "df2", "n"])
    def test_counts_beyond_the_double_range_rejected(self, field):
        counts = {"df1": 1, "df2": 10, "n": 20, field: 10**400}
        with pytest.raises(DomainError, match=f"^{field} must be at most 1.79769e"):
            SummaryStat("F", 1.0, **counts)
        counts[field] = int(sys.float_info.max)  # the largest count a double holds
        assert getattr(SummaryStat("F", 1.0, **counts), field) == counts[field]


class TestClassify:
    def test_weak_null_example(self):
        evidence = classify(bf01_from_f(2.584, 1, 17, 18))
        assert (evidence.favored, evidence.category) == ("H0", "weak")
        assert evidence.bf_in_favored_direction == pytest.approx(BF_F_2584_1_17_18)

    def test_unit_bayes_factor_ties_to_null(self):
        for direction in ("01", "10"):
            evidence = classify(BayesFactorValue(0.0, direction))
            assert (evidence.favored, evidence.category) == ("H0", "weak")
            assert evidence.bf_in_favored_direction == 1.0

    def test_strong_alternative_example(self):
        evidence = classify(BayesFactorValue(math.log(25.0), "10"))
        assert (evidence.favored, evidence.category) == ("H1", "strong")

    def test_direction_independence(self):
        evidence = classify(BayesFactorValue(-math.log(25.0), "10"))
        assert (evidence.favored, evidence.category) == ("H0", "strong")

    def test_boundaries_inclusive_on_the_left_category(self):
        # at exactly 3, 20, 150 the lower category still applies
        cases = [(3.0, "weak", "positive"), (20.0, "positive", "strong"),
                 (150.0, "strong", "very strong")]
        for bound, at_bound, above in cases:
            log_b = math.log(bound)
            assert classify(BayesFactorValue(log_b, "01")).category == at_bound
            just_above = math.nextafter(log_b, math.inf)
            assert classify(BayesFactorValue(just_above, "01")).category == above

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            BayesFactorValue(math.inf, "01")

    def test_saturates_where_exp_overflows(self):
        # exp overflows a double above log 709.78; the fold saturates like .bf
        for value in (BayesFactorValue(800.0, "01"), BayesFactorValue(-800.0, "10")):
            evidence = classify(value)
            assert (evidence.favored, evidence.category) == ("H0", "very strong")
            assert evidence.bf_in_favored_direction == math.inf


class TestInvert:
    def test_negates_and_flips(self):
        value = BayesFactorValue(0.171, "01")
        flipped = invert(value)
        assert flipped == BayesFactorValue(-0.171, "10")

    def test_reciprocal_of_reference_value(self):
        assert invert(bf01_from_f(2.584, 1, 17, 18)).bf == pytest.approx(
            1.0 / BF_F_2584_1_17_18, rel=1e-12
        )

    def test_in_direction(self):
        value = BayesFactorValue(0.25, "01")
        assert value.in_direction("01") == value
        assert value.in_direction("10") == BayesFactorValue(-0.25, "10")
        with pytest.raises(DomainError):
            value.in_direction("11")
