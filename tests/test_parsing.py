"""Reported-statistic parser: grammar coverage, positions, round trips."""

import numpy as np
import pytest

from bicbf import DomainError, ParseError, parse_stat, render_stat
from bicbf.summary import SummaryStat


class TestGrammar:
    def test_f_report_with_p(self):
        report = parse_stat("F(1,17)=2.584, p=0.126", n=18)
        stat = report.stat
        assert (stat.kind, stat.statistic, stat.df1, stat.df2, stat.n) == (
            "F", 2.584, 1, 17, 18,
        )
        assert stat.p_reported == 0.126
        assert len(report.warnings) == 1
        assert "p=0.126" in report.warnings[0]

    def test_t_report(self):
        report = parse_stat("t(71)=2.0", n=73)
        stat = report.stat
        assert (stat.kind, stat.statistic, stat.df1, stat.df2, stat.n) == (
            "t", 2.0, None, 71, 73,
        )
        assert report.warnings == ()

    def test_n_clause_in_text(self):
        report = parse_stat("t(71)=2.0, n=73")
        assert report.stat.n == 73
        assert report.warnings == ()

    def test_p_and_n_clauses_together(self):
        report = parse_stat("F(2,28)=3.5, p<0.05, n=30")
        assert report.stat.n == 30
        assert report.stat.p_reported == 0.05
        assert "p<0.05" in report.warnings[0]

    def test_case_and_whitespace_tolerance(self):
        report = parse_stat("  f ( 1 , 17 ) = 2.584 , P < .05 , N = 18 ")
        stat = report.stat
        assert (stat.kind, stat.df1, stat.df2, stat.statistic, stat.n) == (
            "F", 1, 17, 2.584, 18,
        )
        assert "p<.05" in report.warnings[0]

    def test_negative_t_and_exponent_notation(self):
        assert parse_stat("t(30)=-2.5", n=32).stat.statistic == -2.5
        assert parse_stat("F(1,10)=1.2e1", n=12).stat.statistic == 12.0

    def test_argument_n_overrides_text_n_with_warning(self):
        report = parse_stat("F(1,10)=2.5, n=11", n=12)
        assert report.stat.n == 12
        assert any("overrides" in w for w in report.warnings)

    def test_matching_argument_and_text_n_is_silent(self):
        report = parse_stat("F(1,10)=2.5, n=12", n=12)
        assert report.stat.n == 12
        assert report.warnings == ()

    def test_the_override_warning_compares_the_checked_n(self):
        assert parse_stat("F(1,10)=2.5, n=12", n=np.int64(12)).warnings == ()
        report = parse_stat("F(1,10)=2.5, n=12", n=np.int64(11))
        assert type(report.stat.n) is int
        assert report.warnings == ("n=11 argument overrides n=12 from text",)

    def test_missing_n_warns_and_leaves_none(self):
        report = parse_stat("t(5)=1.0")
        assert report.stat.n is None
        assert any("sample size" in w for w in report.warnings)

    def test_exact_decimal_capture(self):
        text = "F(1,17)=2.5840000000000001"
        assert parse_stat(text).stat.statistic == float("2.5840000000000001")


class TestErrors:
    @pytest.mark.parametrize(
        "text, position",
        [
            ("", 0),
            ("x(1,2)=3", 0),
            ("F 1,2)=3", 2),       # expected '('
            ("F(1,2=3", 5),        # expected ')'
            ("F(1,2)3", 6),        # expected '='
            ("F(1,17)=abc", 8),    # expected statistic value
            ("F(1,17)=2.5 junk", 12),
            ("t(5)=1.2, p~0.9", 11),
            ("t(5)=1.2, q=3", 10),  # expected 'p' or 'n' clause
        ],
    )
    def test_positions(self, text, position):
        with pytest.raises(ParseError) as excinfo:
            parse_stat(text)
        assert excinfo.value.position == position
        assert f"position {position}" in str(excinfo.value)

    def test_fractional_df_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse_stat("F(1.5,17)=2.0")
        with pytest.raises(ParseError, match="integer"):
            parse_stat("t(70.97)=2.0")

    @pytest.mark.parametrize(
        "text, position",
        [("F(1," + "9" * 400 + ")=1", 4), ("t(1e400)=1", 2), ("F(1,10)=1, n=2e308", 13)],
        ids=["df2-digits", "df-exponent", "n-exponent"],
    )
    def test_count_beyond_the_double_range(self, text, position):
        with pytest.raises(ParseError, match="must be at most 1.79769e") as excinfo:
            parse_stat(text)
        assert excinfo.value.position == position

    def test_df_within_tolerance_accepted(self):
        assert parse_stat("F(2.0000000001,17)=2.0").stat.df1 == 2
        assert parse_stat("F(2.0,17)=2.0").stat.df1 == 2

    def test_negative_f_is_a_domain_error(self):
        with pytest.raises(DomainError):
            parse_stat("F(1,17)=-2.0")


class TestRender:
    def test_canonical_form(self):
        report = parse_stat("  f(1, 17) = 2.584 , p = 0.126 , n = 18")
        assert render_stat(report.stat) == "F(1,17)=2.584, p=0.126, n=18"

    def test_round_trip_identity(self):
        for text in (
            "F(1,17)=2.584, p=0.126, n=18",
            "t(71)=2.0",
            "t(3)=-0.25, n=5",
            "F(4,100)=1e-3, p<0.9999, n=105",
        ):
            stat = parse_stat(text).stat
            again = parse_stat(render_stat(stat)).stat
            assert again == stat

    def test_render_omits_absent_fields(self):
        assert render_stat(SummaryStat("t", 2.0, None, 71)) == "t(71)=2.0"
