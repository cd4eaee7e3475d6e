"""One rule for a real number, at every site that takes one from outside.

A real number is what ``math.isfinite`` takes (an int, a float, a numpy
integer or floating scalar, a Decimal, a Fraction) other than a bool,
numpy's included, and it is kept as a Python float.  Each refusal is a
``DomainError`` that starts with the field's name and chains no other
exception.  Each site keeps its own finiteness and range checks.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bicbf import (
    AnovaTable,
    BayesFactorValue,
    DomainError,
    GPriorSpec,
    RecordTable,
    SimulationConfig,
    SummaryStat,
    bf01_from_delta_bic,
    bf01_from_f,
    bf01_from_partial_eta_sq,
    bf01_from_t,
    bic_bf_for_effect,
    delta_bic_10,
    emit_density_data,
    parse_stat,
    render_stat,
)

_RECORDS = RecordTable(np.repeat(np.arange(4), 3), np.tile(np.arange(3), 4),
                       np.arange(12.0), np.arange(12.0) ** 2)


def _table_with(field, value):
    """A 2x3 table with its sum ``field`` set to ``value``."""
    sums = {"ss_effects[0]": 1.0, "ss_effects[1]": 2.0, "ss_effects[2]": 3.0,
            "ss_error": 4.0, "ss_total": 10.0, field: value}
    effects = [sums[f"ss_effects[{i}]"] for i in range(3)]
    return AnovaTable((2, 3), 3, effects, sums["ss_error"], sums["ss_total"])


def _table_sum(table, field):
    if field.startswith("ss_effects"):
        return table.ss_effects[int(field[-2])]
    return getattr(table, field)


# site -> (field, build from the value, read the float it keeps or gives,
#          a valid value exact in float32, whether None is a valid value)
SITES = {
    "SummaryStat-F": ("f", lambda v: SummaryStat("F", v, 1, 17, 18),
                      lambda s: s.statistic, 2.5, False),
    "SummaryStat-t": ("t", lambda v: SummaryStat("t", v, None, 17, 18),
                      lambda s: s.statistic, -2.5, False),
    "SummaryStat-p": ("p_reported", lambda v: SummaryStat("F", 2.0, 1, 17, 18, v),
                      lambda s: s.p_reported, 0.25, True),
    "bf01_from_f": ("f", lambda v: bf01_from_f(v, 1, 17, 18), lambda b: b.log_bf, 2.5, False),
    "bf01_from_t": ("t", lambda v: bf01_from_t(v, 17, 18), lambda b: b.log_bf, 2.5, False),
    "delta_bic_10-sse1": ("sse1", lambda v: delta_bic_10(v, 2.0, 20, 1), float, 0.5, False),
    "delta_bic_10-sse0": ("sse0", lambda v: delta_bic_10(0.5, v, 20, 1), float, 2.0, False),
    "bf01_from_delta_bic": ("delta_bic_10", bf01_from_delta_bic, lambda b: b.log_bf, 2.5, False),
    "bf01_from_partial_eta_sq": ("eta_p2", lambda v: bf01_from_partial_eta_sq(v, 18, 1),
                                 lambda b: b.log_bf, 0.25, False),
    "BayesFactorValue": ("log_bf", lambda v: BayesFactorValue(v, "01"), lambda b: b.log_bf,
                         2.5, False),
    "SimulationConfig": ("g", lambda v: SimulationConfig(cell_n=3, g=v, trials=2, seed=1),
                         lambda c: c.g, 0.25, False),
    "GPriorSpec": ("scale", lambda v: GPriorSpec(scale=v), lambda s: s.scale, 0.5, False),
    **{f"AnovaTable-{field}": (field, lambda v, field=field: _table_with(field, v),
                               lambda t, field=field: _table_sum(t, field), 2.0, False)
       for field in ("ss_effects[0]", "ss_effects[1]", "ss_effects[2]", "ss_error",
                     "ss_total")},
    "emit_density_data": ("bandwidth", lambda v: emit_density_data(_RECORDS, bandwidth=v),
                          lambda series: series[0].bandwidth, 0.5, True),
}

_NOT_REAL = {"True": True, "np.True_": np.True_, "np.False_": np.False_, "str": "2",
             "None": None, "complex": 1j, "np.complex128": np.complex128(2.0)}
_TOO_LARGE = {"int": 10**400, "negative-int": -(10**400), "Decimal": Decimal("1e400"),
              "Fraction": Fraction(10**400, 3)}
_REALS = {"np.float32": np.float32, "np.float64": np.float64, "Decimal": Decimal,
          "Fraction": Fraction}


def _cases(values):
    for site, (_, _, _, _, none_ok) in SITES.items():
        for label, value in values.items():
            if not (label == "None" and none_ok):
                yield pytest.param(site, value, id=f"{site}-{label}")


def _refusal(site, value) -> str:
    _, build, _, _, _ = SITES[site]
    with pytest.raises(DomainError) as caught:
        build(value)
    assert caught.value.__context__ is None and caught.value.__cause__ is None
    return str(caught.value)


@pytest.mark.parametrize("site, value", _cases(_NOT_REAL))
def test_a_value_that_is_not_a_real_number_is_a_domain_error(site, value):
    # a numpy bool was read as 0 or 1; a str raised a bare TypeError at some sites
    assert _refusal(site, value).startswith(f"{SITES[site][0]} must be a real number, got ")


@pytest.mark.parametrize("site, value", _cases(_TOO_LARGE))
def test_a_value_beyond_the_double_range_is_a_domain_error(site, value):
    assert _refusal(site, value) == f"{SITES[site][0]} must be at most 1.79769e+308 in magnitude"


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("kind", _REALS)
def test_a_real_number_of_any_type_is_kept_as_the_float(site, kind):
    # an np.float32 statistic was computed in float32; a Decimal g was refused
    _, build, read, value, _ = SITES[site]
    convert = _REALS[kind]
    got, want = read(build(convert(value))), read(build(value))
    assert type(got) is float and got.hex() == want.hex()


@pytest.mark.parametrize("site", ["SimulationConfig", "AnovaTable-ss_total", "bf01_from_f"])
def test_an_integer_is_kept_as_the_float(site):
    _, build, read, _, _ = SITES[site]
    for value in (2, np.int64(2)):
        got = read(build(value))
        assert type(got) is float and got.hex() == read(build(2.0)).hex()


@pytest.mark.parametrize(
    "stat",
    [SummaryStat("F", np.float64(2.584), 1, 17, 18, np.float64(0.126)),
     SummaryStat("F", Decimal("2.584"), 1, 17, 18, Decimal("0.126")),
     SummaryStat("t", np.float32(-2.0), None, 71, 73, Fraction(1, 20))],
    ids=["np.float64", "Decimal", "np.float32-Fraction"],
)
def test_a_stat_of_any_real_type_renders_text_that_parses_back(stat):
    # render_stat wrote F(1,17)=np.float64(2.584), which parse_stat refuses
    assert parse_stat(render_stat(stat)).stat == stat


def test_a_float32_statistic_is_computed_in_double():
    want = bf01_from_f(2.5, 1, 17, 18).log_bf
    assert bf01_from_f(np.float32(2.5), 1, 17, 18).log_bf.hex() == want.hex()


class TestTableSums:
    def test_a_table_needs_one_sum_per_term(self):
        # two sums for three terms raised a bare IndexError at the AB term
        with pytest.raises(DomainError, match=r"^ss_effects must be 3 sums, one per term of "
                                              r"\('A', 'B', 'AB'\), got \(1\.0, 2\.0\)$"):
            AnovaTable((2, 3), 3, (1.0, 2.0), 4.0, 10.0)

    @pytest.mark.parametrize("effects", [None, 3.0, (1.0, 2.0, 3.0, 4.0)])
    def test_what_is_not_three_sums_is_refused(self, effects):
        with pytest.raises(DomainError, match="^ss_effects must be 3 sums"):
            AnovaTable((2, 3), 3, effects, 4.0, 10.0)

    def test_sums_from_numpy_are_kept_as_python_floats(self):
        table = AnovaTable((2, 3), 3, np.array([1.0, 2.0, 3.0]), np.float32(4.0), 10)
        assert table.ss_effects == (1.0, 2.0, 3.0) and table.ss_total == 10.0
        assert all(type(ss) is float
                   for ss in (*table.ss_effects, table.ss_error, table.ss_total))

    @pytest.mark.parametrize("ss", [math.inf, math.nan])
    def test_a_sum_out_of_the_double_range_is_refused_where_used(self, ss):
        table = AnovaTable((2, 3), 3, (ss, 2.0, 3.0), 4.0, 10.0)
        with pytest.raises(DomainError, match="left the double range"):
            bic_bf_for_effect(table, "B")
