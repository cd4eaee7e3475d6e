"""One rule for a count, at every site that takes one from outside.

A count is an integer that ``operator.index`` accepts, other than a bool
(numpy integers pass), of at least the site's least value, kept as a
Python int.  Each refusal is a ``DomainError`` that starts with the
field's name.  The same module checks the other numbers of the summary
routes and the effect names of the oracle.
"""

import math

import numpy as np
import pytest

from bicbf import (
    AnovaTable,
    DomainError,
    FactorialDataset,
    GPriorSpec,
    SimulationConfig,
    SummaryStat,
    bf01_from_f,
    bf01_from_partial_eta_sq,
    bf01_from_t,
    bic_bf_for_effect,
    conditional_bf10,
    default_bf10,
    delta_bic_10,
    fit_two_way,
)
from conftest import random_dataset

_SS = ((1.0, 2.0, 3.0), 4.0, 10.0)  # a table's effect, error and total sums

# site -> (build from the counts, a valid count per field, each field's least)
SITES = {
    "SummaryStat": (lambda c: SummaryStat("F", 2.0, c["df1"], c["df2"], c["n"]),
                    {"df1": 1, "df2": 17, "n": 18}, {"df1": 1, "df2": 1, "n": 2}),
    "SummaryStat-t": (lambda c: SummaryStat("t", 2.0, None, c["df2"], c["n"]),
                      {"df2": 17, "n": 18}, {"df2": 1, "n": 2}),
    "bf01_from_f": (lambda c: bf01_from_f(2.0, c["df1"], c["df2"], c["n"]),
                    {"df1": 1, "df2": 17, "n": 18}, {"df1": 1, "df2": 1, "n": 2}),
    "bf01_from_t": (lambda c: bf01_from_t(2.0, c["df2"], c["n"]),
                    {"df2": 17, "n": 18}, {"df2": 1, "n": 2}),
    "delta_bic_10": (lambda c: delta_bic_10(1.0, 2.0, c["n"], c["dk"]),
                     {"n": 20, "dk": 1}, {"n": 2, "dk": 1}),
    "bf01_from_partial_eta_sq": (lambda c: bf01_from_partial_eta_sq(0.1, c["n"], c["df1"]),
                                 {"n": 18, "df1": 1}, {"n": 2, "df1": 1}),
    "SimulationConfig": (lambda c: SimulationConfig(g=0.2, **c),
                         {"cell_n": 3, "trials": 2, "seed": 1, "a_levels": 2, "b_levels": 3},
                         {"cell_n": 2, "trials": 1, "seed": 0, "a_levels": 2, "b_levels": 2}),
    "GPriorSpec": (lambda c: GPriorSpec(**c),
                   {"mc_samples": 2000, "seed": 7}, {"mc_samples": 1000, "seed": 0}),
    "FactorialDataset": (lambda c: FactorialDataset(c["a_levels"], c["b_levels"], c["cell_n"],
                                                    np.zeros((2, 3, 3))),
                         {"a_levels": 2, "b_levels": 3, "cell_n": 3},
                         {"a_levels": 2, "b_levels": 2, "cell_n": 2}),
    "AnovaTable": (lambda c: AnovaTable((c["levels[0]"], c["levels[1]"]), c["cell_n"], *_SS),
                   {"levels[0]": 2, "levels[1]": 3, "cell_n": 3},
                   {"levels[0]": 2, "levels[1]": 2, "cell_n": 2}),
}

_BAD = {"1.5": 1.5, "2.0": 2.0, "True": True, "str": "2", "None": None, "nan": math.nan}


def _cases():
    for site, (_, _, least) in SITES.items():
        for field, low in least.items():
            values = dict(_BAD, below=low - 1)
            if field == "n" and site.startswith(("SummaryStat", "bf01_from_f", "bf01_from_t")):
                del values["None"]  # an unstated n: bf01_from_stat asks for it
            for label, value in values.items():
                yield pytest.param(site, field, value, id=f"{site}-{field}-{label}")


@pytest.mark.parametrize("site, field, value", _cases())
def test_a_bad_count_is_a_domain_error_naming_its_field(site, field, value):
    build, valid, _ = SITES[site]
    with pytest.raises(DomainError) as caught:
        build({**valid, field: value})
    assert str(caught.value).startswith(f"{field} must be "), str(caught.value)
    assert caught.value.__context__ is None


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
def test_numpy_integers_pass(site, kind):
    build, valid, _ = SITES[site]
    assert build({field: kind(value) for field, value in valid.items()}) is not None


@pytest.mark.parametrize("site", ["SummaryStat", "SimulationConfig", "GPriorSpec",
                                  "FactorialDataset", "AnovaTable"])
def test_a_value_keeps_its_counts_as_python_ints(site):
    build, valid, _ = SITES[site]
    value = build({field: np.int64(count) for field, count in valid.items()})
    for field, count in valid.items():
        if field.startswith("levels["):
            kept = value.levels[int(field[7])]
        else:
            kept = getattr(value, field)
        assert type(kept) is int and kept == count, field


@pytest.mark.parametrize(
    "route",
    [lambda k: bf01_from_f(2.584, k(1), k(17), k(18)).log_bf,
     lambda k: bf01_from_t(-1.7, k(17), k(19)).log_bf,
     lambda k: delta_bic_10(3.0, 7.0, k(40), k(2)),
     lambda k: bf01_from_partial_eta_sq(0.13, k(18), k(2)).log_bf],
    ids=["f", "t", "delta_bic", "eta"],
)
def test_numpy_counts_give_the_python_float_of_int_counts(route):
    # bf01_from_f with np.int64 counts gave an np.float64
    got, want = route(np.int64), route(int)
    assert type(got) is float and got.hex() == want.hex()


def test_a_dataset_of_float_counts_is_refused():
    # accepted, with n_total == 18.0
    with pytest.raises(DomainError, match=r"^a_levels must be an integer, got 2\.0$"):
        FactorialDataset(2.0, 3, 3, np.zeros((2, 3, 3)))


def test_a_table_of_a_float_cell_count_is_refused():
    # accepted, with df_error == 12.0
    with pytest.raises(DomainError, match=r"^cell_n must be an integer, got 3\.0$"):
        AnovaTable((2, 3), 3.0, *_SS)


@pytest.mark.parametrize("levels", [None, 2, (2,), (2, 3, 4)])
def test_a_table_refuses_levels_that_are_not_two_counts(levels):
    # None and 2 raised TypeError: object has no len()
    with pytest.raises(DomainError, match="^levels must be 2 counts of at least 2, got "):
        AnovaTable(levels, 3, *_SS)


def test_a_table_keeps_its_levels_as_a_tuple_of_ints():
    table = AnovaTable([np.int8(2), 3], 3, *_SS)
    assert table.levels == (2, 3) and type(table.levels[0]) is int
    assert (table.n_total, table.df_error) == (18, 12)


@pytest.mark.parametrize(
    "call, field",
    [(lambda: bf01_from_f("2", 1, 17, 18), "f"),
     (lambda: bf01_from_f(None, 1, 17, 18), "f"),
     (lambda: bf01_from_f(True, 1, 17, 18), "f"),
     (lambda: bf01_from_f(1j, 1, 17, 18), "f"),
     (lambda: bf01_from_t("2", 17, 18), "t"),
     (lambda: bf01_from_t(False, 17, 18), "t"),
     (lambda: SummaryStat("F", 2.0, 1, 17, 18, p_reported="0.1"), "p_reported"),
     (lambda: SummaryStat("F", 2.0, 1, 17, 18, p_reported=True), "p_reported"),
     (lambda: bf01_from_partial_eta_sq("0.1", 18, 1), "eta_p2"),
     (lambda: bf01_from_partial_eta_sq(None, 18, 1), "eta_p2"),
     (lambda: delta_bic_10(None, 2.0, 20, 1), "sse1"),
     (lambda: delta_bic_10(1.0, "2", 20, 1), "sse0")],
    ids=["str-f", "None-f", "bool-f", "complex-f", "str-t", "bool-t", "str-p", "bool-p",
         "str-eta", "None-eta", "None-sse1", "str-sse0"],
)
def test_a_number_that_is_not_a_real_number_is_a_domain_error(call, field):
    # each raised a bare TypeError, or read a bool as 0 or 1
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value).startswith(f"{field} must be a real number, got ")


@pytest.mark.parametrize(
    "call, field",
    [(lambda: bf01_from_f(10**400, 1, 17, 18), "f"),
     (lambda: bf01_from_t(-(10**400), 17, 18), "t"),
     (lambda: bf01_from_partial_eta_sq(10**400, 18, 1), "eta_p2"),
     (lambda: delta_bic_10(1.0, 10**400, 20, 1), "sse0")],
    ids=["f", "t", "eta", "sse0"],
)
def test_an_int_beyond_the_double_range_is_a_domain_error(call, field):
    # each raised a bare OverflowError
    with pytest.raises(DomainError, match=f"^{field} must "):
        call()


def test_a_t_statistic_refuses_a_bool_df1():
    # True == 1 passed as "no df1"
    with pytest.raises(DomainError, match="^df1 must be an integer, got True$"):
        SummaryStat("t", 2.0, True, 17, 18)
    assert SummaryStat("t", 2.0, np.int64(1), 17, 18).df1 == 1


class TestEffectNames:
    def test_the_oracle_refuses_a_list_as_an_effect(self):
        # default_bf10 raised TypeError: unhashable type: 'list'
        data = random_dataset(0)
        for call in (lambda: default_bf10(data, ["A"]),
                     lambda: bic_bf_for_effect(fit_two_way(data), ["A"])):
            with pytest.raises(DomainError, match=r"^effect must be one of .*, got \['A'\]$"):
                call()

    @pytest.mark.parametrize("effects", [None, 3, [["A"]], ("A", None)])
    def test_conditional_refuses_what_names_no_effects(self, effects):
        # None and 3 raised "object is not iterable", [["A"]] "unhashable type"
        table = fit_two_way(random_dataset(0))
        with pytest.raises(DomainError, match="^unknown effects "):
            conditional_bf10(table, effects, 1.0)

    def test_conditional_takes_any_sequence_of_effects(self):
        table = fit_two_way(random_dataset(0))
        want = conditional_bf10(table, ("A", "AB"), (1.0, 2.0))
        for effects in (["A", "AB"], np.array(["A", "AB"])):
            assert conditional_bf10(table, effects, (1.0, 2.0)) == want
