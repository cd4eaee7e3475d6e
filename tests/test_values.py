"""The frozen value types: equality, hashing, repr, immutability, pickling, replace."""

import copy
import dataclasses
import math
import pickle

import pytest

from bicbf import (
    BayesFactorValue,
    DomainError,
    EvidenceClass,
    GPriorBayesFactor,
    ParsedReport,
    SummaryStat,
    default_bf10,
)
from conftest import random_dataset

STAT = SummaryStat("t", 2.0, None, 71)

# (value, an equal value built anew, a different value, its repr,
#  changes that replace must reject, and the error they raise)
CASES = {
    "SummaryStat": (
        STAT, SummaryStat(kind="t", statistic=2.0, df1=None, df2=71),
        STAT.replace(n=73),
        "SummaryStat(kind='t', statistic=2.0, df1=None, df2=71, n=None, p_reported=None)",
        ({"n": 1}, DomainError),
    ),
    "BayesFactorValue": (
        BayesFactorValue(0.25, "01"), BayesFactorValue(log_bf=0.25, direction="01"),
        BayesFactorValue(0.25, "10"),
        "BayesFactorValue(log_bf=0.25, direction='01')",
        ({"log_bf": math.inf}, DomainError),
    ),
    "EvidenceClass": (
        EvidenceClass("H1", "strong", 42.0), EvidenceClass("H1", "strong", 42.0),
        EvidenceClass("H1", "strong", 43.0),
        "EvidenceClass(favored='H1', category='strong', bf_in_favored_direction=42.0)",
        ({"no_such_field": 1}, TypeError),
    ),
    "ParsedReport": (
        ParsedReport(STAT, "t(71)=2.0", ("w",)), ParsedReport(STAT, "t(71)=2.0", ("w",)),
        ParsedReport(STAT, "t(71)=2.0", ()),
        "ParsedReport(stat=SummaryStat(kind='t', statistic=2.0, df1=None, df2=71, n=None, "
        "p_reported=None), raw='t(71)=2.0', warnings=('w',))",
        ({"no_such_field": 1}, TypeError),
    ),
    "GPriorBayesFactor": (
        GPriorBayesFactor(-1.5, "10"), GPriorBayesFactor(-1.5, "10", standard_error=0.0),
        GPriorBayesFactor(-1.5, "10", 0.5),
        "GPriorBayesFactor(log_bf=-1.5, direction='10', standard_error=0.0)",
        ({"direction": "x"}, DomainError),
    ),
}


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request):
    return CASES[request.param]


def test_equality_by_fields(case):
    value, same, other, _, _ = case
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != tuple(getattr(value, name) for name in value._fields)


def test_hash_follows_equality(case):
    value, same, other, _, _ = case
    assert hash(value) == hash(same)
    assert len({value, same, other}) == 2


def test_repr_names_every_field(case):
    value, _, _, text, _ = case
    assert repr(value) == text


def test_assignment_and_deletion_refused(case):
    value = case[0]
    name = value._fields[0]
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=name):
        setattr(value, name, before)
    with pytest.raises(AttributeError, match=name):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert getattr(value, name) is before


def test_pickle_and_copy_round_trip(case):
    value = case[0]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)
    assert copy.copy(value) == value
    deep = copy.deepcopy(value)
    assert deep == value and type(deep) is type(value)


def test_replace_validates_a_new_value(case):
    value, _, other, _, (bad, error) = case
    changes = {name: getattr(other, name) for name in other._fields
               if getattr(other, name) != getattr(value, name)}
    assert value.replace(**changes) == other
    assert value.replace() == value
    with pytest.raises(error):
        value.replace(**bad)


def test_no_longer_dataclasses(case):
    assert not dataclasses.is_dataclass(case[0])


def test_replace_rejects_a_bad_sample_size():
    with pytest.raises(DomainError, match="n must be at least 2"):
        STAT.replace(n=1)


def test_match_by_position():
    match STAT:
        case SummaryStat("t", statistic, None, df2):
            assert (statistic, df2) == (2.0, 71)
        case _:
            pytest.fail("SummaryStat did not match by position")


def test_oracle_value_is_a_bayes_factor_with_zero_error():
    got = default_bf10(random_dataset(3, 2, 3, 4), "A")
    assert type(got) is GPriorBayesFactor and isinstance(got, BayesFactorValue)
    assert got.standard_error == 0.0
    assert got != BayesFactorValue(got.log_bf, got.direction)
    assert got.in_direction("01") == BayesFactorValue(-got.log_bf, "01")
