"""The value records behave as the frozen dataclasses they replaced.

Each record type is checked against a frozen dataclass twin with the same
fields: the twin fixes the repr format and the hash of the field tuple.
"""

import copy
import pickle
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from gotzmann import monomial
from gotzmann.combinatorics import MonomialSet, enumerate_monomials
from gotzmann.maxgen import MgDecomposition
from gotzmann.monomial import Monomial, parse
from gotzmann.paths import WalkState
from gotzmann.threshold import ConjectureScan, GotzmannWitness, ScanRow, ThresholdReport, tau

RECORDS = [
    Monomial, MonomialSet, WalkState, MgDecomposition, GotzmannWitness, ThresholdReport, ScanRow, ConjectureScan,
]

monomials = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.integers(0, 5) for _ in range(n)]).map(lambda e: Monomial(n, e))
)
# records other than Monomial and MonomialSet check nothing, so any field values will do
anything = st.one_of(st.none(), st.booleans(), st.integers(), monomials)


@st.composite
def monomial_sets(draw):
    whole = enumerate_monomials(draw(st.integers(1, 4)), draw(st.integers(0, 3)))
    keep = draw(st.sets(st.integers(0, len(whole.elements) - 1)))
    return (whole.n, tuple(whole.elements[i] for i in sorted(keep)))


def field_values(cls):
    if cls is Monomial:
        return monomials.map(lambda u: (u.n, u.exps))
    if cls is MonomialSet:
        return monomial_sets()
    return st.tuples(*[anything for _ in cls._fields])


def twin(cls, values):
    return make_dataclass(cls.__name__, cls._fields, frozen=True)(*values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_position_and_keyword_agree(self, cls, data):
        values = data.draw(field_values(cls))
        by_position = cls(*values)
        by_keyword = cls(**dict(reversed(list(zip(cls._fields, values)))))
        assert by_position == by_keyword
        assert hash(by_position) == hash(by_keyword) == hash(twin(cls, values))
        assert repr(by_position) == repr(by_keyword) == repr(twin(cls, values))

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_frozen_and_round_trips(self, cls, data):
        values = data.draw(field_values(cls))
        rec = cls(*values)
        for name in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        for back in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
            assert type(back) is cls and back == rec and hash(back) == hash(rec)
        assert rec != twin(cls, values) and rec.__eq__(twin(cls, values)) is NotImplemented

    def test_missing_or_unknown_field_is_a_type_error(self, cls):
        values = (1,) * len(cls._fields)
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, 1)
        with pytest.raises(TypeError):
            cls(**dict(zip(cls._fields, values)), extra=1)


def test_post_init_sees_every_monomial_construction(monkeypatch):
    # perfbench counts constructions by patching __post_init__; the dataclass version counted 49 here
    u = parse("x2^3", 6)
    counts = {"__init__": 0, "__post_init__": 0}
    for name in counts:
        def counted(obj, *args, original=getattr(Monomial, name), name=name):
            counts[name] += 1
            original(obj, *args)

        monkeypatch.setattr(monomial.Monomial, name, counted)
    assert tau(u, 6).tau == 1438
    assert counts == {"__init__": 49, "__post_init__": 49}
