"""Value semantics of the slotted record types.

``Ring``, ``AlgebraSpec`` and ``BasisEntry`` are immutable values: built
separately from equal fields they are equal and hash equal, and they survive
``pickle``, ``copy`` and ``deepcopy``.  ``CheckRecord`` is a mutable record
that compares by its fields.  The validation of the constructors is covered
by ``test_coeff.test_ring_validation`` and ``test_dpcore.test_spec_validation``.
"""

import copy
import pickle

import pytest

from dpalg.coeff import Ring, ZZ
from dpalg.dpcore import AlgebraSpec, basis_of_weight, free_spec
from dpalg.kahler import BasisEntry
from dpalg.report import CheckRecord


def _entry():
    return BasisEntry(((0, 1),), ((2, 1),), ((1, 2),), 6, 2)


# Each builder makes a fresh value; two calls give equal, distinct objects.
VALUES = {
    "ring": lambda: Ring(6),
    "spec": lambda: AlgebraSpec(Ring(4), (1, 2), 6),
    "entry": _entry,
    "unit entry": lambda: BasisEntry(((1, 1),), (), None, 1, 0),
}
FROZEN = list(VALUES.values())


@pytest.mark.parametrize("build", FROZEN, ids=list(VALUES))
def test_separately_built_values_are_equal_and_hash_equal(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "a, b",
    [
        (Ring(6), Ring(4)),
        (AlgebraSpec(ZZ, (1, 2), 6), AlgebraSpec(Ring(2), (1, 2), 6)),
        (AlgebraSpec(ZZ, (1, 2), 6), AlgebraSpec(ZZ, (2, 1), 6)),
        (AlgebraSpec(ZZ, (1, 2), 6), AlgebraSpec(ZZ, (1, 2), 7)),
        (_entry(), BasisEntry(((0, 1),), ((2, 1),), ((1, 2),), 6, 0)),
        (_entry(), BasisEntry(((0, 1),), ((2, 1),), None, 6, 2)),
    ],
)
def test_values_differing_in_one_field_are_unequal(a, b):
    assert a != b and not a == b


def test_values_equal_no_other_type():
    assert Ring(0) != 0
    assert ZZ != (0,)
    assert AlgebraSpec(ZZ, (1,), 2) != (ZZ, (1,), 2)
    assert _entry() != (((0, 1),), ((2, 1),), ((1, 2),), 6, 2)
    assert Ring(2) != AlgebraSpec(Ring(2), (1,), 2)


def test_an_equal_spec_hits_the_same_basis_cache_entry():
    a, b = free_spec(Ring(6), 2, 5), AlgebraSpec(Ring(6), [1, 1], 5)
    assert a is not b
    assert basis_of_weight(b, 3) is basis_of_weight(a, 3)


def test_weight_memo_is_outside_equality_hashing_and_repr():
    used, fresh = AlgebraSpec(ZZ, (1, 2), 6), AlgebraSpec(ZZ, (1, 2), 6)
    before = (hash(used), repr(used))
    assert used.monomial_weight(((0, 2), (1, 1))) == 4
    assert used._weight_of and not fresh._weight_of
    assert used == fresh and (hash(used), repr(used)) == before == (hash(fresh), repr(fresh))
    assert "_weight_of" not in repr(used)


def test_weights_become_a_tuple():
    spec = AlgebraSpec(ZZ, [1, 2], 4)
    assert spec.weights == (1, 2) and type(spec.weights) is tuple
    assert spec == AlgebraSpec(ZZ, (1, 2), 4)


def test_reprs_are_the_dataclass_reprs():
    assert repr(Ring(6)) == "Ring(modulus=6)"
    assert repr(AlgebraSpec(ZZ, (1, 1), 6)) == "AlgebraSpec(ring=Ring(modulus=0), weights=(1, 1), truncation=6)"
    assert repr(BasisEntry(((1, 1),), (), None, 1, 0)) == (
        "BasisEntry(label=((1, 1),), phi=(), amono=None, weight=1, annihilator=0)"
    )
    assert repr(CheckRecord("law", False, "x")) == "CheckRecord(law='law', passed=False, counterexample='x')"
    assert str(Ring(6)) == "Z/6" and str(ZZ) == "Z"


@pytest.mark.parametrize(
    "value, field",
    [(Ring(6), "modulus"), (AlgebraSpec(ZZ, (1,), 3), "weights"), (AlgebraSpec(ZZ, (1,), 3), "_weight_of"),
     (_entry(), "annihilator")],
)
def test_assigning_or_deleting_a_field_raises(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, 7)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize("build", FROZEN, ids=list(VALUES))
@pytest.mark.parametrize(
    "round_trip",
    [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_round_trips_give_equal_values_with_equal_hashes(build, round_trip):
    value = build()
    back = round_trip(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    assert repr(back) == repr(value)


def test_a_round_tripped_spec_has_its_own_weight_memo():
    spec = AlgebraSpec(ZZ, (1, 2), 6)
    spec.monomial_weight(((1, 1),))
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and not back._weight_of
    assert back.monomial_weight(((0, 1), (1, 2))) == 5


def test_check_records_compare_by_fields_and_stay_mutable():
    a, b = CheckRecord("law", True), CheckRecord("law", True, "")
    assert a == b and a != CheckRecord("law", False) and a != CheckRecord("other", True)
    assert a != ("law", True, "")
    with pytest.raises(TypeError):
        hash(a)
    b.passed = False
    assert a != b
    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        back = round_trip(b)
        assert back == b and back is not b
