"""Property tests of A (+) M arithmetic, drawn and shrunk by hypothesis.

The semidirect operations reduce each module vector once.  They are compared
here with a reference that reduces after every step, kept from the earlier
implementation, and A (+) M is checked against three DP axiom families.
Skipped when hypothesis is not installed (it is in the ``test`` extra).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dpalg.beck import SemidirectElement, UModule, semidirect_gamma, trivial_module
from dpalg.coeff import Ring, ZZ, gamma_compose_coeff
from dpalg.dpcore import DPElement, basis_up_to, divided_power, free_spec
from dpalg.kahler import apply_table, omega_as_umodule
from dpalg.suites import beck_module_zoo

SPEC = free_spec(ZZ, 1, 6)
MODULES = [
    *beck_module_zoo(SPEC),
    trivial_module(free_spec(Ring(6), 1, 6), (0, 2, 4)),
    omega_as_umodule(SPEC),
]
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def _reduce(module, vec):
    """Reference reduction: every coordinate, free ones left as they are."""
    return tuple(v % d if d else v for v, d in zip(vec, module.moduli))


def _add(u, v):
    mod = u.module
    return u.a + v.a, _reduce(mod, _reduce(mod, tuple(a + b for a, b in zip(u.x, v.x))))


def _scale(u, c):
    mod = u.module
    return u.a.scale(c), _reduce(mod, _reduce(mod, tuple(c * a for a in u.x)))


def _mul(u, v):
    mod = u.module
    cross = tuple(a + b for a, b in zip(mod.act(u.a, v.x), mod.act(v.a, u.x)))
    return u.a * v.a, _reduce(mod, _reduce(mod, cross))


def _gamma(n, u):
    """gamma_n(a, x) = (gamma_n a, phi_n x + sum_{i<n} gamma_i(a) phi_{n-i}(x)),
    reduced after every term, each gamma_i of a fresh copy of ``a``."""
    mod = u.module

    def gamma_a(i):
        return divided_power(i, DPElement(u.a.spec, dict(u.a.terms)))

    vec = mod.phi_n(n, u.x)
    for i in range(1, n):
        term = mod.act(gamma_a(i), mod.phi_n(n - i, u.x))
        vec = _reduce(mod, tuple(a + b for a, b in zip(vec, term)))
    return gamma_a(n), _reduce(mod, vec)


def _apply_table(table, element, module):
    out = (0,) * module.rank
    for mono, c in element.terms.items():
        row = _reduce(module, table[mono])
        out = _reduce(module, tuple(a + c * b for a, b in zip(out, row)))
    return out


def _vectors(module):
    return st.tuples(*[st.integers(-30, 30)] * module.rank)


@st.composite
def semidirect_pairs(draw):
    """A module of the zoo and two of its elements, drawn from unreduced vectors."""
    module = draw(st.sampled_from(MODULES))
    spec = module.spec
    terms = st.dictionaries(st.sampled_from(basis_up_to(spec)), st.integers(-9, 9), max_size=3)
    return tuple(
        SemidirectElement(module, DPElement(spec, draw(terms)), draw(_vectors(module)))
        for _ in range(2)
    )


@PROPERTY_SETTINGS
@given(semidirect_pairs(), st.integers(-9, 9))
def test_operations_match_reduce_everywhere_reference(pair, c):
    u, v = pair
    module = u.module
    results = [(u + v, _add(u, v)), (u.scale(c), _scale(u, c)), (u * v, _mul(u, v))]
    results += [(semidirect_gamma(n, u), _gamma(n, u)) for n in range(1, 7)]
    for got, (a, x) in results:
        assert (got.a, got.x) == (a, x)
        assert module.reduce(got.x) == got.x


@PROPERTY_SETTINGS
@given(st.data())
def test_apply_table_matches_reduce_everywhere_reference(data):
    module = data.draw(st.sampled_from(MODULES))
    basis = basis_up_to(module.spec)
    table = dict(zip(basis, data.draw(st.lists(_vectors(module), min_size=len(basis), max_size=len(basis)))))
    element = DPElement(
        module.spec,
        data.draw(st.dictionaries(st.sampled_from(basis), st.integers(-9, 9), max_size=3)),
    )
    got = apply_table(table, element, module)
    assert got == _apply_table(table, element, module)
    assert module.reduce(got) == got


@PROPERTY_SETTINGS
@given(semidirect_pairs(), st.integers(-9, 9), st.integers(1, 6), st.integers(1, 6))
def test_scalar_product_and_composition_laws(pair, r, n, m):
    u, v = pair
    ring = u.module.spec.ring
    r = ring.normalize(r)
    power = u
    for _ in range(n - 1):
        power = power * u
    assert semidirect_gamma(n, u * v) == power * semidirect_gamma(n, v), "gamma_n(ab)"
    assert semidirect_gamma(n, v.scale(r)) == semidirect_gamma(n, v).scale(ring.pow(r, n)), "gamma_n(rb)"
    coeff = ring.normalize(gamma_compose_coeff(m, n))
    assert semidirect_gamma(m, semidirect_gamma(n, u)) == semidirect_gamma(m * n, u).scale(coeff), "gamma_m(gamma_n)"


def _enumerate_columns(rows):
    """Reference: column j's nonzero (row, entry) pairs by an enumerate scan."""
    return [[(i, v) for i, v in enumerate(column) if v] for column in zip(*rows)]


@st.composite
def _tables(draw, square=True):
    """A table of integer rows with zero rows and negative entries; rank 0
    included.  With ``square`` False, one not rank x rank for its rank."""
    n = draw(st.integers(0, 6))
    lengths = [n] * n
    if not square:
        lengths = draw(st.lists(st.integers(0, 7), max_size=7).filter(lambda ls: ls != [n] * n))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = [
        draw(st.one_of(st.just([0] * length), st.lists(entry, min_size=length, max_size=length)))
        for length in lengths
    ]
    return n, rows


@PROPERTY_SETTINGS
@given(_tables())
def test_columns_match_enumerate_scan(table):
    rank, rows = table
    module = UModule(SPEC, (0,) * rank, phi_action={2: rows})
    assert module._phi_columns[2] == _enumerate_columns(rows)


@PROPERTY_SETTINGS
@given(_tables(square=False))
def test_columns_reject_tables_not_rank_by_rank(table):
    rank, rows = table
    with pytest.raises(ValueError, match=f"not {rank} x {rank}"):
        UModule(SPEC, (0,) * rank, phi_action={2: rows})
