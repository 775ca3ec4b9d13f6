"""Laws of the prime-factored value representation.

  * value() reconstructs unit * prod(p^e) exactly, in lowest terms even
    when the unit shares a declared prime;
  * factorize() is a section of value(): factorize(v, P).value() == v,
    with every declared prime fully extracted from the unit;
  * zero exponents never survive construction, so equal values factored
    over the same primes compare equal;
  * times() merges prime lists keeping the left operand's display order;
  * a PowerProduct is the product of its rational powers, over a base of
    pairwise-coprime integers, and builds it in lowest terms; factoring it
    over primes base by base agrees with factorize() on the built value;
  * a numerator or denominator too long for the interpreter's int-to-text
    limit prints as an ``(N digits)`` note, also inside a factored value.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from tilecount import FactoredValue, PowerProduct, factorize
from tilecount.rational import plain_str


def test_value_reconstructs_product():
    v = FactoredValue(Fraction(3, 7), [(2, 5), (5, -1)])
    assert v.value() == Fraction(3, 7) * 32 / 5


def test_zero_exponents_dropped():
    assert FactoredValue(1, [(2, 0), (3, 2)]) == FactoredValue(1, [(3, 2)])
    assert FactoredValue(1, [(2, 0)]).powers == ()


def test_exponent_lookup():
    v = FactoredValue(2, [(3, 4), (29, -2)])
    assert v.exponent(3) == 4
    assert v.exponent(29) == -2
    assert v.exponent(5) == 0
    assert v.primes == (3, 29)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        FactoredValue(0)
    with pytest.raises(ValueError):
        FactoredValue(1, [(4, 2)])  # not a prime
    with pytest.raises(ValueError):
        FactoredValue(1, [(3, 1), (3, 2)])  # repeated prime
    with pytest.raises(ValueError):
        FactoredValue(1, [(3, Fraction(1, 2))])  # fractional exponent


def test_str_forms():
    assert str(FactoredValue(1, [(2, 3)])) == "2^3"
    assert str(FactoredValue(2, [(3, 5)])) == "2 * 3^5"
    assert str(FactoredValue(1)) == "1"
    assert str(FactoredValue(Fraction(1, 2), [(5, -1)])) == "1/2 * 5^-1"


def test_times_merges_in_display_order():
    a = FactoredValue(2, [(3, 1), (5, 2)])
    b = FactoredValue(Fraction(1, 2), [(5, -2), (7, 1)])
    prod = a.times(b)
    assert prod == FactoredValue(1, [(3, 1), (7, 1)])
    assert prod.primes == (3, 7)
    assert prod.value() == a.value() * b.value()


def test_factorize_known():
    v = factorize(Fraction(486), (2, 3))
    assert v == FactoredValue(1, [(2, 1), (3, 5)])
    assert str(v) == "2^1 * 3^5"


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0, (2,))


small_fraction = st.builds(
    Fraction,
    st.integers(min_value=-400, max_value=400).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=400),
)


@given(small_fraction)
def test_factorize_round_trips(v):
    f = factorize(v, (2, 3, 5))
    assert f.value() == v
    # the unit is coprime to every declared prime
    for p in (2, 3, 5):
        assert f.unit.numerator % p != 0
        assert f.unit.denominator % p != 0


@given(small_fraction, st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_value_is_in_lowest_terms_when_the_unit_shares_primes(unit, exps):
    want = unit * Fraction(2) ** exps[0] * Fraction(3) ** exps[1] * Fraction(5) ** exps[2]
    assert FactoredValue(unit, zip((2, 3, 5), exps)).value() == want


@given(small_fraction, small_fraction)
def test_times_is_multiplicative(a, b):
    fa, fb = factorize(a, (2, 3)), factorize(b, (3, 5))
    assert fa.times(fb).value() == a * b


def test_plain_str_notes_what_is_too_long_to_print(digit_limit_640):
    assert plain_str(10**640 - 1) == "9" * 640
    assert plain_str(10**640) == "(641 digits)"
    assert plain_str(-(10**700)) == "-(701 digits)"
    assert plain_str(Fraction(3, 10**650)) == "(1/651 digits)"
    assert str(FactoredValue(10**640 + 1, [(2, 3)])) == "(641 digits) * 2^3"


# big factors that share primes in many ways, beyond the small primes that
# the coprime base starts from
shared = st.builds(
    lambda a, b, c: a * b * c,
    st.sampled_from([1, 2, 53, 59, 53 * 59, 12]),
    st.sampled_from([1, 61, 61**2, 3 * 67]),
    st.integers(min_value=-30, max_value=30).filter(lambda n: n != 0),
)
rational_powers = st.dictionaries(
    st.builds(Fraction, shared, shared.map(abs)), st.integers(-6, 6), max_size=6
)


@given(rational_powers)
def test_power_product_builds_the_product(powers):
    want = Fraction(1)
    for v, e in powers.items():
        want *= v**e
    pp = PowerProduct.of(powers)
    got = pp.value()
    assert got == want  # Fraction equality compares lowest terms
    assert got.denominator > 0
    bases = [b for b, _ in pp.powers]
    assert all(b > 1 for b in bases) and all(e != 0 for _, e in pp.powers)
    for i, a in enumerate(bases):
        for b in bases[i + 1:]:
            assert gcd(a, b) == 1
    primes = (2, 3, 5, 61)
    assert pp.factored(primes) == factorize(want, primes)


def test_power_product_cancels_in_the_exponents():
    pp = PowerProduct.of({2: 5, Fraction(1, 2): 3, Fraction(-6, 5): 2, 10: 1})
    assert pp == PowerProduct(1, ((2, 5), (3, 2), (5, -1)))
    assert pp.value() == Fraction(288, 5)
    assert PowerProduct.of({Fraction(-1, 2): 3}).value() == Fraction(-1, 8)
    assert PowerProduct.of({}).value() == 1
    with pytest.raises(ValueError):
        PowerProduct.of({0: 1})
