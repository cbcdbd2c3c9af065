"""Field axioms for the small prime-power fields."""

import pytest

from quotientlab.gfq import factor_prime_power, field, index_from_vector, vector_from_index


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms(q):
    f = field(q)
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_multiplicative_group_order():
    for q in (4, 8, 9):
        f = field(q)
        nonzero = set(range(1, q))
        # every nonzero element has a multiplicative order dividing q-1
        for a in nonzero:
            x = a
            order = 1
            while x != 1:
                x = f.mul(x, a)
                order += 1
            assert (q - 1) % order == 0


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(5) == (5, 1)
    assert factor_prime_power(1000003) == (1000003, 1)
    with pytest.raises(ValueError):
        factor_prime_power(6)
    with pytest.raises(ValueError):
        factor_prime_power(1)


def test_vector_index_roundtrip():
    for q, n in ((2, 3), (3, 2), (4, 2)):
        for j in range(q**n):
            vec = vector_from_index(j, q, n)
            assert len(vec) == n
            assert index_from_vector(vec, q) == j


def digit_add(q, a, b):
    """a + b in GF(p^e), one base-p digit at a time."""
    f = field(q)
    out, mult = 0, 1
    for _ in range(f.e):
        out += ((a % f.p + b % f.p) % f.p) * mult
        a //= f.p
        b //= f.p
        mult *= f.p
    return out


def digit_neg(q, a):
    """-a in GF(p^e), one base-p digit at a time."""
    f = field(q)
    out, mult = 0, 1
    for _ in range(f.e):
        out += (-(a % f.p) % f.p) * mult
        a //= f.p
        mult *= f.p
    return out


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_sum_tables_match_the_digit_loops(q):
    f = field(q)
    pairs = [(a, b) for a in range(q) for b in range(q)]
    assert [f.neg(a) for a in range(q)] == [digit_neg(q, a) for a in range(q)]
    assert [f.add(a, b) for a, b in pairs] == [digit_add(q, a, b) for a, b in pairs]
    assert [f.sub(a, b) for a, b in pairs] == [digit_add(q, a, digit_neg(q, b)) for a, b in pairs]


@pytest.mark.parametrize("q", [2, 5, 4, 9])
def test_zero_has_no_inverse(q):
    with pytest.raises(ZeroDivisionError, match="0 has no inverse"):
        field(q).inv(0)
