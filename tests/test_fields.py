import pytest

from srpb import Field
from srpb.cli import main
from srpb.errors import InputError
from srpb.fields import _is_prime


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality_agrees_with_trial_division_below_2_16():
    assert [n for n in range(1 << 16) if _is_prime(n)] == \
        [n for n in range(1 << 16) if trial_division(n)]


def test_large_primes_accepted():
    for p in (2**31 - 1, 2**61 - 1):
        assert Field(p).char == p


@pytest.mark.parametrize("n", [561, 3215031751,
                               3825123056546413051])  # strong pseudoprime to bases 2..23
def test_pseudoprimes_rejected(n):
    assert not _is_prime(n)
    with pytest.raises(InputError):
        Field(n)


def test_characteristic_beyond_the_exact_bound_rejected():
    with pytest.raises(InputError, match="too large"):
        Field(2**89 - 1)  # prime, but above the bound where the test is exact


def test_huge_characteristic_is_an_input_error_on_the_cli(tmp_path):
    ring = tmp_path / "big.ring"
    with open(ring, "w") as fh:
        fh.write('srpb/1 ring\n{"field": "Fp:%d", "ideal": [], "vars": 1}\n' % (2**89 - 1))
    assert main(["ring", "nf", "--ring", str(ring), "--expr", "x0"]) == 2


def test_primality_runs_once_per_characteristic():
    _is_prime.cache_clear()
    made = [Field(2**31 - 1) for _ in range(5)]
    assert _is_prime.cache_info()[:2] == (4, 1)  # hits, misses
    assert all(f == Field(2**31 - 1) and hash(f) == hash(made[0]) for f in made)
    for _ in range(2):
        with pytest.raises(InputError, match="must be 0 or prime, got 6"):
            Field(6)
        with pytest.raises(InputError, match="too large"):
            Field(2**89 - 1)
