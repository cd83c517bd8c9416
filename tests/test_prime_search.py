"""The prime search sieves candidates by gcd and still finds the same primes.

`rsa._is_probable_prime` rejects a candidate of 1 000 or more by its gcd with the
product of the small primes before any Miller-Rabin round. It must answer as
the plain trial-division test below does, and a seed must still give the
same key and leave its RNG in the same state, since every pinned signature
and digest depends on both."""

import builtins
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dnsseclab import rsa

_TRIAL_PRIMES = [n for n in range(3, 1000)
                 if all(n % d for d in range(2, int(n ** 0.5) + 1))]


def reference_is_probable_prime(n: int) -> bool:
    """Trial division by the odd primes below 1 000, then the 20 fixed
    Miller-Rabin bases: the test the gcd sieve replaces, guarded below 3."""
    if n < 3:
        return n == 2
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in rsa._MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pow_counter(monkeypatch) -> list:
    """Counts the `pow` calls `rsa` makes; the list holds one item per call."""
    calls = []

    def counting(*args):
        calls.append(None)
        return builtins.pow(*args)

    monkeypatch.setattr(rsa, "pow", counting, raising=False)
    return calls


def test_small_inputs_answer_without_looping():
    assert [n for n in range(-3, 12) if rsa._is_probable_prime(n)] == [2, 3, 5, 7, 11]


def test_agrees_with_trial_division_below_200_000():
    assert [n for n in range(200_000) if rsa._is_probable_prime(n)] \
        == [n for n in range(200_000) if reference_is_probable_prime(n)]


@pytest.mark.parametrize("n", [
    997 * 1009, 65521 ** 2, 65537 * 65539, 997 * (2 ** 61 - 1), 1009 * (2 ** 521 - 1),
    65521 * (2 ** 521 - 1), 65537 * (2 ** 521 - 1), 2 ** 61 - 1, 2 ** 521 - 1,
    561, 41041, 825265, 321197185,
    3215031751, 3825123056546413051, 318665857834031151167461,
], ids=["997*1009", "65521^2", "65537*65539", "997*M61", "1009*M521", "65521*M521",
        "65537*M521", "M61", "M521", "carmichael-561", "carmichael-41041",
        "carmichael-825265", "carmichael-321197185", "spsp-2..7", "spsp-2..23",
        "spsp-2..37"])
def test_agrees_with_trial_division_across_the_sieve_bounds(n):
    assert rsa._is_probable_prime(n) == reference_is_probable_prime(n)


@settings(max_examples=150, deadline=None)
@given(bits=st.integers(64, 700), seed=st.integers(0, 2 ** 32),
       factor=st.none() | st.integers(3, 2 ** 16 - 1).map(lambda f: f | 1))
def test_agrees_with_trial_division_on_wide_odd_numbers(bits, seed, factor):
    n = random.Random(seed).getrandbits(bits) | (1 << (bits - 1)) | 1
    if factor is not None:
        n *= factor
    assert rsa._is_probable_prime(n) == reference_is_probable_prime(n)


@pytest.mark.parametrize("factor", [3, 997, 1009, 65521])
def test_a_wide_candidate_with_a_factor_below_2_16_takes_no_pow(monkeypatch, factor):
    calls = _pow_counter(monkeypatch)
    assert not rsa._is_probable_prime(factor * (2 ** 521 - 1))
    assert calls == []


#: sha256 of "p,q" and of `repr(rng.getstate())` after `generate_keypair`,
#: taken with the trial-division search.
KEYPAIR_PINS = {
    (512, 1): ("66bdd536323e74d358326e21b201aaa72e8d9fc33539ad9e5811c1b05ed7c60c",
               "154852a9cc338b5edcf563a9231c0b7342158c7a4f57fb4b8e77068d462567e7"),
    (512, 7): ("1af1db65d5676cf4e0ddd7b04dcf9e21425d9965e87a70e15a94aebfd13df7bb",
               "0ecd42de67c38055c445917039deb166a6ffcf67c15ff0eed0cd8382d8517aa8"),
    (1024, 42): ("0956b3ee33955031dffd05f725d9d795dd632777b391c6fc12578aaa666fd953",
                 "5e5acc6418fd2e9470ec9119e65c3c3ad2dcf8999a11e1911a442bd54ce727e4"),
    (1024, 5): ("b63e7d5e15ad66d3e5a3f006b5d8c38be9ef249a48add1aeb3f4d2c7fbe2e905",
                "6f0bc79fbb269d059f9daee2f902de6e2dc097b2aa241af6c1226b4d4853f51e"),
    (2048, 42): ("662fd01cb827910ea6e8be462ff1c38fe3af1a6ac13b429439d190e75ae51bf0",
                 "98474fa634c541fd2ed68755589392eaabc72efe1bcb25e5f112da6a6243f669"),
    (2048, 43): ("156ce17df2a5805bc0e211c31474ec18151fd6efd3fb51d75c41d0e791550061",
                 "4d16a879947eb8a0842a45713323baa40905b55aad99b1281b9f359527a6b48b"),
}


@pytest.mark.parametrize("bits, seed", KEYPAIR_PINS, ids=lambda v: str(v))
def test_a_seed_gives_the_same_primes_and_rng_state(bits, seed):
    rng = random.Random(seed)
    key = rsa.generate_keypair(bits, rng)
    assert (hashlib.sha256(f"{key.p},{key.q}".encode()).hexdigest(),
            hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()) \
        == KEYPAIR_PINS[bits, seed]


def test_the_sieve_cuts_the_pow_calls_of_a_2048_bit_key(monkeypatch):
    """206 `pow` calls with trial division alone for this seed."""
    calls = _pow_counter(monkeypatch)
    rsa.generate_keypair(2048, random.Random(43))
    assert len(calls) < 206


def test_importing_and_signing_do_not_build_the_sieve():
    code = ("import pkgutil, importlib, dnsseclab\n"
            "for m in pkgutil.iter_modules(dnsseclab.__path__):\n"
            "    importlib.import_module('dnsseclab.' + m.name)\n"
            "from dnsseclab import rsa\n"
            "key = rsa.RsaPrivateKey.from_factors(2 ** 127 - 1, 2 ** 521 - 1)\n"
            "assert rsa.verify(key.public(), b'm', rsa.sign(key, b'm'))\n"
            "print(rsa._sieve_products.cache_info().currsize)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(rsa.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["0"]
