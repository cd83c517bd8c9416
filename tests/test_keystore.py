import random
import re

import pytest

from dnsseclab import rsa
from dnsseclab.keystore import (BadKeySize, KeyMismatch, KeyPair, KeyRole,
                                NotAKsk, ParseError, TrustAnchor,
                                UnsupportedAlgorithm, algorithm_from_mnemonic,
                                decode_rsa_public, encode_rsa_public,
                                generate_key,
                                parse_trust_anchors, read_key_files,
                                read_key_pair, write_key_files)
from dnsseclab.records import DnskeyRdata, RType
from dnsseclab.zonefile import parse_record_line

from conftest import APEX, FIXED_NOW, trust_anchor_line


def small_key(role=KeyRole.ZSK, seed=1):
    return generate_key(APEX, role, bits=512, rng=seed, now=FIXED_NOW)


def test_deterministic_generation_under_fixed_seed():
    a = generate_key(APEX, KeyRole.ZSK, bits=1024, rng=42, now=FIXED_NOW)
    b = generate_key(APEX, KeyRole.ZSK, bits=1024, rng=42, now=FIXED_NOW)
    assert a == b
    assert a.key_tag == b.key_tag


def test_role_flag_mapping():
    assert small_key(KeyRole.KSK).public.flags == 257
    assert small_key(KeyRole.ZSK).public.flags == 256


def test_legacy_algorithm_rejected_for_generation():
    with pytest.raises(UnsupportedAlgorithm):
        generate_key(APEX, KeyRole.ZSK, algorithm=1, bits=1024, rng=1)


def test_bad_key_sizes():
    with pytest.raises(BadKeySize):
        generate_key(APEX, KeyRole.ZSK, bits=128, rng=1)
    with pytest.raises(BadKeySize):
        generate_key(APEX, KeyRole.ZSK, bits=8192, rng=1)


def test_requested_modulus_size_is_exact():
    key = generate_key(APEX, KeyRole.ZSK, bits=1000, rng=3, now=FIXED_NOW)
    assert key.private.n.bit_length() == 1000


def test_sign_verify_100_random_messages():
    key = small_key()
    public = key.private.public()
    rng = random.Random(99)
    for _ in range(100):
        message = bytes(rng.randrange(256) for _ in range(rng.randint(0, 64)))
        assert rsa.verify(public, message, key.sign(message))


def test_tampered_signature_fails():
    key = small_key()
    signature = bytearray(key.sign(b"payload"))
    signature[5] ^= 0x40
    assert not rsa.verify(key.private.public(), b"payload", bytes(signature))
    assert not rsa.verify(key.private.public(), b"other", key.sign(b"payload"))


def test_rsa_public_field_round_trip():
    key = small_key()
    assert decode_rsa_public(encode_rsa_public(key.private.public())) \
        == key.private.public()


def _rsa_field(modulus_bits: int, exponent_octets: int = 3) -> bytes:
    modulus = (1 << (modulus_bits - 1)) | 1
    exponent = (1 << (8 * exponent_octets - 8)) | 1
    return encode_rsa_public(rsa.RsaPublicKey(modulus, exponent))


@pytest.mark.parametrize("bits, exponent_octets, accepted", [
    (511, 3, False), (512, 3, True), (4096, 3, True), (4097, 3, False),
    (2048, 8, True), (2048, 9, False),
], ids=["511-bit", "512-bit", "4096-bit", "4097-bit", "8-octet-e", "9-octet-e"])
def test_rsa_field_limits(bits, exponent_octets, accepted):
    field = _rsa_field(bits, exponent_octets)
    if accepted:
        key = decode_rsa_public(field)
        assert key.n.bit_length() == bits and len(encode_rsa_public(key)) == len(field)
    else:
        with pytest.raises(ParseError):
            decode_rsa_public(field)


def test_rsa_field_rejects_long_exponent_in_the_three_octet_form():
    field = _rsa_field(1024)
    exponent = b"\x01" + b"\x00" * 8
    with pytest.raises(ParseError):
        decode_rsa_public(b"\x00\x00\x09" + exponent + field[4:])


def test_rsa_field_rejects_a_modulus_with_a_leading_zero_octet():
    field = _rsa_field(1024)
    decode_rsa_public(field)
    with pytest.raises(ParseError):
        decode_rsa_public(field[:4] + b"\x00" + field[4:])


def test_file_naming_convention(tmp_path):
    key = small_key()
    public_path, private_path = write_key_files(key, tmp_path)
    assert re.fullmatch(rf"Kdomaine\.ma\.\+005\+{key.key_tag:05d}\.key",
                        public_path.name)
    assert private_path.name.endswith(".private")
    assert key.base_name() == f"Kdomaine.ma.+005+{key.key_tag:05d}"


def test_key_file_last_line_is_a_dnskey_record(tmp_path):
    key = small_key()
    public_path, _ = write_key_files(key, tmp_path)
    last = public_path.read_text().rstrip().splitlines()[-1]
    record = parse_record_line(last, default_ttl=0)
    assert record.rtype == RType.DNSKEY
    assert record.rdata == key.public


def test_key_files_round_trip(tmp_path):
    key = small_key()
    paths = write_key_files(key, tmp_path)
    assert read_key_files(*paths) == key
    assert read_key_pair(tmp_path / key.base_name()) == key


def test_key_tag_stable_under_file_round_trip(tmp_path):
    key = small_key(seed=17)
    loaded = read_key_files(*write_key_files(key, tmp_path))
    assert loaded.public.key_tag() == key.public.key_tag()


def test_mismatched_halves_rejected(tmp_path):
    a = small_key(seed=1)
    b = small_key(seed=2)
    a_pub, _ = write_key_files(a, tmp_path)
    _, b_priv = write_key_files(b, tmp_path)
    with pytest.raises(KeyMismatch):
        read_key_files(a_pub, b_priv)


def test_missing_private_format_header(tmp_path):
    key = small_key()
    public_path, private_path = write_key_files(key, tmp_path)
    body = private_path.read_text().replace("Private-key-format: v1.3\n", "")
    private_path.write_text(body)
    with pytest.raises(ParseError):
        read_key_files(public_path, private_path)


def test_private_file_fields(tmp_path):
    _, private_path = write_key_files(small_key(), tmp_path)
    text = private_path.read_text()
    assert text.startswith("Private-key-format: v1.3\n")
    assert "Algorithm: 5 (RSASHA1)" in text
    for field in ("Modulus:", "PublicExponent:", "PrivateExponent:",
                  "Prime1:", "Prime2:"):
        assert field in text


def test_export_trust_anchor(tmp_path):
    ksk = small_key(KeyRole.KSK, seed=5)
    line = trust_anchor_line(ksk)
    public_path, _ = write_key_files(ksk, tmp_path)
    assert line == public_path.read_text().rstrip().splitlines()[-1]
    anchors = parse_trust_anchors(f"# pinned key\n{line}\n")
    assert anchors == [TrustAnchor(APEX, ksk.public)]


def test_export_requires_ksk():
    with pytest.raises(NotAKsk):
        parse_trust_anchors(trust_anchor_line(small_key(KeyRole.ZSK)))


def test_anchor_file_rejects_zsk_lines():
    line = trust_anchor_line(small_key(KeyRole.KSK, seed=5))
    zsk_line = line.replace("DNSKEY 257", "DNSKEY 256")
    with pytest.raises(NotAKsk):
        parse_trust_anchors(zsk_line)


def test_algorithm_mnemonics():
    assert algorithm_from_mnemonic("RSASHA1") == 5
    with pytest.raises(UnsupportedAlgorithm):
        algorithm_from_mnemonic("ED25519")


def test_legacy_keypair_cannot_sign():
    key = small_key()
    legacy = KeyPair(key.zone, key.role, 1, key.bits,
                     DnskeyRdata(256, 3, 1, key.public.public_key),
                     key.private, key.created, key.publish, key.activate)
    assert not legacy.can_sign()
    with pytest.raises(UnsupportedAlgorithm):
        legacy.sign(b"data")
    assert legacy.key_tag == legacy.public.key_tag()
