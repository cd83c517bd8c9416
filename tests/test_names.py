import itertools

import pytest
from hypothesis import given, strategies as st

from dnsseclab.names import ROOT, DnsName, NameError_, OversizeName, canonical_compare


def name(text):
    return DnsName.from_text(text)


def test_parent_sorts_before_child():
    assert canonical_compare(name("domaine.ma."), name("www.domaine.ma.")) == -1


def test_sort_order_example():
    names = [name("www.domaine.ma."), name("domaine.ma."), name("mail.domaine.ma.")]
    ordered = sorted(names, key=DnsName.canonical_key)
    assert ordered == [name("domaine.ma."), name("mail.domaine.ma."),
                       name("www.domaine.ma.")]


def test_case_insensitive_equality():
    assert canonical_compare(name("A.example."), name("a.EXAMPLE.")) == 0
    assert name("A.example.") == name("a.EXAMPLE.")
    assert hash(name("A.example.")) == hash(name("a.EXAMPLE."))


def _brute_force_key(n: DnsName):
    """Independent oracle: reverse the lowercased label list and compare
    lexicographically."""
    return list(reversed([l.lower() for l in n.labels]))


def small_universe():
    """Every name over a 3-letter alphabet with up to 3 labels of up to 2 octets."""
    labels = [bytes(c) for r in (1, 2)
              for c in itertools.product(b"abc", repeat=r)]
    names = [ROOT]
    for count in (1, 2, 3):
        names.extend(DnsName(combo) for combo in itertools.product(labels, repeat=count))
    return names


def test_canonical_order_matches_brute_force_exhaustively():
    universe = small_universe()
    by_impl = sorted(universe, key=DnsName.canonical_key)
    by_oracle = sorted(universe, key=_brute_force_key)
    assert by_impl == by_oracle


def test_total_order_axioms_on_small_universe():
    universe = small_universe()[:40]
    for a, b in itertools.product(universe, repeat=2):
        ab, ba = canonical_compare(a, b), canonical_compare(b, a)
        assert ab == -ba
        assert (ab == 0) == (a == b)
    for a, b, c in itertools.islice(itertools.product(universe, repeat=3), 20000):
        if canonical_compare(a, b) <= 0 and canonical_compare(b, c) <= 0:
            assert canonical_compare(a, c) <= 0


def test_label_length_limits():
    DnsName([b"a" * 63])
    with pytest.raises(OversizeName):
        DnsName([b"a" * 64])
    with pytest.raises(OversizeName):
        DnsName([b""])


def test_total_name_length_limit():
    DnsName([b"a" * 63] * 3 + [b"a" * 61])  # 64*3 + 62 + 1 = 255
    with pytest.raises(OversizeName):
        DnsName([b"a" * 63] * 3 + [b"a" * 62])


def test_text_round_trip_and_relative():
    origin = name("domaine.ma.")
    assert DnsName.from_text("www", origin) == name("www.domaine.ma.")
    assert DnsName.from_text("@", origin) == origin
    assert DnsName.from_text(".") == ROOT
    assert name("www.domaine.ma.").to_text() == "www.domaine.ma."
    assert name("www.domaine.ma.").relativize(origin) == "www"
    assert origin.relativize(origin) == "@"
    with pytest.raises(NameError_):
        DnsName.from_text("www")  # relative without origin


@pytest.mark.parametrize("text, expected", [
    ("domaine.ma", "domaine.ma."),
    ("domaine.ma.", "domaine.ma."),
    (".", "."),
    ("", "."),
    ("a..b", NameError_),
])
def test_command_line_names_are_relative_to_the_root(text, expected):
    """Names from the command line and config files parse against the root,
    so a trailing dot is optional there."""
    if expected is NameError_:
        with pytest.raises(NameError_):
            DnsName.from_text(text, ROOT)
    else:
        assert DnsName.from_text(text, ROOT) == name(expected)


def test_subdomain_and_parent():
    assert name("www.domaine.ma.").is_subdomain_of(name("domaine.ma."))
    assert name("domaine.ma.").is_subdomain_of(name("domaine.ma."))
    assert not name("domaine.ma.").is_subdomain_of(name("www.domaine.ma."))
    assert name("www.domaine.ma.").is_subdomain_of(ROOT)
    assert name("www.domaine.ma.").parent() == name("domaine.ma.")


def test_wire_forms():
    n = name("WWW.Domaine.ma.")
    assert n.to_wire() == b"\x03WWW\x07Domaine\x02ma\x00"
    assert n.canonical_wire() == b"\x03www\x07domaine\x02ma\x00"
    assert ROOT.to_wire() == b"\x00"


label_st = st.binary(min_size=1, max_size=8).map(
    lambda b: bytes(x if x not in b".\\" else ord("x") for x in b))


@given(st.lists(label_st, min_size=0, max_size=4))
def test_parent_always_sorts_first(labels):
    child = DnsName(labels)
    for i in range(1, len(labels) + 1):
        ancestor = DnsName(labels[i:])
        assert canonical_compare(ancestor, child) <= 0
        assert child.is_subdomain_of(ancestor)
