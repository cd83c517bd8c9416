"""A real signed NSEC replayed where it proves nothing is Bogus end to end.

Each row of `hostile.FORGED_DENIALS` replaces the authority's reply to one
question with a denial built from a real signed NSEC of the parent: its
own NXDOMAIN for `www.sub` below the delegation `sub`, a NODATA for `sub
DNSKEY` by `sub`'s parent-side NSEC, and a NODATA for `ftp A` by the NSEC of
`ftp`, a CNAME owner. Every record in it verifies, but the NSEC does not
prove the denial (RFC 4035 §5.4, RFC 6840 §4.1), so a validating resolver
answers SERVFAIL without AD, stores no entry and no NSEC gap, and answers
the real lookup afterwards Secure."""

import pytest

from dnsseclab.message import Rcode

from hostile import FORGED_DENIALS, SUB_AUTHORITY, forged_denial, hostile_victim, \
    signed_delegation


@pytest.fixture(scope="module")
def zones():
    return signed_delegation()


@pytest.mark.parametrize("case", FORGED_DENIALS)
def test_a_forged_denial_is_refused_and_stores_nothing(zones, case):
    parent, child, anchor = zones
    qname, qtype, forged = forged_denial(parent, case)
    armed = [True]

    def tamper(reply):
        if armed[0] and (reply.question.name, reply.question.qtype) == (qname, qtype):
            reply.rcode, reply.flags = forged.rcode, forged.flags
            reply.answers[:], reply.authority[:] = [], forged.authority
            reply.additional[:] = []

    network, victim = hostile_victim(parent, tamper, anchor, below=[(SUB_AUTHORITY, child)])
    reply = victim.resolve_name(qname, qtype, do=True)
    assert reply.rcode == Rcode.SERVFAIL and "ad" not in reply.flags
    assert victim.cache.entries() == [] and not victim.cache._gaps

    armed[0] = False
    real = victim.resolve_name(qname, qtype, do=True)
    assert real.rcode == Rcode.NOERROR and "ad" in real.flags and real.answers
