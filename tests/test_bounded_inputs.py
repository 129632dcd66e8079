"""Every public entry on a random bounded biquadratic or cyclic input
returns or raises a typed error, inside a per-example time budget that
SIGALRM enforces in this process (no thread or process per example)."""

import json
import signal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euclid4.admissible import find_prime_element, search_pair
from euclid4.certs import certificate_to_json, verify_certificate_json
from euclid4.errors import Euclid4Error, SchemaError
from euclid4.fields import build_biquadratic, build_cyclic_quartic
from euclid4.intmath import is_prime, is_squarefree
from euclid4.residues import degree_one_primes_above, split_primes
from euclid4.units import unit_data

BUDGET_S = 2.0
radicands = st.integers(-10 ** 4, 10 ** 4).filter(lambda r: r not in (0, 1) and is_squarefree(r))
# one radicand negative and the two distinct, so that most examples get past
# the build; hypothesis would otherwise repeat a value as often as not
pairs = st.tuples(radicands.filter(lambda r: r < 0), radicands).filter(lambda p: p[0] != p[1])
# the prime conductors of imaginary cyclic quartic fields below 10^5, drawn
# from a list: a filter would refuse about 49 integers in 50
conductors = st.sampled_from([f for f in range(5, 10 ** 5, 8) if is_prime(f)])


def _overrun(signum, frame):
    raise TimeoutError(f"an example ran past its {BUDGET_S} s budget")


def _typed(call, *args):
    """call(*args), or None when it raises a package error."""
    try:
        return call(*args)
    except Euclid4Error:
        return None


def _entries(build, *args):
    spec = _typed(build, *args)
    units = spec and _typed(unit_data, spec)
    if units is None:
        return
    primes = _typed(degree_one_primes_above, spec, next(split_primes(spec, 10 ** 4)))
    cert = _typed(search_pair, spec, units, 100)
    if cert is not None:
        _verify_round_trip(cert)
    if primes:
        _typed(find_prime_element, primes[0], 8)


def _verify_round_trip(cert):
    """The certificate verifies from its text, the oracle included, and a
    copy that names the next conjugate above P1's p is refused."""
    text = certificate_to_json(cert)
    assert verify_certificate_json(text, oracle=True)["oracle_checked"] is True
    doc = json.loads(text)
    doc["P1"]["conjugate_index"] = str((cert.P1.conjugate_index + 1) % 4)
    with pytest.raises(SchemaError):
        verify_certificate_json(json.dumps(doc))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pair=pairs)
# both radicands lie below the cap but their third radicand, about 3.4e23,
# does not; uncapped, its squarefree test trial-divides to about 5.8e11
@example(pair=(-599688520149, -567536985833))
# eps0 has 15,745 bits, just under intmath.MAX_CF_BITS, so this field's unit
# square root must not cost time in the size of the unit, as a lattice
# search for it did (about 1.4 s)
@example(pair=(-853503, -495294))
def test_bounded_inputs_return_or_raise_a_typed_error(pair):
    _within_budget(build_biquadratic, *pair)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(f=conductors)
def test_bounded_conductors_return_or_raise_a_typed_error(f):
    _within_budget(build_cyclic_quartic, f)


def _within_budget(build, *args):
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        _entries(build, *args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
