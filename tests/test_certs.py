import json
import time
from pathlib import Path

import pytest

from euclid4.certs import (
    _prime_dict,
    certificate_to_dict,
    certificate_to_json,
    parse_certificate,
    verify_certificate_json,
)
from euclid4.errors import ConditionFailed, OracleMismatch, SchemaError
from euclid4.fields import build_from_descriptor
from euclid4.residues import degree_one_primes_above


@pytest.fixture(scope="module")
def k8_cert(reproduction):
    _, cert = reproduction["K_8"]
    return cert


def test_round_trip(k8_cert):
    text = certificate_to_json(k8_cert, "K_8")
    doc = json.loads(text)
    parsed, label = parse_certificate(doc)
    assert label == "K_8"
    assert parsed.pair == k8_cert.pair
    assert parsed.ord_eps_P1 == k8_cert.ord_eps_P1
    assert certificate_to_json(parsed, "K_8") == text


def test_all_integers_are_strings(k8_cert):
    doc = certificate_to_dict(k8_cert, "K_8")

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert isinstance(node, (str, bool)), node

    walk(doc)


def test_tampered_order_detected(k8_cert):
    doc = certificate_to_dict(k8_cert, "K_8")
    doc["orders"]["ord_eps_P1"] = str(k8_cert.ord_eps_P1 * 2)
    with pytest.raises(ConditionFailed) as exc:
        parse_certificate(doc)
    assert exc.value.condition == 1


def test_tampered_unit_detected(k8_cert):
    doc = certificate_to_dict(k8_cert, "K_8")
    doc["units"]["epsilon_coords"] = ["1", "0", "0", "0"]
    with pytest.raises(SchemaError):
        parse_certificate(doc)


def test_tampered_prime_detected(k8_cert):
    doc = certificate_to_dict(k8_cert, "K_8")
    doc["P1"]["lifted_c"] = str(int(doc["P1"]["lifted_c"]) + 3)
    with pytest.raises(SchemaError):
        parse_certificate(doc)


def test_tampered_gcd_flags_detected(k8_cert):
    doc = certificate_to_dict(k8_cert, "K_8")
    doc["gcds"] = [True, False]
    with pytest.raises(ConditionFailed) as exc:
        parse_certificate(doc)
    assert exc.value.condition == 2


def test_schema_errors(k8_cert):
    with pytest.raises(SchemaError):
        verify_certificate_json("not json at all")
    doc = certificate_to_dict(k8_cert, "K_8")
    doc["version"] = "cert/v999"
    with pytest.raises(SchemaError):
        parse_certificate(doc)
    doc = certificate_to_dict(k8_cert, "K_8")
    del doc["units"]
    with pytest.raises(SchemaError):
        parse_certificate(doc)
    doc = certificate_to_dict(k8_cert, "K_8")
    doc["orders"]["ord_eps_P1"] = 3  # bare int violates the decimal-string rule
    with pytest.raises(SchemaError):
        parse_certificate(doc)


def test_verify_with_oracle(k8_cert):
    report = verify_certificate_json(certificate_to_json(k8_cert, "K_8"), oracle=True)
    assert report["oracle_checked"] is True
    assert report["pair"] == (3, 59)


def test_verify_without_oracle(k8_cert):
    report = verify_certificate_json(certificate_to_json(k8_cert))
    assert report["label"] is None
    assert report["oracle_checked"] is False


FROZEN_CERTS = Path(__file__).resolve().parent.parent / "benchmark" / "data" / "certs"


def test_verify_with_oracle_on_frozen_certificates():
    """verify --oracle on all forty frozen certificates: the enumeration
    confirms the 28 whose group is under the oracle cap and skips the 12
    above it."""
    paths = sorted(FROZEN_CERTS.glob("*.json"))
    assert len(paths) == 40
    checked = [verify_certificate_json(path.read_text(), oracle=True)["oracle_checked"]
               for path in paths]
    assert checked.count(True) == 28
    assert checked.count(False) == 12


def test_reproduction_matches_frozen_certificates(reproduction):
    """All forty reproduced rows serialize byte for byte to the frozen files."""
    assert len(reproduction) == 40
    differing = [
        label
        for label, (_, cert) in sorted(reproduction.items())
        if certificate_to_json(cert, label) != (FROZEN_CERTS / f"{label}.json").read_text()
    ]
    assert differing == []


def _large_split_prime(doc):
    """P1 moved to a completely split prime near 10^17 with its true prime
    data, so that only the size of p is wrong."""
    spec = build_from_descriptor(doc["field"])
    primes = degree_one_primes_above(spec, 100000000000000049)
    doc["P1"] = _prime_dict(primes[int(doc["P1"]["conjugate_index"])])


MALFORMED = {
    "P1.root_c-missing": lambda doc: doc["P1"].pop("root_c"),
    "P2.lifted_c-missing": lambda doc: doc["P2"].pop("lifted_c"),
    # root_c is written as lifted_c mod p; a change to it alone is caught
    "P1.root_c-changed": lambda doc: doc["P1"].update(
        root_c=str((int(doc["P1"]["root_c"]) + 1) % int(doc["P1"]["p"]))),
    "three-eta_coords": lambda doc: doc["units"]["eta_coords"].pop(),
    "units-not-an-object": lambda doc: doc.update(units=5),
    "P1-not-an-object": lambda doc: doc.update(P1=7),
    "gcds-not-a-list": lambda doc: doc.update(gcds=1),
    "large-prime-radicands": lambda doc: doc["field"].update(m="-1000000007", n="1000000009"),
    "radicand-above-cap": lambda doc: doc["field"].update(m="-1", n=str(10 ** 12 + 39)),
    # a strong pseudoprime to every Miller-Rabin base used, and a large prime
    "P1.p-pseudoprime": lambda doc: doc["P1"].update(p="318665857834031151167461"),
    "P1.p-large-prime": lambda doc: doc["P1"].update(p="1000000007"),
    "P1.p-large-split-prime": _large_split_prime,
}


@pytest.mark.parametrize("damage", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_certificate_is_schema_error(k8_cert, damage):
    doc = certificate_to_dict(k8_cert, "K_8")
    damage(doc)
    with pytest.raises(SchemaError):
        verify_certificate_json(json.dumps(doc))


def test_large_unit_verifies_quickly(k8_cert):
    """epsilon^3233 is a genuine unit with about 4,200-digit coordinates
    (Python parses at most 4,300) and, 3233 = 53 * 61 being prime to every
    order the conditions use, the certificate stays valid; the torsion test
    must not grow with the size of epsilon."""
    doc = certificate_to_dict(k8_cert, "K_8")
    big = k8_cert.units.epsilon ** 3233
    assert max(len(str(abs(c))) for c in big.coords) > 4000
    doc["units"]["epsilon_coords"] = [str(c) for c in big.coords]
    start = time.perf_counter()
    report = verify_certificate_json(json.dumps(doc))
    assert time.perf_counter() - start < 1.0
    assert report["pair"] == k8_cert.pair
