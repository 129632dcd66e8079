import json
import random
import time
from operator import mul
from pathlib import Path
from unittest.mock import patch

import pytest

from euclid4 import certs, residues
from euclid4.admissible import search_pair
from euclid4.certs import (
    _load_prime,
    certificate_to_dict,
    certificate_to_json,
    parse_certificate,
    verify_certificate_json,
)
from euclid4.certtext import _dump, _field_block, _prime_dict
from euclid4.elements import from_power_coords, inverse_unit
from euclid4.errors import ConditionFailed, Euclid4Error, OracleMismatch, Ramified, SchemaError
from euclid4.fields import build_biquadratic, build_from_descriptor, field_descriptor
from euclid4.intmath import is_squarefree
from euclid4.residues import degree_one_primes_above
from euclid4.units import unit_data


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


def test_repeated_prime_is_schema_error():
    doc = json.loads((FROZEN_CERTS / "K_1.json").read_text())
    doc["P2"] = doc["P1"]
    with pytest.raises(SchemaError):
        parse_certificate(doc)


def test_coordinates_are_int_tuples():
    """Parsed coordinates are ints (certs._as_int), and ring operations
    keep them ints; NFElement stores them as a tuple without converting."""
    cert, _ = parse_certificate(json.loads((FROZEN_CERTS / "K_5.json").read_text()))
    eta, eps = cert.units.eta, cert.units.epsilon
    for x in (eta, eps, eta + eps, eta - eps, -eps, 3 * eps, eta * eps, eps ** 3,
              inverse_unit(eps), from_power_coords(cert.spec, (1, 2, 3, 4))):
        assert type(x.coords) is tuple and len(x.coords) == 4
        assert all(type(c) is int for c in x.coords), x


def test_verify_with_oracle_on_frozen_certificates():
    """verify --oracle on all forty frozen certificates: every factor
    (Z/p^2)* is under the oracle cap, so the orbit count confirms all 40."""
    paths = sorted(FROZEN_CERTS.glob("*.json"))
    assert len(paths) == 40
    checked = [verify_certificate_json(path.read_text(), oracle=True)["oracle_checked"]
               for path in paths]
    assert checked.count(True) == 40
    assert checked.count(False) == 0


def test_field_memo_is_never_handed_out():
    """The writer and the reader share one rendering per field; changing the
    descriptors that field_descriptor and certificate_to_dict return
    changes neither what is written next nor what verifies."""
    text = (FROZEN_CERTS / "K_1.json").read_text()
    cert, label = parse_certificate(json.loads(text))
    assert certificate_to_json(cert, label) == text
    for desc in (field_descriptor(cert.spec), certificate_to_dict(cert, label)["field"]):
        desc["basis"][1][0] = "1/3"
        desc["minpoly"].append("1")
    assert certificate_to_json(cert, label) == text
    assert verify_certificate_json(text)["label"] == "K_1"
    doc = json.loads(text)
    doc["field"]["minpoly"].append("1")
    with pytest.raises(SchemaError, match="descriptor does not match"):
        verify_certificate_json(json.dumps(doc))


def test_memoized_field_still_checks_the_descriptor():
    """Once K_1 has verified, its field is held by the builders' memo; a
    copy with one basis entry changed, or naming another field's (m, n),
    is still refused."""
    text = (FROZEN_CERTS / "K_1.json").read_text()
    verify_certificate_json(text)
    doc = json.loads(text)
    doc["field"]["basis"][1][0] = "1/3"
    with pytest.raises(SchemaError, match="descriptor does not match"):
        verify_certificate_json(json.dumps(doc))
    doc = json.loads(text)
    doc["field"].update(m="-2", n="-7")
    with pytest.raises(SchemaError):
        verify_certificate_json(json.dumps(doc))


def test_reproduction_matches_frozen_certificates(reproduction):
    """All forty reproduced rows serialize byte for byte to the frozen files."""
    assert len(reproduction) == 40
    differing = [
        label
        for label, (_, cert) in sorted(reproduction.items())
        if certificate_to_json(cert, label) != (FROZEN_CERTS / f"{label}.json").read_text()
    ]
    assert differing == []


FROZEN_PRIMES = [(path.stem, key) for path in sorted(FROZEN_CERTS.glob("*.json"))
                 for key in ("P1", "P2")]


@pytest.mark.parametrize("label, key", FROZEN_PRIMES, ids=[f"{l}-{k}" for l, k in FROZEN_PRIMES])
def test_stored_prime_loads_from_its_own_roots(label, key, monkeypatch):
    """Each of the four primes above a frozen certificate's p loads from its
    own basis images as that conjugate, with no square root taken in a
    biquadratic field and one in a cyclic field; a basis image moved by one
    is refused, and so is a pair (s, t) that is not a root pair."""
    doc = json.loads((FROZEN_CERTS / f"{label}.json").read_text())
    spec = build_from_descriptor(doc["field"])
    p = int(doc[key]["p"])
    primes = degree_one_primes_above(spec, p)
    assert _prime_dict(primes[int(doc[key]["conjugate_index"])]) == doc[key]
    calls = []
    real = residues.sqrt_mod_prime_power
    monkeypatch.setattr(residues, "sqrt_mod_prime_power",
                        lambda *args: calls.append(args) or real(*args))
    _, x, y, _ = spec.tower_rows
    for prime in primes:
        stored = _prime_dict(prime)
        calls.clear()
        assert _load_prime(stored, spec, key) == prime
        assert len(calls) == (spec.kind == "cyclic")
        for j in range(4):
            images = list(stored["basis_images"])
            images[j] = str(prime.basis_images[j] + 1)
            with pytest.raises(SchemaError):
                _load_prime(dict(stored, basis_images=images), spec, key)
        s, t = (sum(map(mul, row, prime.basis_images)) % (p * p) for row in (x, y))
        if (2 * s + 1) % (p * p) == 0:
            # s + 1 = -s (s = 12 at p = 5 in K_2), and with Ce = 0 the pair
            # (-s, t) is the root pair of another of the four maps
            assert degree_one_primes_above(spec, p, (s + 1, t)) == primes
            continue
        with pytest.raises(ValueError):
            degree_one_primes_above(spec, p, (s + 1, t))


@pytest.mark.parametrize("error, reported", [
    (TypeError("a programming error"), TypeError),
    (AttributeError("a programming error"), AttributeError),
    (ValueError("not a root pair"), SchemaError),
    (Ramified("p divides the discriminant"), SchemaError),
])
def test_prime_load_reports_only_certificate_errors(k8_cert, error, reported):
    """A bad prime is a SchemaError; an error in the code is not one."""
    def fail(*args, **kwargs):
        raise error

    text = certificate_to_json(k8_cert, "K_8")
    with patch.object(certs, "degree_one_primes_above", fail):
        with pytest.raises(reported):
            verify_certificate_json(text)


def _large_split_prime(doc):
    """P1 moved to a completely split prime near 10^17 with its true prime
    data, so that only the size of p is wrong.  10^17 + 49 is prime but far
    past the sieve, so the primality check is patched to accept it."""
    spec = build_from_descriptor(doc["field"])
    with patch.object(residues, "is_prime", lambda n: True):
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
    # 1 == 1.0 == True in Python, but the flags are JSON booleans
    "gcds-ints": lambda doc: doc.update(gcds=[1, 1]),
    "gcds-float": lambda doc: doc.update(gcds=[1.0, True]),
    "large-prime-radicands": lambda doc: doc["field"].update(m="-1000000007", n="1000000009"),
    "radicand-above-cap": lambda doc: doc["field"].update(m="-1", n=str(10 ** 12 + 39)),
    # a strong pseudoprime to the first twelve prime bases, and a large
    # prime: both lie above the certificate cap
    "P1.p-pseudoprime": lambda doc: doc["P1"].update(p="318665857834031151167461"),
    "P1.p-large-prime": lambda doc: doc["P1"].update(p="1000000007"),
    "P1.p-large-split-prime": _large_split_prime,
    # a certificate states an admissible pair and nothing the verifier does
    # not re-check, and holds no key its writer does not emit
    "conclusion-Euclidean": lambda doc: doc.update(conclusion="Euclidean"),
    "unit_rank-added": lambda doc: doc.update(unit_rank="1"),
    "orders-extra-key": lambda doc: doc["orders"].update(ord_eta_P2="1"),
    "field-label": lambda doc: doc["field"].update(label="K_8"),
    # a label must be a string naming the registry row of the field
    "label-of-another-field": lambda doc: doc.update(label="K_1"),
    "label-not-a-string": lambda doc: doc.update(label={"any": ["thing", 1]}),
    "label-unknown": lambda doc: doc.update(label="K_99"),
}


@pytest.mark.parametrize("damage", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_certificate_is_schema_error(k8_cert, damage):
    doc = certificate_to_dict(k8_cert, "K_8")
    damage(doc)
    with pytest.raises(SchemaError):
        verify_certificate_json(json.dumps(doc))


# The field descriptor's shape is checked before the field is built.
MALFORMED_FIELD = {
    "field-not-an-object": lambda doc: doc.update(field=["biquadratic", "-1", "2"]),
    "field.m-missing": lambda doc: doc["field"].pop("m"),
    "field.m-a-list": lambda doc: doc["field"].update(m=["-1"]),
    "field.m-not-decimal": lambda doc: doc["field"].update(m="x"),
    "field.m-not-canonical": lambda doc: doc["field"].update(m="+2"),
    "field.kind-unknown": lambda doc: doc["field"].update(kind="sextic"),
    "field.kind-a-list": lambda doc: doc["field"].update(kind=["biquadratic"]),
    "field.conductor-on-biquadratic": lambda doc: doc["field"].update(conductor="5"),
}


@pytest.mark.parametrize("damage", MALFORMED_FIELD.values(), ids=MALFORMED_FIELD.keys())
def test_malformed_field_descriptor_is_schema_error(k8_cert, damage):
    doc = certificate_to_dict(k8_cert, "K_8")
    damage(doc)
    with pytest.raises(SchemaError):
        verify_certificate_json(json.dumps(doc))


@pytest.mark.parametrize("error", [TypeError, AttributeError])
def test_field_build_fault_is_not_a_schema_error(k8_cert, monkeypatch, error):
    """A fault of the program in building a well-formed field passes
    through; it is not reported as a malformed certificate."""
    def broken(desc):
        raise error("a fault in the field builder")

    monkeypatch.setattr(certs, "build_from_descriptor", broken)
    with pytest.raises(error, match="field builder"):
        verify_certificate_json(certificate_to_json(k8_cert, "K_8"))


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


def reference_text(doc) -> str:
    """The certificate text as the standard library writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_writer_matches_json_dumps_on_registry_certificates(reproduction):
    for label, (_, cert) in reproduction.items():
        for name in (label, None):
            assert certificate_to_json(cert, name) == reference_text(certificate_to_dict(cert, name))


def test_writer_matches_json_dumps_on_searched_certificates():
    """Certificates that search_pair finds for 100 seeded random imaginary
    biquadratic fields with |m|, |n| <= 2,000."""
    rng = random.Random(28)
    radicands = [r for r in range(-2000, 2001) if r not in (0, 1) and is_squarefree(r)]
    negative = [r for r in radicands if r < 0]
    written = 0
    while written < 100:
        m, n = rng.choice(negative), rng.choice(radicands)
        try:
            spec = build_biquadratic(m, n)
            cert = search_pair(spec, unit_data(spec), 1000)
        except Euclid4Error:
            continue
        assert certificate_to_json(cert) == reference_text(certificate_to_dict(cert)), (m, n)
        written += 1


def nested(depth: int):
    doc = ["leaf"]
    for level in range(depth):
        doc = {f"level {level}": doc, "sibling": [True, {}]} if level % 2 else [doc, []]
    return doc


HAND_BUILT = {
    "empty-list": [],
    "empty-dict": {},
    "bare-string": "x",
    "bare-bool": False,
    "empties-inside": {"a": [], "b": {}, "c": [[], {}, [[]]], "": ""},
    "unsorted-keys": {"zeta": "1", "Alpha": "2", "alpha": "3", "_": "4", "10": "5", "9": "6"},
    "escapes": ["\"", "\\", "/", "\b\f\n\r\t", "\x00\x01\x1f\x7f", "\u2028\u2029"],
    "non-ascii": {"Käse \u03c0 \u2603": ["\U0001d11e", "\ud800"]},
    "deep": nested(60),
}


@pytest.mark.parametrize("doc", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_writer_matches_json_dumps_on_hand_built_documents(doc):
    assert _dump(doc, "") + "\n" == reference_text(doc)


@pytest.mark.parametrize("label", ['K_8 "\u00fc" \\ \x00\n\u2603', "", None])
def test_writer_matches_json_dumps_on_awkward_labels(k8_cert, label):
    assert certificate_to_json(k8_cert, label) == reference_text(certificate_to_dict(k8_cert, label))


def test_field_block_matches_json_dumps(construction_specs):
    """The memoized field block of the 274 construction fields, both kinds,
    is the "field" value as json.dumps writes it inside a certificate."""
    assert {spec.kind for spec in construction_specs} == {"biquadratic", "cyclic"}
    for spec in construction_specs:
        expected = json.dumps({"field": field_descriptor(spec)}, indent=2, sort_keys=True)
        assert '{\n  "field": ' + _field_block(spec)[1] + "\n}" == expected, spec.name()


@pytest.mark.parametrize("label", [3, 8.0, b"K_8", True, ["K_8"]])
def test_writer_refuses_a_label_that_is_not_a_string(k8_cert, label):
    with pytest.raises(TypeError):
        certificate_to_json(k8_cert, label)


@pytest.mark.parametrize("doc", [3, None, ["1", 2], {"a": None}, {"a": ["b", {"c": 0}]},
                                 ("1", "2"), {1: "a"}])
def test_writer_refuses_other_types(doc):
    with pytest.raises(TypeError):
        _dump(doc, "")


def respell(value: str, form: str) -> str:
    """The canonical decimal value spelled another way that int() reads as
    the same integer."""
    sign, digits = value[:value.startswith("-")], value.lstrip("-")
    return {
        "underscore": sign + (digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits),
        "sign-and-spaces": f" {sign or '+'}{digits} ",
        "arabic-indic-digits": sign + digits.translate(str.maketrans("0123456789", ARABIC_INDIC)),
        "leading-zeros": sign + "00" + digits,
        "negative-zero": "-" + digits,  # for a zero value only
    }[form]


ARABIC_INDIC = "".join(chr(0x660 + i) for i in range(10))
# leaves of the K_8 certificate (pair 3, 59), as key paths
LEAVES = {
    "prime": ("P2", "p"),
    "order": ("orders", "ord_eps_P2"),
    "g": ("units", "g"),
    "unit-coordinate": ("units", "epsilon_coords", 3),
    "basis-image": ("P1", "basis_images", 2),
    "zero-unit-coordinate": ("units", "epsilon_coords", 2),
    "zero-basis-image": ("P1", "basis_images", 1),
}
NON_CANONICAL = [
    (form, leaf)
    for form in ("underscore", "sign-and-spaces", "arabic-indic-digits", "leading-zeros")
    for leaf in ("prime", "order", "g", "unit-coordinate", "basis-image")
] + [("negative-zero", "zero-unit-coordinate"), ("negative-zero", "zero-basis-image")]


@pytest.mark.parametrize("form, leaf", NON_CANONICAL, ids=[f"{f}-{l}" for f, l in NON_CANONICAL])
def test_non_canonical_integer_text_is_schema_error(k8_cert, form, leaf):
    """Each spelling reads as the stored value under int(), so only the
    canonical-text rule refuses it."""
    doc = certificate_to_dict(k8_cert, "K_8")
    *path, last = LEAVES[leaf]
    parent = doc
    for key in path:
        parent = parent[key]
    text = respell(parent[last], form)
    assert text != parent[last] and int(text) == int(parent[last])
    parent[last] = text
    with pytest.raises(SchemaError, match="canonical"):
        verify_certificate_json(json.dumps(doc))


@pytest.fixture(scope="module")
def long_unit_cert():
    """An epsilon coordinate of this field has 4,740 digits, past the 4,300
    that str() and int() accept by default."""
    spec = build_biquadratic(-853503, -495294)
    return search_pair(spec, unit_data(spec), 100)


def test_long_unit_coordinates_round_trip(long_unit_cert):
    text = certificate_to_json(long_unit_cert)
    coords = json.loads(text)["units"]["epsilon_coords"]
    assert max(len(c.lstrip("-")) for c in coords) == 4740
    parsed, _ = parse_certificate(json.loads(text))
    assert parsed.units == long_unit_cert.units
    assert verify_certificate_json(text)["pair"] == long_unit_cert.pair


def test_writer_matches_json_dumps_on_long_unit_coordinates(long_unit_cert):
    """The 4,740-digit coordinate is written _CHUNK digits at a time."""
    assert certificate_to_json(long_unit_cert) == reference_text(certificate_to_dict(long_unit_cert))


@pytest.mark.parametrize("form", ["underscore", "sign-and-spaces", "arabic-indic-digits",
                                  "leading-zeros", "too-long"])
def test_long_non_canonical_integer_text_is_schema_error(long_unit_cert, form):
    doc = certificate_to_dict(long_unit_cert)
    coords = doc["units"]["epsilon_coords"]
    if form == "too-long":
        coords[0] = "9" * 20000
        match = "digits"
    else:
        coords[0] = respell(coords[0], form)
        match = "canonical"
    with pytest.raises(SchemaError, match=match):
        verify_certificate_json(json.dumps(doc))
