"""Certificate persistence and independent re-verification.

Schema "cert/v1".  Every integer is serialized as a decimal string so the
files are exact and language-neutral.  Verification never trusts stored
orders: the field is rebuilt from its defining data (once per process, as
the builders are memoized) and its descriptor compared in full, the units
and primes are re-validated, and all five conditions are recomputed from
scratch.  A stored prime is checked from its own roots: the images of x and
y under its stored map are a root pair of the field's tower, the four
primes above p are built from that pair, and the stored one must be the
one its conjugate index names.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from operator import mul

from .admissible import (
    MAX_CERT_PRIME,
    AdmissibleCertificate,
    brute_force_surjectivity,
    check_conditions,
)
from .elements import NFElement
from .errors import CapExceeded, ConditionFailed, Euclid4Error, OracleMismatch, SchemaError
from .fields import FieldSpec, build_from_descriptor, field_descriptor, registry_label
from .intmath import MAX_CF_BITS
from .residues import DegreeOnePrime, degree_one_primes_above
from .units import Provenance, UnitData, verify_unit_data

# str() and int() refuse decimal text past sys.get_int_max_str_digits()
# digits (4,300 by default, never under 640), and a unit coordinate can be
# longer: an epsilon coordinate of Q(sqrt(-853503), sqrt(-495294)) has 4,740
# digits.  Integers past _CHUNK digits are written and read _CHUNK digits at
# a time, and text longer than a 2 MAX_CF_BITS-bit integer is refused unread.
_CHUNK = 600
_BASE = 10 ** _CHUNK
_MAX_DIGITS = 2 * MAX_CF_BITS * 30103 // 100000 + 1

SCHEMA_VERSION = "cert/v1"
# The one statement a certificate makes: P1, P2 is an admissible pair.
CONCLUSION = "AdmissiblePair"

# The keys of each object, exactly as certificate_to_dict writes them; the
# top level may also hold a label, the registry label of the field.
_KEYS = frozenset({"version", "field", "units", "P1", "P2", "orders", "gcds", "conclusion"})
_UNIT_KEYS = frozenset({"g", "eta_coords", "epsilon_coords", "provenance"})
_PRIME_KEYS = frozenset({"p", "root_c", "lifted_c", "conjugate_index", "basis_images"})
_ORDER_KEYS = frozenset({"ord_eps_P1", "ord_eta_P1", "ord_eps_P2"})


def _prime_dict(P: DegreeOnePrime) -> dict:
    return {
        "p": str(P.p),
        "root_c": str(P.lifted_c % P.p),
        "lifted_c": str(P.lifted_c),
        "conjugate_index": str(P.conjugate_index),
        "basis_images": [str(v) for v in P.basis_images],
    }


def _decimal(n: int) -> str:
    """str(n), for an int of any length."""
    if n < 0:
        return "-" + _decimal(-n)
    chunks = []
    while n >= _BASE:
        n, low = divmod(n, _BASE)
        chunks.append(str(low).zfill(_CHUNK))
    return str(n) + "".join(reversed(chunks))


def units_to_dict(units: UnitData) -> dict:
    """The units block of a certificate, which `euclid4 field info` prints too."""
    return {
        "g": str(units.g),
        "eta_coords": [_decimal(c) for c in units.eta.coords],
        "epsilon_coords": [_decimal(c) for c in units.epsilon.coords],
        "provenance": units.provenance.value,
    }


def certificate_to_dict(cert: AdmissibleCertificate, label: str | None = None) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "field": field_descriptor(cert.spec),
        "units": units_to_dict(cert.units),
        "P1": _prime_dict(cert.P1),
        "P2": _prime_dict(cert.P2),
        "orders": {
            "ord_eps_P1": str(cert.ord_eps_P1),
            "ord_eta_P1": str(cert.ord_eta_P1),
            "ord_eps_P2": str(cert.ord_eps_P2),
        },
        "gcds": [True, True],
        "conclusion": CONCLUSION,
    }
    if label is not None:
        doc["label"] = label
    return doc


def _dump(node, pad: str) -> str:
    """node as json.dumps(node, indent=2, sort_keys=True) writes it at
    indentation pad, for str, bool, list and str-keyed dict nodes only;
    any other type raises TypeError.  With indent set, json.dumps runs its
    pure-Python encoder; this writer quotes with the C-accelerated one, and
    quotes a str child in place instead of recursing into it."""
    inner = pad + "  "
    if isinstance(node, list):
        items = [_quote(v) if isinstance(v, str) else _dump(v, inner) for v in node]
        opening, closing = "[", "]"
    elif isinstance(node, dict):
        items = [_quote(k) + ": " + (_quote(v) if isinstance(v, str) else _dump(v, inner))
                 for k, v in sorted(node.items())]
        opening, closing = "{", "}"
    elif node is True:
        return "true"
    elif node is False:
        return "false"
    elif isinstance(node, str):
        return _quote(node)
    else:
        raise TypeError(f"a certificate holds no {type(node).__name__}")
    if not items:
        return opening + closing
    return opening + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + closing


def certificate_to_json(cert: AdmissibleCertificate, label: str | None = None) -> str:
    """The certificate text: byte for byte json.dumps(certificate_to_dict(
    cert, label), indent=2, sort_keys=True) + "\\n"."""
    return _dump(certificate_to_dict(cert, label), "") + "\n"


def _object(doc, what: str, keys: frozenset, optional: frozenset = frozenset()) -> dict:
    """doc, once it is a JSON object holding every key of keys and no key
    outside keys and optional."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be a JSON object")
    if doc.keys() - optional != keys:
        raise SchemaError(f"{what} keys {sorted(doc)} differ from the schema's {sorted(keys)}")
    return doc


def _as_int(value, what: str) -> int:
    """value, a canonical decimal string, as an int.  int() also reads
    signs, spaces, underscores, leading zeros and non-ASCII digits, so only
    the text str() writes back is accepted."""
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a decimal string, got {type(value).__name__}")
    if len(value) > _CHUNK:
        return _as_long_int(value, what)
    try:
        n = int(value)
    except ValueError as exc:
        raise SchemaError(f"{what} is not a decimal integer: {value!r}") from exc
    if str(n) != value:
        raise SchemaError(f"{what} is not a canonical decimal integer: {value!r}")
    return n


def _as_long_int(value: str, what: str) -> int:
    """_as_int for text of more than _CHUNK characters: canonical when it is
    ASCII digits with no leading zero after an optional minus sign."""
    if len(value) > _MAX_DIGITS:
        raise SchemaError(f"{what} has more than {_MAX_DIGITS} digits")
    negative = value.startswith("-")
    digits = value[negative:]
    if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
        raise SchemaError(f"{what} is not a canonical decimal integer: {value[:40]!r}...")
    n = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i:i + _CHUNK]
        n = n * 10 ** len(chunk) + int(chunk)
    return -n if negative else n


def _as_coords(value, what: str) -> tuple[int, int, int, int]:
    if not isinstance(value, list) or len(value) != 4:
        raise SchemaError(f"{what} must be a list of 4 decimal strings")
    return tuple(_as_int(v, what) for v in value)


def _load_prime(doc: dict, spec: FieldSpec, what: str) -> DegreeOnePrime:
    """The prime a certificate stores, once it is one of the four above its
    p.  The images of x and y under the stored map are a root pair of the
    tower, from which degree_one_primes_above builds all four."""
    _object(doc, what, _PRIME_KEYS)
    p = _as_int(doc["p"], f"{what}.p")
    if p > MAX_CERT_PRIME:
        raise SchemaError(f"{what}.p = {p} exceeds the certificate cap {MAX_CERT_PRIME}")
    conj = _as_int(doc["conjugate_index"], f"{what}.conjugate_index")
    stored = (
        _as_int(doc["root_c"], f"{what}.root_c"),
        _as_int(doc["lifted_c"], f"{what}.lifted_c"),
        _as_coords(doc["basis_images"], f"{what}.basis_images"),
    )
    _, x, y, _ = spec.tower_rows
    images = stored[2]
    root = (sum(map(mul, x, images)), sum(map(mul, y, images)))
    try:
        candidates = degree_one_primes_above(spec, p, root)
    except (ValueError, Euclid4Error) as exc:
        raise SchemaError(f"{what}: {exc}") from exc
    if not 0 <= conj < len(candidates):
        raise SchemaError(f"{what}: conjugate index {conj} out of range")
    prime = candidates[conj]
    actual = (prime.lifted_c % p, prime.lifted_c, prime.basis_images)
    if stored != actual:
        raise SchemaError(f"{what}: stored prime data does not match recomputation")
    return prime


def parse_certificate(doc: dict) -> tuple[AdmissibleCertificate, str | None]:
    """Validate a certificate document and re-verify everything it claims.

    Raises SchemaError for structural problems, ConditionFailed(n) when a
    recomputed condition or stored order disagrees.
    """
    _object(doc, "certificate", _KEYS, frozenset({"label"}))
    if doc["version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported version {doc['version']!r}")
    if doc["conclusion"] != CONCLUSION:
        raise SchemaError(f"unknown conclusion {doc['conclusion']!r}")

    fdesc = doc["field"]
    try:
        spec = build_from_descriptor(fdesc)
    except Exception as exc:
        raise SchemaError(f"field rebuild failed: {exc}") from exc
    if field_descriptor(spec) != fdesc:
        raise SchemaError("field descriptor does not match the rebuilt field")
    # a label, the one value not re-derived below, must name this field's row
    if "label" in doc and doc["label"] != registry_label(spec):
        raise SchemaError(f"label {doc['label']!r} does not name {spec.name()} in the registry")

    udoc = _object(doc["units"], "units", _UNIT_KEYS)
    g = _as_int(udoc["g"], "units.g")
    eta = NFElement(spec, _as_coords(udoc["eta_coords"], "units.eta_coords"))
    eps = NFElement(spec, _as_coords(udoc["epsilon_coords"], "units.epsilon_coords"))
    try:
        prov = Provenance(udoc["provenance"])
    except ValueError as exc:
        raise SchemaError(f"bad provenance: {exc}") from exc
    units = UnitData(g, eta, eps, prov)
    if not verify_unit_data(units):
        raise SchemaError("unit data failed verification")

    P1 = _load_prime(doc["P1"], spec, "P1")
    P2 = _load_prime(doc["P2"], spec, "P2")
    if P1.p == P2.p:
        raise SchemaError(f"P1 and P2 both lie above p = {P1.p}")

    result = check_conditions(spec, units, P1, P2)

    stored_orders = _object(doc["orders"], "orders", _ORDER_KEYS)
    for key, value, cond in (
        ("ord_eps_P1", result.ord_eps_P1, 1),
        ("ord_eta_P1", result.ord_eta_P1, 4),
        ("ord_eps_P2", result.ord_eps_P2, 5),
    ):
        if _as_int(stored_orders[key], key) != value:
            raise ConditionFailed(cond, f"stored {key} disagrees with recomputed {value}")
    gcds = doc["gcds"]
    if not isinstance(gcds, list):
        raise SchemaError("gcds must be a list of two booleans")
    if gcds != [True, True]:
        raise ConditionFailed(2, "stored gcd flags are not both true")
    return result, doc.get("label")


def verify_certificate_json(text: str, oracle: bool = False) -> dict:
    """Full verification of a serialized certificate.

    Returns a small report dict; raises SchemaError / ConditionFailed /
    OracleMismatch on any defect.  With oracle=True the surjectivity
    oracle is run as well unless a factor of the residue group is above
    its default cap.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    cert, label = parse_certificate(doc)
    report = {
        "label": label,
        "field": cert.spec.name(),
        "pair": cert.pair,
        "orders": (cert.ord_eps_P1, cert.ord_eta_P1, cert.ord_eps_P2),
        "oracle_checked": False,
    }
    if oracle:
        try:
            ok = brute_force_surjectivity(cert.spec, cert.units, cert.P1, cert.P2, 2, 2)
        except CapExceeded:
            ok = None
        if ok is False:
            raise OracleMismatch("the surjectivity oracle contradicts the certificate")
        report["oracle_checked"] = bool(ok)
    return report
