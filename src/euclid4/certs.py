"""Certificate re-verification.

Verification never trusts stored orders: the field is rebuilt from its
defining data (once per process, as the builders are memoized) and its
descriptor compared in full with the one the writer renders once per field
(certtext._field_block), the units and primes are re-validated, and all
five conditions are recomputed from scratch.  A stored prime is checked
from its own roots: the images of x and y under its stored map are a root
pair of the field's tower, the four primes above p are built from that
pair, and the stored one must be the one its conjugate index names.

The writer lives in certtext, which the table run loads without this
module; its public names are re-exported here.  The surjectivity oracle is
imported only by a verification that asks for it.
"""

from __future__ import annotations

import json
from operator import mul

from . import admissible
from .admissible import AdmissibleCertificate, check_conditions
from .certtext import (
    _CHUNK,
    _KEYS,
    _ORDER_KEYS,
    _PRIME_KEYS,
    _UNIT_KEYS,
    CONCLUSION,
    SCHEMA_VERSION,
    _field_block,
)
# The writer's public names, re-exported: the benchmark traces
# certs.certificate_to_json.
from .certtext import certificate_to_dict, certificate_to_json, units_to_dict  # noqa: F401
from .elements import NFElement
from .errors import CapExceeded, ConditionFailed, Euclid4Error, OracleMismatch, SchemaError
from .fields import FieldSpec, build_from_descriptor, registry_label
from .intmath import MAX_CF_BITS
from .residues import MAX_CERT_PRIME, DegreeOnePrime, degree_one_primes_above
from .units import Provenance, UnitData, verify_unit_data

# Text longer than a 2 MAX_CF_BITS-bit integer is refused unread.
_MAX_DIGITS = 2 * MAX_CF_BITS * 30103 // 100000 + 1

# The entries of a field descriptor (fields.field_descriptor) from which
# each kind of field is built, and all of its keys.
_FIELD_NAMES = {"biquadratic": ("m", "n"), "cyclic": ("conductor",)}
_FIELD_KEYS = {
    kind: frozenset({"kind", "minpoly", "basis", "discriminant", "index", "real_subfield_d",
                     *names})
    for kind, names in _FIELD_NAMES.items()
}


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
    recomputed condition or stored order disagrees; gcds must be a list of
    two JSON booleans, and [true, false] is ConditionFailed(2).  The field
    descriptor's shape is checked before the field is built, and only a
    ValueError or a package error from the build is a SchemaError: any
    other exception is a fault of the program, and passes through.
    """
    _object(doc, "certificate", _KEYS, frozenset({"label"}))
    if doc["version"] != SCHEMA_VERSION:
        raise SchemaError(f"unsupported version {doc['version']!r}")
    if doc["conclusion"] != CONCLUSION:
        raise SchemaError(f"unknown conclusion {doc['conclusion']!r}")

    fdesc = doc["field"]
    if not isinstance(fdesc, dict):
        raise SchemaError("field must be a JSON object")
    kind = fdesc.get("kind")
    if not isinstance(kind, str) or kind not in _FIELD_NAMES:
        raise SchemaError(f"unknown field kind {kind!r}")
    _object(fdesc, "field", _FIELD_KEYS[kind])
    for key in _FIELD_NAMES[kind]:
        _as_int(fdesc[key], f"field.{key}")
    try:
        spec = build_from_descriptor(fdesc)
    except (ValueError, Euclid4Error) as exc:
        raise SchemaError(f"field rebuild failed: {exc}") from exc
    if _field_block(spec)[0] != fdesc:
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
    # 1 == True in Python, so the type of each flag is checked first
    if not (isinstance(gcds, list) and len(gcds) == 2 and all(type(v) is bool for v in gcds)):
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
            # admissible imports the oracle on first use (admissible._LAZY)
            ok = admissible.brute_force_surjectivity(
                cert.spec, cert.units, cert.P1, cert.P2, 2, 2)
        except CapExceeded:
            ok = None
        if ok is False:
            raise OracleMismatch("the surjectivity oracle contradicts the certificate")
        report["oracle_checked"] = bool(ok)
    return report
