"""Certificate text: the writer of schema "cert/v1".

Every integer is serialized as a decimal string, so the files are exact and
language-neutral, and the text is byte for byte what json.dumps(doc,
indent=2, sort_keys=True) writes.  The key sets below are the schema: the
reader (certs) refuses any key the writer does not emit.  This module is
all that `reproduce-tables` and `search` load of the certificate code;
certs, which re-verifies a certificate, loads on `verify`.

The layout is fixed, so certificate_to_json fills one template with decimal
strings and the field block.  The field block is rendered once per field
(_field_block, which the reader's descriptor check shares); its dict never
leaves this module, and field_descriptor and certificate_to_dict return
fresh dicts.
"""

from __future__ import annotations

from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quote

from .admissible import AdmissibleCertificate
from .fields import FieldSpec, field_descriptor
from .residues import DegreeOnePrime
from .units import UnitData

# str() and int() refuse decimal text past sys.get_int_max_str_digits()
# digits (4,300 by default, never under 640), and a unit coordinate can be
# longer: an epsilon coordinate of Q(sqrt(-853503), sqrt(-495294)) has 4,740
# digits.  Integers past _CHUNK digits are written, and read (certs._as_int),
# _CHUNK digits at a time.
_CHUNK = 600
_BASE = 10 ** _CHUNK

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


@lru_cache(maxsize=128)
def _field_block(spec: FieldSpec) -> tuple[dict, str]:
    """The field's descriptor and its text at a certificate's indentation,
    memoized in an LRU of 128 like the builders' and units.unit_data's.
    The dict is the reader's to compare with and no one's to change."""
    desc = field_descriptor(spec)
    return desc, _dump(desc, "  ")


# The text of certificate_to_dict(cert, label) with its keys sorted; a %s
# slot takes a decimal string, a quoted string, the field block or the
# label line.
_PRIME = """{
    "basis_images": [
      "%s",
      "%s",
      "%s",
      "%s"
    ],
    "conjugate_index": "%s",
    "lifted_c": "%s",
    "p": "%s",
    "root_c": "%s"
  }"""
_CERTIFICATE = """{
  "P1": %s,
  "P2": %s,
  "conclusion": %s,
  "field": %s,
  "gcds": [
    true,
    true
  ],%s
  "orders": {
    "ord_eps_P1": "%s",
    "ord_eps_P2": "%s",
    "ord_eta_P1": "%s"
  },
  "units": {
    "epsilon_coords": [
      "%s",
      "%s",
      "%s",
      "%s"
    ],
    "eta_coords": [
      "%s",
      "%s",
      "%s",
      "%s"
    ],
    "g": "%s",
    "provenance": %s
  },
  "version": %s
}
"""
_QUOTED_CONCLUSION = _quote(CONCLUSION)
_QUOTED_VERSION = _quote(SCHEMA_VERSION)


def _prime_text(P: DegreeOnePrime) -> str:
    return _PRIME % (*P.basis_images, P.conjugate_index, P.lifted_c, P.p, P.lifted_c % P.p)


def certificate_to_json(cert: AdmissibleCertificate, label: str | None = None) -> str:
    """The certificate text: byte for byte json.dumps(certificate_to_dict(
    cert, label), indent=2, sort_keys=True) + "\\n".  A label that is not a
    str raises TypeError."""
    units = cert.units
    return _CERTIFICATE % (
        _prime_text(cert.P1),
        _prime_text(cert.P2),
        _QUOTED_CONCLUSION,
        _field_block(cert.spec)[1],
        "" if label is None else '\n  "label": ' + _quote(label) + ",",
        cert.ord_eps_P1,
        cert.ord_eps_P2,
        cert.ord_eta_P1,
        *map(_decimal, units.epsilon.coords),
        *map(_decimal, units.eta.coords),
        units.g,
        _quote(units.provenance.value),
        _QUOTED_VERSION,
    )
