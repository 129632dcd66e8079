"""The dict form of a cert/v1 certificate, which the writer's template is
tested against: json.dumps(certificate_to_dict(cert, label), indent=2,
sort_keys=True) + "\\n" is certtext.certificate_to_json(cert, label), byte
for byte.  No command builds this dict, so it lives with the tests."""

from euclid4.certtext import CONCLUSION, SCHEMA_VERSION, units_to_dict
from euclid4.fields import field_descriptor


def prime_dict(P) -> dict:
    return {
        "p": str(P.p),
        "root_c": str(P.lifted_c % P.p),
        "lifted_c": str(P.lifted_c),
        "conjugate_index": str(P.conjugate_index),
        "basis_images": [str(v) for v in P.basis_images],
    }


def certificate_to_dict(cert, label=None) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "field": field_descriptor(cert.spec),
        "units": units_to_dict(cert.units),
        "P1": prime_dict(cert.P1),
        "P2": prime_dict(cert.P2),
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
