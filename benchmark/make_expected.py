"""Write the benchmark's frozen inputs and expected outputs into ``data/``.

Usage (from the repository root): python3 benchmark/make_expected.py

- ``data/certs/LABEL.json``: the 40 certificates of a cold
  ``euclid4 reproduce-tables --jobs 1``.
- ``data/expected.json``: SHA-256 digests of ``summary.json`` and of every
  certificate; the pair and orders ``verify`` reports for each certificate;
  the error every tamper kind must raise on every certificate; each field's
  searched pair, conjugates and certificate digest; and, for the audit
  certificates, each ``find_prime_element`` result or ``BoundExceeded``.
  It also records the git commit and source digest the data came from.

Run it again only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
from importlib import metadata

from workloads import (
    DATA,
    OUT,
    ROOT,
    SEARCH_BOUND,
    TAMPER_KINDS,
    audit_labels,
    certificate_primes,
    error_outcome,
    git_hash,
    import_program,
    prime_elements,
    program_env,
    sha256,
    source_digest,
    tamper,
)


def reproduce(labels):
    out_dir = os.path.join(OUT, "make-expected")
    shutil.rmtree(out_dir, ignore_errors=True)
    subprocess.run(
        [sys.executable, "-m", "euclid4.cli", "reproduce-tables", "--out", out_dir, "--jobs", "1"],
        cwd=ROOT, env=program_env(), check=True, capture_output=True,
    )
    files = {}
    for fname in os.listdir(out_dir):
        with open(os.path.join(out_dir, fname)) as fh:
            files[fname] = fh.read()
    shutil.rmtree(out_dir)
    summary = json.loads(files["summary.json"])
    if summary["valid_certificates"] != len(labels):
        raise SystemExit(f"reproduce-tables made {summary['valid_certificates']} certificates")
    return files, summary


def main() -> int:
    euclid4 = import_program()
    from euclid4 import admissible, certs, errors, fields, units

    labels = [entry.label for entry in fields.registry()]
    files, summary = reproduce(labels)
    texts = {label: files[f"{label}.json"] for label in labels}
    cert_dir = os.path.join(DATA, "certs")
    shutil.rmtree(cert_dir, ignore_errors=True)
    os.makedirs(cert_dir)
    for label, text in texts.items():
        with open(os.path.join(cert_dir, f"{label}.json"), "w") as fh:
            fh.write(text)

    verify, tampered = {}, {}
    for label, text in texts.items():
        report = certs.verify_certificate_json(text)
        verify[label] = {"pair": list(report["pair"]), "orders": list(report["orders"])}
        tampered[label] = {}
        for kind in TAMPER_KINDS:
            try:
                certs.verify_certificate_json(tamper(text, kind))
            except errors.Euclid4Error as exc:
                tampered[label][kind] = error_outcome(exc)
            else:
                raise SystemExit(f"{label}: tamper kind {kind} was accepted")

    search = {}
    for entry in fields.registry():
        cert = admissible.search_pair(entry.spec, units.unit_data(entry.spec), SEARCH_BOUND)
        search[entry.label] = {
            "pair": list(cert.pair),
            "conjugates": [cert.P1.conjugate_index, cert.P2.conjugate_index],
            "certificate": sha256(certs.certificate_to_json(cert, entry.label)),
        }

    audit = {}
    for label in audit_labels(texts):
        report = certs.verify_certificate_json(texts[label], oracle=True)
        if report["oracle_checked"] is not True:
            raise SystemExit(f"{label}: oracle did not confirm the certificate")
        elements = prime_elements(certificate_primes(json.loads(texts[label])))
        audit[label] = {"pair": list(report["pair"]), "prime_elements": elements}

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    expected = {
        "generated_from": {
            "git": git_hash(),
            "source_sha256": source_digest(),
            "euclid4": euclid4.__version__,
            "python": platform.python_version(),
            "numpy": numpy_version,
        },
        "labels": labels,
        "reproduce": {
            "summary": sha256(files["summary.json"]),
            "certificates": {label: sha256(text) for label, text in texts.items()},
            "counts": summary["counts"],
        },
        "verify": verify,
        "tamper": tampered,
        "search": search,
        "audit": audit,
    }
    with open(os.path.join(DATA, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(texts)} certificates and expected.json "
          f"({len(audit)} audit certificates) to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
