"""Command-line interface: field inspection, pair search, certificate
verification, and the full table-reproduction run.

Exit codes: 0 success, 1 verification/search failure, 2 usage error,
among them an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .admissible import PairAttempts, search_pair
from .certtext import certificate_to_json, units_to_dict
from .errors import (
    CapExceeded,
    ConditionFailed,
    OracleMismatch,
    Ramified,
    SchemaError,
    SearchExhausted,
    UnknownLabel,
)
from .fields import FieldRegistryEntry, field_descriptor, registry, registry_entry
from .intmath import Record
from .units import unit_data

STATUS_REPRODUCED = "Reproduced"
STATUS_ALTERNATIVE = "AlternativePairFound"
STATUS_FAILED = "Failed"


class RunReport(Record):
    """One row's outcome; mutable, as cmd_reproduce_tables sets
    certificate_path once the file is written, and so unhashable."""

    __slots__ = ("label", "status", "pair", "certificate_path", "elapsed_ms", "stats")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, label: str, status: str, pair: tuple[int, int] | None,
                 certificate_path: str | None, elapsed_ms: float, stats: dict):
        self._fill(label, status, pair, certificate_path, elapsed_ms, stats)

    def row(self) -> dict:
        """Deterministic summary row (timing deliberately excluded)."""
        return {
            "label": self.label,
            "status": self.status,
            "pair": list(self.pair) if self.pair else None,
            "certificate": self.certificate_path,
            "stats": self.stats,
        }


def reproduce_row(entry: FieldRegistryEntry, bound: int = 1000):
    """Reproduce one registry row.

    First the reference pair is tried across all conjugate combinations and
    all torsion multiples of the canonical unit; if no combination passes,
    a deterministic search provides an alternative admissible pair.
    """
    spec = entry.spec
    start = time.monotonic()
    ud = unit_data(spec)
    stats: dict = {}
    try:
        cert = PairAttempts(spec, ud).attempt(*entry.expected_p1_p2)
    except Ramified:
        cert = None
    status = STATUS_REPRODUCED if cert is not None else STATUS_FAILED
    if cert is None:
        try:
            cert = search_pair(spec, ud, bound)
            status = STATUS_ALTERNATIVE
            stats = {"search_bound": bound}
        except SearchExhausted as exc:
            stats = dict(exc.stats)
    elapsed = (time.monotonic() - start) * 1000
    report = RunReport(
        label=entry.label,
        status=status,
        pair=cert.pair if cert else None,
        certificate_path=None,
        elapsed_ms=elapsed,
        stats=stats,
    )
    return report, cert


def _default_cert_dir() -> str | None:
    return os.environ.get("EUCLID_CERT_DIR")


def cmd_field(args) -> int:
    if args.action == "list":
        for entry in registry():
            print(
                f"{entry.label:5s} {entry.spec.name():45s} "
                f"g={entry.expected_g:<2d} pair={entry.expected_p1_p2}"
            )
        return 0
    entry = registry_entry(args.label)
    doc = {
        "label": entry.label,
        "field": field_descriptor(entry.spec),
        "expected_g": str(entry.expected_g),
        "expected_p1_p2": [str(p) for p in entry.expected_p1_p2],
        "units": units_to_dict(unit_data(entry.spec)),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_search(args) -> int:
    entry = registry_entry(args.label)
    ud = unit_data(entry.spec)
    try:
        cert = search_pair(entry.spec, ud, args.bound)
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        for key, value in sorted(exc.stats.items()):
            print(f"  {key}: {value}", file=sys.stderr)
        return 1
    print(f"{entry.label}: admissible pair (p1, p2) = {cert.pair}")
    n1 = cert.ord_eps_P1
    print(f"  (1) ord(eps) mod P1^2 = {n1} = p1(p1-1)/g")
    print(f"  (2) gcd({n1}, {cert.P2.p * (cert.P2.p - 1)}) = 1")
    print(f"  (3) gcd({n1}, {cert.units.g}) = 1")
    print(f"  (4) ord(eta) mod P1^2 = {cert.ord_eta_P1} = g")
    print(f"  (5) ord(eps) mod P2^2 = {cert.ord_eps_P2} = p2(p2-1)")
    payload = certificate_to_json(cert, entry.label)
    emit = args.emit
    if emit is None and _default_cert_dir():
        emit = os.path.join(
            _default_cert_dir(), f"{entry.label}_{cert.P1.p}_{cert.P2.p}.json"
        )
    if emit:
        os.makedirs(os.path.dirname(emit) or ".", exist_ok=True)
        with open(emit, "w") as fh:
            fh.write(payload)
        print(f"certificate written to {emit}")
    else:
        print(payload, end="")
    return 0


def cmd_verify(args) -> int:
    """Verify every named certificate and report each one; 2 when a file
    cannot be read, else 1 when one fails, else 0."""
    from .certs import verify_certificate_json

    unreadable = failed = False
    for path in args.certificate:
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read certificate {path}: {exc}", file=sys.stderr)
            unreadable = True
            continue
        try:
            report = verify_certificate_json(text, oracle=args.oracle)
        except (SchemaError, ConditionFailed, OracleMismatch) as exc:
            print(f"verification failed for {path}: {exc}", file=sys.stderr)
            failed = True
            continue
        msg = f"valid certificate {path} for {report['field']}, pair {report['pair']}"
        if args.oracle:
            msg += (
                ", oracle-confirmed"
                if report["oracle_checked"]
                else ", oracle skipped (group above cap)"
            )
        print(msg)
    return 2 if unreadable else 1 if failed else 0


def _reproduce_one(payload):
    label, bound = payload
    entry = registry_entry(label)
    report, cert = reproduce_row(entry, bound)
    text = certificate_to_json(cert, label) if cert else None
    return label, report, text


def cmd_reproduce_tables(args) -> int:
    out_dir = args.out or _default_cert_dir() or "table_reports"
    os.makedirs(out_dir, exist_ok=True)
    labels = [entry.label for entry in registry()]
    payloads = [(label, args.bound) for label in labels]
    if args.jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(args.jobs) as pool:
            raw = pool.map(_reproduce_one, payloads)
    else:
        raw = [_reproduce_one(p) for p in payloads]
    by_label = {label: (report, text) for label, report, text in raw}

    rows = []
    counts = {STATUS_REPRODUCED: 0, STATUS_ALTERNATIVE: 0, STATUS_FAILED: 0}
    for label in labels:
        report, text = by_label[label]
        if text is not None:
            path = os.path.join(out_dir, f"{label}.json")
            with open(path, "w") as fh:
                fh.write(text)
            report.certificate_path = f"{label}.json"
        counts[report.status] += 1
        rows.append(report)
        print(
            f"{label:5s} {report.status:22s} pair={report.pair}  "
            f"({report.elapsed_ms:.0f} ms)"
        )

    summary = {
        "rows": [r.row() for r in rows],
        "counts": counts,
        "total": len(rows),
        "valid_certificates": counts[STATUS_REPRODUCED] + counts[STATUS_ALTERNATIVE],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        for r in rows:
            fh.write(f"{r.label}\t{r.status}\t{r.pair}\n")
        fh.write(
            f"valid {summary['valid_certificates']}/{summary['total']}  "
            f"reproduced {counts[STATUS_REPRODUCED]}\n"
        )
    print(
        f"done: {summary['valid_certificates']}/{summary['total']} valid, "
        f"{counts[STATUS_REPRODUCED]} reproduced, reports in {out_dir}/"
    )
    return 0 if counts[STATUS_FAILED] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euclid4",
        description="Admissible prime pairs and Euclidean certificates for "
        "imaginary Galois quartic fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="inspect the field registry")
    field_sub = p_field.add_subparsers(dest="action", required=True)
    field_sub.add_parser("list", help="list all registry entries")
    p_info = field_sub.add_parser("info", help="dump one field")
    p_info.add_argument("label")

    p_search = sub.add_parser("search", help="search an admissible pair")
    p_search.add_argument("label")
    p_search.add_argument("--bound", type=int, default=1000)
    p_search.add_argument("--emit", help="certificate output path")

    p_verify = sub.add_parser("verify", help="re-verify certificate files")
    p_verify.add_argument("certificate", nargs="+")
    p_verify.add_argument(
        "--oracle", action="store_true",
        help="additionally run the surjectivity oracle",
    )

    p_rep = sub.add_parser(
        "reproduce-tables", help="run the full 40-row reference reproduction"
    )
    p_rep.add_argument("--out", help="output directory")
    p_rep.add_argument("--bound", type=int, default=1000)
    p_rep.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "field":
            return cmd_field(args)
        if args.command == "search":
            return cmd_search(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "reproduce-tables":
            return cmd_reproduce_tables(args)
    except (UnknownLabel, CapExceeded, OSError) as exc:
        # cmd_verify reports the certificates it cannot read itself, so an
        # OSError here comes from writing output: an --out or --emit path
        # that is a file or lies below one, or an unwritable directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
