"""The benchmark's four workloads and the check of every operation's output.

Each workload is a closed loop over fixed inputs made from the seed: the next
operation starts when the previous one returns.  ``setup`` builds the inputs
and warms what the workload puts outside its timed path; ``run_op`` is one
timed operation; ``check`` compares its outcome with the frozen expected data
in ``data/``, written by ``make_expected.py``.

- reproduce: one cold ``euclid4 reproduce-tables --jobs 1`` in a child process.
- verify: ``verify_certificate_json`` on the 40 frozen certificates and one
  seeded tampered copy of each.
- search: ``search_pair`` at prime bound 10^4 for every field, with the
  registry and unit data warmed in set-up.
- audit: ``verify_certificate_json(oracle=True)`` and ``find_prime_element``
  for P1 and P2, on the certificates whose residue group is small enough for
  the enumeration oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(BENCH_DIR, "data")
OUT = os.path.join(BENCH_DIR, "out")

SEARCH_BOUND = 10 ** 4
# Largest residue group p1(p1-1) * p2(p2-1) the audit enumerates; it keeps
# one audit pass near 8 s on a 2-core machine (17 of the 40 certificates).
AUDIT_GROUP_CAP = 1_200_000
FIND_PRIME_BOUND = 50
TAMPER_KINDS = ("order", "gcd", "conjugate", "epsilon", "basis_image")


class ProgramMissing(Exception):
    """The euclid4 sources are not in this checkout."""


def import_program():
    """Import euclid4 from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "euclid4", "__init__.py")):
        raise ProgramMissing(f"no euclid4 sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import euclid4
    import euclid4.cli  # noqa: F401  (loads every module the tracer wraps)

    found = os.path.dirname(os.path.abspath(euclid4.__file__))
    if found != os.path.join(SRC, "euclid4"):
        raise ProgramMissing(f"euclid4 was imported from {found}, not {SRC}")
    return euclid4


def program_env() -> dict:
    """Environment for a child process that runs this checkout's euclid4."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code a result came from."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "euclid4")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_hash() -> str | None:
    """The commit of this checkout, or None outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_expected() -> dict:
    with open(os.path.join(DATA, "expected.json")) as fh:
        return json.load(fh)


def load_certificates(labels) -> dict[str, str]:
    texts = {}
    for label in labels:
        with open(os.path.join(DATA, "certs", f"{label}.json")) as fh:
            texts[label] = fh.read()
    return texts


def tamper(text: str, kind: str) -> str:
    """A copy of a certificate with one stored value changed.

    The kinds are rejected at different stages of verification: unit data
    (epsilon), prime loading (conjugate, basis_image), and the stored-value
    checks after all five conditions are recomputed (order, gcd).
    """
    doc = json.loads(text)
    if kind == "order":
        doc["orders"]["ord_eps_P1"] = str(int(doc["orders"]["ord_eps_P1"]) + 1)
    elif kind == "gcd":
        doc["gcds"] = [True, False]
    elif kind == "conjugate":
        doc["P1"]["conjugate_index"] = str((int(doc["P1"]["conjugate_index"]) + 1) % 4)
    elif kind == "epsilon":
        coords = doc["units"]["epsilon_coords"]
        coords[0] = str(int(coords[0]) + 1)
    elif kind == "basis_image":
        images = doc["P2"]["basis_images"]
        images[1] = str(int(images[1]) + 1)
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def error_outcome(exc: BaseException) -> dict:
    """The part of a rejection that the expected data pins down."""
    out = {"error": type(exc).__name__}
    condition = getattr(exc, "condition", None)
    if condition is not None:
        out["condition"] = condition
    return out


def group_order(doc: dict) -> int:
    p1, p2 = int(doc["P1"]["p"]), int(doc["P2"]["p"])
    return p1 * (p1 - 1) * p2 * (p2 - 1)


def audit_labels(texts: dict[str, str]) -> list[str]:
    return [label for label, text in texts.items()
            if group_order(json.loads(text)) <= AUDIT_GROUP_CAP]


def certificate_primes(doc: dict) -> tuple:
    """P1 and P2 of a certificate, in its field rebuilt from the descriptor."""
    from euclid4 import fields, residues

    spec = fields.build_from_descriptor(doc["field"])
    return tuple(
        residues.degree_one_primes_above(spec, int(doc[key]["p"]))[int(doc[key]["conjugate_index"])]
        for key in ("P1", "P2")
    )


def prime_elements(primes) -> list:
    """``find_prime_element`` for each prime: coordinates or "BoundExceeded"."""
    from euclid4 import admissible, errors

    out = []
    for prime in primes:
        try:
            found = admissible.find_prime_element(prime, FIND_PRIME_BOUND)
        except errors.BoundExceeded:
            out.append("BoundExceeded")
        else:
            out.append([str(c) for c in found.coords])
    return out


class Workload:
    """One workload: inputs from the seed, timed operations, output checks."""

    name = ""
    # Percentile reported as op_ms.tail: the highest of 50/75/90/95/99 that
    # leaves at least 10 operations beyond it in a default-length run on a
    # 2-core machine.  It is fixed per workload so that the metric means the
    # same thing in every run.
    tail_percentile = 50
    # Peak RSS is the child's for a workload that runs the program in one.
    rss_of_children = False

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list = []
        self.expected = load_expected()
        self.labels = self.expected["labels"]

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def check(self, op, result, exc) -> bool:
        raise NotImplementedError

    def after(self) -> int:
        """Checks made outside the timed region; returns the failures."""
        return 0

    def cleanup(self) -> None:
        pass


class ReproduceWorkload(Workload):
    name = "reproduce"
    rss_of_children = True

    def setup(self):
        self.out_dir = os.path.join(OUT, f"reproduce-{os.getpid()}")
        self.ops = [0]
        # Set by the traced run: the child then installs the tracer and
        # writes its counters to this path.
        self.trace_paths: tuple[str, str] | None = None

    def command(self):
        args = ["reproduce-tables", "--out", self.out_dir, "--jobs", "1"]
        if self.trace_paths is None:
            return [sys.executable, "-m", "euclid4.cli", *args]
        return [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"),
                *self.trace_paths, *args]

    def run_op(self, op):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        proc = subprocess.run(
            self.command(), cwd=ROOT, env=program_env(), capture_output=True, text=True,
        )
        files = {}
        if os.path.isdir(self.out_dir):
            for fname in os.listdir(self.out_dir):
                with open(os.path.join(self.out_dir, fname)) as fh:
                    files[fname] = fh.read()
        return proc.returncode, files

    def check(self, op, result, exc):
        if exc is not None:
            return False
        returncode, files = result
        exp = self.expected["reproduce"]
        want = {f"{label}.json": digest for label, digest in exp["certificates"].items()}
        want["summary.json"] = exp["summary"]
        if returncode != 0 or set(files) != set(want) | {"summary.txt"}:
            return False
        return all(sha256(files[name]) == digest for name, digest in want.items())

    def cleanup(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


class VerifyWorkload(Workload):
    name = "verify"
    tail_percentile = 99

    def setup(self):
        from euclid4 import certs

        self.certs = certs
        rng = random.Random(self.seed)
        texts = load_certificates(self.labels)
        # Every kind tampers the same number of certificates, so the mix of
        # rejection stages, and with it the work, is the same for every seed.
        kinds = [TAMPER_KINDS[i % len(TAMPER_KINDS)] for i in range(len(self.labels))]
        rng.shuffle(kinds)
        self.ops = []
        for label, kind in zip(self.labels, kinds):
            self.ops.append(("valid", label, texts[label]))
            self.ops.append((kind, label, tamper(texts[label], kind)))
        rng.shuffle(self.ops)

    def run_op(self, op):
        return self.certs.verify_certificate_json(op[2])

    def check(self, op, result, exc):
        kind, label, _ = op
        if kind != "valid":
            return exc is not None and error_outcome(exc) == self.expected["tamper"][label][kind]
        if exc is not None:
            return False
        exp = self.expected["verify"][label]
        return (result["label"] == label and list(result["pair"]) == exp["pair"]
                and list(result["orders"]) == exp["orders"])


class SearchWorkload(Workload):
    name = "search"
    tail_percentile = 90

    def setup(self):
        from euclid4 import admissible, certs, fields, units

        self.admissible, self.certs = admissible, certs
        self.entries = {entry.label: entry for entry in fields.registry()}
        self.units = {label: units.unit_data(entry.spec) for label, entry in self.entries.items()}
        self.ops = list(self.labels)
        random.Random(self.seed).shuffle(self.ops)
        self.texts: dict[str, str] = {}

    def run_op(self, label):
        cert = self.admissible.search_pair(
            self.entries[label].spec, self.units[label], SEARCH_BOUND
        )
        return cert, self.certs.certificate_to_json(cert, label)

    def check(self, label, result, exc):
        if exc is not None:
            return False
        cert, text = result
        exp = self.expected["search"][label]
        self.texts.setdefault(label, text)
        return (list(cert.pair) == exp["pair"]
                and [cert.P1.conjugate_index, cert.P2.conjugate_index] == exp["conjugates"]
                and sha256(text) == exp["certificate"])

    def after(self):
        """Round-trip each field's first searched certificate through verify;
        later passes must match its digest."""
        failures = 0
        for label, text in self.texts.items():
            try:
                report = self.certs.verify_certificate_json(text)
            except Exception:
                failures += 1
                continue
            if report["label"] != label or list(report["pair"]) != self.expected["search"][label]["pair"]:
                failures += 1
        return failures


class AuditWorkload(Workload):
    name = "audit"
    tail_percentile = 75

    def setup(self):
        from euclid4 import certs

        self.certs = certs
        texts = load_certificates(self.labels)
        self.ops = [(label, texts[label], certificate_primes(json.loads(texts[label])))
                    for label in audit_labels(texts)]
        random.Random(self.seed).shuffle(self.ops)

    def run_op(self, op):
        _, text, primes = op
        return self.certs.verify_certificate_json(text, oracle=True), prime_elements(primes)

    def check(self, op, result, exc):
        if exc is not None:
            return False
        report, elements = result
        exp = self.expected["audit"][op[0]]
        return (report["oracle_checked"] is True
                and list(report["pair"]) == exp["pair"]
                and elements == exp["prime_elements"])


WORKLOADS = {w.name: w for w in (ReproduceWorkload, VerifyWorkload, SearchWorkload, AuditWorkload)}
