"""Tests of the benchmark's correctness gate and tracer.

Run from the repository root: python3 -m pytest benchmark/test_gate.py

Each gate test injects one wrong output into a single operation and checks
that the operation counts as failed, so that a wrong program cannot pass the
benchmark with a good failed_ratio.
"""

import dataclasses
import json
import os
import time

import pytest

import run
from tracer import Tracer
from workloads import ROOT, ReproduceWorkload, SearchWorkload, VerifyWorkload, import_program

import_program()

from euclid4 import admissible, certs, cli, residues  # noqa: E402

SEARCH_LABEL = "K_1"


def measure(workload, ops):
    workload.ops = ops
    m = run.Measurement()
    run.run_passes(workload, 0, m)
    return m


@pytest.fixture(scope="module")
def verify_workload():
    workload = VerifyWorkload(seed=0)
    workload.setup()
    return workload


@pytest.fixture(scope="module")
def search_workload():
    workload = SearchWorkload(seed=0)
    workload.setup()
    return workload


def test_verify_outputs_pass(verify_workload):
    ops = [op for op in verify_workload.ops if op[1] == "K_1"]
    m = measure(verify_workload, ops)
    assert (m.attempted, m.failed) == (2, 0)


def test_accepted_tampered_certificate_fails(verify_workload, monkeypatch):
    tampered = [op for op in verify_workload.ops if op[0] != "valid"][:1]
    valid = next(op for op in verify_workload.ops if op[0] == "valid" and op[1] == tampered[0][1])
    report = certs.verify_certificate_json(valid[2])
    monkeypatch.setattr(certs, "verify_certificate_json", lambda text, **kw: report)
    m = measure(verify_workload, tampered)
    assert (m.attempted, m.failed) == (1, 1)


def test_wrong_rejection_fails(verify_workload, monkeypatch):
    tampered = [op for op in verify_workload.ops if op[0] != "valid"][:1]

    def reject(text, **kw):
        raise ValueError("rejected for the wrong reason")

    monkeypatch.setattr(certs, "verify_certificate_json", reject)
    m = measure(verify_workload, tampered)
    assert (m.attempted, m.failed) == (1, 1)


def test_search_outputs_pass(search_workload):
    m = measure(search_workload, [SEARCH_LABEL])
    assert (m.attempted, m.failed) == (1, 0)
    assert search_workload.after() == 0


def test_wrong_certificate_digest_fails(search_workload, monkeypatch):
    original = certs.certificate_to_json
    monkeypatch.setattr(certs, "certificate_to_json", lambda cert, label: original(cert, label) + " ")
    m = measure(search_workload, [SEARCH_LABEL])
    assert (m.attempted, m.failed) == (1, 1)


def test_different_search_pair_fails(search_workload, monkeypatch):
    original = admissible.search_pair

    def swapped(spec, units, bound):
        cert = original(spec, units, bound)
        return dataclasses.replace(cert, P1=cert.P2, P2=cert.P1)

    monkeypatch.setattr(admissible, "search_pair", swapped)
    m = measure(search_workload, [SEARCH_LABEL])
    assert (m.attempted, m.failed) == (1, 1)


def test_wrong_reproduce_digest_fails():
    workload = ReproduceWorkload(seed=0)
    workload.setup()
    try:
        returncode, files = workload.run_op(0)
    finally:
        workload.cleanup()
    assert workload.check(0, (returncode, files), None)
    files["K_1.json"] += " "
    assert not workload.check(0, (returncode, files), None)


class SlowWorkload:
    ops = [0]

    def run_op(self, op):
        time.sleep(5)

    def check(self, op, result, exc):
        return exc is None


def test_timed_out_operation_fails(monkeypatch):
    monkeypatch.setattr(run, "OP_TIMEOUT_S", 0.2)
    t0 = time.perf_counter()
    m = measure(SlowWorkload(), [0])
    assert time.perf_counter() - t0 < 2
    assert (m.attempted, m.failed) == (1, 1)


def test_tracer_patches_every_binding():
    originals = (certs.check_conditions, cli.unit_data, residues.poly_roots_mod_p)
    tracer = Tracer()
    tracer.install()
    try:
        assert certs.check_conditions is admissible.check_conditions
        assert certs.check_conditions is not originals[0]
        assert cli.unit_data is not originals[1]
        assert residues.poly_roots_mod_p is not originals[2]
        entry = cli.registry_entry("K_1")
        cli.reproduce_row(entry)
    finally:
        tracer.uninstall()
    assert (certs.check_conditions, cli.unit_data, residues.poly_roots_mod_p) == originals
    assert tracer.calls["cli.reproduce_row"] == 1
    assert tracer.calls["admissible.check_conditions"] >= 1
    assert tracer.self_s["cli.reproduce_row"] <= tracer.total_s["cli.reproduce_row"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    assert run.main(["--workload", "verify", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
