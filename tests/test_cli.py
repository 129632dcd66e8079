import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from euclid4.admissible import search_pair
from euclid4.certs import certificate_to_dict
from euclid4.cli import main
from euclid4.fields import registry_entry
from euclid4.units import unit_data


def test_field_list(capsys):
    assert main(["field", "list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 40
    assert out[0].startswith("K_1")


def test_field_info(capsys):
    assert main(["field", "info", "K_1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["expected_p1_p2"] == ["29", "17"]
    assert doc["field"]["m"] == "-1" and doc["field"]["n"] == "13"
    # the units block of a certificate carrying unit_data's own units (the
    # searched certificate carries a torsion multiple of eps)
    spec = registry_entry("K_1").spec
    ud = unit_data(spec)
    cert = replace(search_pair(spec, ud, 100), units=ud)
    assert doc["units"] == certificate_to_dict(cert)["units"]


def test_field_info_unknown(capsys):
    assert main(["field", "info", "K_99"]) == 2


def test_search_verify_roundtrip(tmp_path, capsys):
    cert = tmp_path / "k1.json"
    assert main(["search", "K_1", "--bound", "100", "--emit", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", str(cert), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle-confirmed" in out

    doc = json.loads(cert.read_text())
    doc["orders"]["ord_eps_P2"] = str(int(doc["orders"]["ord_eps_P2"]) * 2)
    cert.write_text(json.dumps(doc))
    assert main(["verify", str(cert)]) == 1


def test_verify_repeated_prime_fails_cleanly(tmp_path, capsys):
    frozen = Path(__file__).resolve().parent.parent / "benchmark" / "data" / "certs" / "K_1.json"
    doc = json.loads(frozen.read_text())
    doc["P2"] = doc["P1"]
    cert = tmp_path / "k1.json"
    cert.write_text(json.dumps(doc))
    assert main(["verify", str(cert)]) == 1
    assert capsys.readouterr().err.startswith("verification failed")


def test_search_exhausted_exit_code(capsys):
    assert main(["search", "K_1", "--bound", "3"]) == 1
    assert "search exhausted" in capsys.readouterr().err


def test_search_exhausted_reports_screened_rows(capsys):
    assert main(["search", "K_33", "--bound", "150"]) == 1
    err = capsys.readouterr().err
    assert "search exhausted" in err
    assert "rows_without_condition5: 3" in err


def test_search_bound_above_certificate_cap(capsys):
    assert main(["search", "K_1", "--bound", str(10 ** 6 + 1)]) == 2
    assert "certificate cap" in capsys.readouterr().err


def test_search_conductor_label(tmp_path, capsys):
    cert = tmp_path / "c5.json"
    assert main(["search", "5", "--bound", "50", "--emit", str(cert)]) == 0
    doc = json.loads(cert.read_text())
    assert doc["field"]["conductor"] == "5"


def test_search_default_cert_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EUCLID_CERT_DIR", str(tmp_path))
    assert main(["search", "K_1", "--bound", "100"]) == 0
    files = os.listdir(tmp_path)
    assert files == ["K_1_29_17.json"]


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/cert.json"]) == 2


FROZEN = sorted((Path(__file__).resolve().parent.parent / "benchmark" / "data" / "certs")
                .glob("*.json"))


def test_verify_many_certificates(capsys):
    assert len(FROZEN) == 40
    assert main(["verify", *map(str, FROZEN)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 40
    assert all(line.startswith(f"valid certificate {path} for ")
               for line, path in zip(lines, FROZEN))


def _tampered(tmp_path):
    doc = json.loads(FROZEN[0].read_text())
    doc["orders"]["ord_eps_P1"] = str(int(doc["orders"]["ord_eps_P1"]) + 1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


def test_verify_many_reports_every_file(tmp_path, capsys):
    """A tampered copy among the forty fails, and the others still verify."""
    bad = _tampered(tmp_path)
    paths = [str(bad), *map(str, FROZEN)]
    assert main(["verify", *paths]) == 1
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 40
    assert out.err.startswith(f"verification failed for {bad}")


def test_verify_many_with_missing_file(tmp_path, capsys):
    """An unreadable path is exit 2 even beside a failing certificate."""
    paths = [str(FROZEN[0]), "/nonexistent/cert.json", str(_tampered(tmp_path)), str(FROZEN[1])]
    assert main(["verify", *paths]) == 2
    out = capsys.readouterr()
    assert len(out.out.splitlines()) == 2
    err = out.err.splitlines()
    assert err[0].startswith("cannot read certificate /nonexistent/cert.json")
    assert err[1].startswith("verification failed for ")


def test_verify_hostile_json_reports_every_file(tmp_path, capsys):
    """Nesting past the recursion limit and an integer literal past the
    digit limit each fail verification in one line, and the valid file
    after them is still reported."""
    deep, long_int = tmp_path / "deep.json", tmp_path / "long.json"
    deep.write_text("[" * 200_000)
    long_int.write_text("7" * 5000)
    assert main(["verify", str(deep), str(long_int), str(FROZEN[0])]) == 1
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"valid certificate {FROZEN[0]} for ")
    err = out.err.splitlines()
    assert len(err) == 2
    assert err[0].startswith(f"verification failed for {deep}: not valid JSON")
    assert err[1].startswith(f"verification failed for {long_int}: not valid JSON")


@pytest.mark.parametrize("argv", [
    ["reproduce-tables", "--out", "{file}"],
    ["search", "K_20", "--bound", "200", "--emit", "{file}/x.json"],
])
def test_output_path_through_a_file_is_a_usage_error(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([a.format(file=taken) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(taken) in err[0]
    assert taken.read_text() == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_search_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["search", "K_20", "--bound", "200", "--emit", str(a)]) == 0
    assert main(["search", "K_20", "--bound", "200", "--emit", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reproduce_tables_subset_outputs(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["reproduce-tables", "--out", str(out), "--bound", "1000"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total"] == 40
    assert summary["valid_certificates"] == 40
    assert summary["counts"]["Failed"] == 0
    assert (out / "K_1.json").exists() and (out / "61.json").exists()
    # every emitted certificate re-verifies
    assert main(["verify", str(out / "K_8.json")]) == 0
    # deterministic artifacts
    out2 = tmp_path / "reports2"
    assert main(["reproduce-tables", "--out", str(out2), "--bound", "1000"]) == 0
    assert (out / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    assert (out / "K_33.json").read_bytes() == (out2 / "K_33.json").read_bytes()
