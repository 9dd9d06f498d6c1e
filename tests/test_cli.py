"""Command line interface: output shapes, exit codes, file handling."""

import json
import os
import re
import subprocess
import sys

import pytest

import sl23
from sl23.certify import ClaimFailed, VerifyResult, loads, verify
from sl23.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gen_text_shape(capsys):
    rc, out, _ = run(capsys, "gen", "--n", "9", "--q", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "SL 9 3 field=(3,1,[0,1])"
    assert lines[1] == "x"
    assert lines[11] == "y"
    assert len(lines) == 21
    # each matrix row has n entries
    assert all(len(lines[i].split()) == 9 for i in range(2, 11))


def test_gen_extension_field_header(capsys):
    rc, out, _ = run(capsys, "gen", "--n", "9", "--q", "4")
    assert rc == 0
    assert out.splitlines()[0] == "SL 9 4 field=(2,2,[1,1,1])"


def test_gen_json_is_a_certificate(capsys):
    rc, out, _ = run(capsys, "certify", "--n", "10", "--q", "5")
    assert rc == 0
    cert = loads(out)
    assert verify(cert).ok


def test_gen_rejects_bad_q(capsys):
    rc, _, err = run(capsys, "gen", "--n", "9", "--q", "6")
    assert rc == 2
    assert "error" in err


def test_certify_rejects_q_past_the_size_limit(capsys):
    rc, _, err = run(capsys, "certify", "--n", "9", "--q", str(3**5000))
    assert rc == 2
    assert "bits" in err


def test_gen_rejects_q_past_the_size_limit(capsys):
    rc, _, err = run(capsys, "gen", "--n", "9", "--q", str(2**5000))
    assert rc == 2
    assert "error: q has 5001 bits" in err


def test_gen_rejects_q_past_the_degree_limit(capsys):
    rc, _, err = run(capsys, "gen", "--n", "9", "--q", str(2**65))
    assert rc == 2
    assert "error: q = p**65" in err


def test_gen_rejects_unsupported_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--n", "8", "--q", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_certify_then_verify(tmp_path, capsys):
    path = tmp_path / "c.json"
    rc, _, _ = run(capsys, "certify", "--n", "9", "--q", "3", "--out", str(path))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert out.strip() == "OK"


def test_verify_tampered(tmp_path, capsys):
    path = tmp_path / "c.json"
    rc, _, _ = run(capsys, "certify", "--n", "11", "--q", "2", "--out", str(path))
    assert rc == 0
    cert = json.loads(path.read_text())
    cert["orders"]["z"] = "7"
    path.write_text(json.dumps(cert))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    assert out.startswith("FAILED:")


@pytest.mark.parametrize("section", ["charpoly", "matrices", "orders", "irreducibility"])
def test_verify_wrong_type_section(tmp_path, capsys, section):
    path = tmp_path / "c.json"
    rc, _, _ = run(capsys, "certify", "--n", "9", "--q", "3", "--out", str(path))
    assert rc == 0
    cert = json.loads(path.read_text())
    cert[section] = "junk"
    path.write_text(json.dumps(cert))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    assert out.startswith("FAILED:")


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, "verify", "/nonexistent/cert.json")
    assert rc == 3
    assert "error" in err


def test_verify_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 1
    assert out.startswith("FAILED: not valid JSON")


@pytest.mark.parametrize("data", [b"\xff\xfe\x00", b"1" * 5000,
                                  pytest.param(b"[" * 100000, id="deep")])
def test_verify_undecodable_file(tmp_path, capsys, data):
    # bytes that are not UTF-8, an integer past Python's digit limit, and
    # nesting deeper than the decoder's recursion limit
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    rc, out, err = run(capsys, "verify", str(path))
    assert rc == 1
    assert out.startswith("FAILED: not valid JSON (")
    assert err == ""


def test_module_entry_point_does_not_warn(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    src = os.path.dirname(os.path.dirname(sl23.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "sl23.cli",
         "verify", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert done.stdout == "FAILED: version\n"
    assert done.stderr == ""


def test_maxsub_output(capsys):
    rc, out, _ = run(capsys, "maxsub", "--q", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "SL 11 2 Q=2047"
    divisible = [l for l in lines if l.endswith("DIVISIBLE")]
    assert len(divisible) == 1
    assert "(2^11-1)" in divisible[0] or "2047" in divisible[0] or "case  7" in divisible[0]
    assert any("not applicable" in l for l in lines)


def test_maxsub_rejects_bad_q(capsys):
    rc, _, err = run(capsys, "maxsub", "--q", "12")
    assert rc == 2
    assert "error" in err


def test_sweep(capsys):
    rc, out, _ = run(capsys, "sweep", "--n", "11", "--q-max", "4")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(l.startswith("q=") and " PASS " in l for l in lines[:3])
    assert lines[3] == "3/3 PASS"


def test_sweep_reports_each_failure(monkeypatch, capsys):
    monkeypatch.setattr("sl23.cli.verify", lambda cert: VerifyResult(False, "scan verdict"))
    rc, out, _ = run(capsys, "sweep", "--n", "9", "--q-max", "3")
    assert rc == 1
    assert out.splitlines() == ["q=2 FAIL special: scan verdict",
                                "q=3 FAIL generic9: scan verdict", "0/2 PASS"]


def test_verbose_prints_timings(tmp_path, capsys):
    path = tmp_path / "c.json"
    rc, out, err = run(capsys, "certify", "--n", "9", "--q", "3", "-v", "--out", str(path))
    assert rc == 0 and out == ""
    assert re.fullmatch(r"certified \(9,3\) in \d+\.\d\ds\n", err)
    rc, out, _ = run(capsys, "sweep", "--n", "9", "--q-max", "3", "-v")
    assert rc == 0
    lines = out.splitlines()
    assert all(re.fullmatch(r"q=\d PASS \w+ \(\d+\.\d\ds\)", l) for l in lines[:2])
    assert lines[2] == "2/2 PASS"


def test_failed_claim_in_certify_exits_1(tmp_path, monkeypatch, capsys):
    def fail(n, q):
        raise ClaimFailed("order of z")

    monkeypatch.setattr("sl23.cli.certify", fail)
    path = tmp_path / "c.json"
    rc, out, err = run(capsys, "certify", "--n", "9", "--q", "3", "--out", str(path))
    assert rc == 1 and out == ""
    assert err == "error: claim failed: order of z\n"
    assert not path.exists()


def test_sweep_gen_file_output(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    rc, out, _ = run(capsys, "gen", "--n", "11", "--q", "2", "--out", str(path))
    assert rc == 0
    assert out == ""
    text = path.read_text()
    assert text.splitlines()[0] == "SL 11 2 field=(2,1,[0,1])"


@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "c.json"
    where = ["--q-max", "3"] if command == "sweep" else ["--q", "3", "--out", str(path)]
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "9", "--seed", "-1"] + where)
    assert exc.value.code == 2
    assert not path.exists()
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["0", "1"])
@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_seed_is_not_an_option(tmp_path, capsys, command, seed):
    path = tmp_path / "c.json"
    where = ["--q-max", "3"] if command == "sweep" else ["--q", "3", "--out", str(path)]
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "9", "--seed", seed] + where)
    assert exc.value.code == 2
    assert not path.exists()
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_help_lists_no_seed(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--seed" not in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()
