import json

import pytest

from trialkit import specfile
from trialkit.algebra import Algebra
from trialkit.cli import main, parse_field
from trialkit.constructors import named_algebra
from trialkit.fields import FieldDescriptor, PRIME, QUADRATIC, RATIONALS

Q = FieldDescriptor(RATIONALS)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_certify_named_algebras(capsys):
    rc, out, _ = run(capsys, "certify", "ground")
    assert rc == 0
    assert "0 failed" in out
    rc, out, _ = run(capsys, "certify", "okubo")
    assert rc == 0
    assert "[FAIL]" not in out


def test_certify_zorn_suite(capsys):
    rc, out, _ = run(capsys, "certify", "parazorn:1:0", "--suite", "zorn")
    assert rc == 0
    rc, _, err = run(capsys, "certify", "okubo", "--suite", "zorn")
    assert rc == 2
    assert "vector-matrix" in err


def test_certify_output_is_deterministic(capsys):
    outputs = []
    for fmt in ("text", "json", "text", "json"):
        rc, out, _ = run(capsys, "certify", "para:4", "--format", fmt)
        assert rc == 0
        outputs.append(out)
    assert outputs[0] == outputs[2]
    assert outputs[1] == outputs[3]
    json.loads(outputs[1])  # valid JSON


def test_certify_writes_out_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    rc, out, _ = run(capsys, "certify", "ground", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert "summary:" in target.read_text()


def test_certify_spec_file_and_perturbed_failure(capsys, tmp_path):
    a = named_algebra("para:4")
    good = tmp_path / "para4.json"
    specfile.save_algebra(a, str(good))
    rc, out, _ = run(capsys, "certify", str(good), "--suite", "symcomp")
    assert rc == 0

    structure = [[[v for v in row] for row in plane] for plane in a.structure]
    structure[1][2][3] = structure[1][2][3] + Q.one()
    bad = Algebra(a.field, structure, form=a.form, involution=a.involution,
                  unit=None, name="perturbed")
    bad_path = tmp_path / "bad.json"
    specfile.save_algebra(bad, str(bad_path))
    rc, out, _ = run(capsys, "certify", str(bad_path), "--suite", "symcomp")
    assert rc == 1
    assert "[FAIL]" in out and "witness" in out


def test_enumerate_commands(capsys):
    rc, out, _ = run(capsys, "enumerate", "trig", "ground", "F5")
    assert rc == 0
    assert "order: 4" in out or "4" in out
    rc, out2, _ = run(capsys, "enumerate", "auto", "para2", "Q")
    assert rc == 0
    assert "2" in out2
    rc, out3, _ = run(capsys, "enumerate", "sigma", "para:4", "F3")
    assert rc == 0
    assert "576" in out3
    # determinism of enumeration output
    rc, out4, _ = run(capsys, "enumerate", "sigma", "para:4", "F3")
    assert out3 == out4


def test_expcheck_command(capsys):
    rc, out, _ = run(capsys, "expcheck", "para2", "1,1,-2")
    assert rc == 0
    rc, out, _ = run(capsys, "expcheck", "okubo", "d1:0,1")
    assert rc == 0
    rc, _, err = run(capsys, "expcheck", "para2", "1,1,1")
    assert rc == 2


def test_parse_field():
    assert parse_field("Q").kind == RATIONALS
    assert parse_field("Qsqrt3").kind == QUADRATIC
    f = parse_field("F13")
    assert f.kind == PRIME and f.p == 13
    with pytest.raises(Exception):
        parse_field("R")


def test_error_exit_codes(capsys):
    rc, _, err = run(capsys, "certify", "no-such-algebra")
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run(capsys, "enumerate", "trig", "ground", "R")
    assert rc == 2
    rc, _, err = run(capsys, "enumerate", "trig", "para2", "F37")
    assert rc == 2


def test_spec_round_trip_keeps_para_unit(capsys, tmp_path):
    a = named_algebra("para:4")
    spec = specfile.algebra_to_dict(a)
    assert "para_unit" not in specfile.algebra_to_dict(named_algebra("hurwitz:4"))
    back = specfile.algebra_from_dict(json.loads(json.dumps(spec)))
    assert back.para_unit == a.para_unit
    path = tmp_path / "para4.json"
    specfile.save_algebra(a, str(path))
    rc, out, _ = run(capsys, "certify", str(path), "--suite", "core")
    assert rc == 0
    assert "[PASS] core:para-unit-acts-by-conjugation" in out


def test_perturbed_para_unit_fails_its_check(capsys, tmp_path):
    spec = specfile.algebra_to_dict(named_algebra("para:4"))
    spec["para_unit"] = ["0", "1", "0", "0"]
    path = tmp_path / "bad_unit.json"
    path.write_text(json.dumps(spec))
    rc, out, _ = run(capsys, "certify", str(path), "--suite", "core")
    assert rc == 1
    assert "[FAIL] core:para-unit-acts-by-conjugation  witness:" in out
    spec["para_unit"] = ["1", "0"]
    path.write_text(json.dumps(spec))
    rc, _, err = run(capsys, "certify", str(path), "--suite", "core")
    assert rc == 2 and err.startswith("error:")


def _set(key, value):
    def edit(spec):
        spec[key] = value
    return edit


def _edit_entry(index, value):
    def edit(spec):
        spec["structure"][0][index] = value
    return edit


def _shorten(key, row=None):
    def edit(spec):
        if row is None:
            spec[key] = spec[key][:-1]
        else:
            spec[key][row] = spec[key][row][:-1]
    return edit


@pytest.mark.parametrize("edit", [
    lambda spec: spec.pop("dim"),
    _set("field", "Q"),
    _edit_entry(2, 4),
    _edit_entry(0, -1),
    _shorten("unit"),
    _shorten("form"),
    _shorten("involution", row=1),
], ids=["missing-dim", "bare-string-field", "index-past-dim", "negative-index",
        "short-unit", "short-form", "short-involution-row"])
def test_malformed_spec_is_rejected_with_exit_2(capsys, tmp_path, edit):
    spec = specfile.algebra_to_dict(named_algebra("hurwitz:4"))
    edit(spec)
    with pytest.raises(specfile.SpecError):
        specfile.algebra_from_dict(spec)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run(capsys, "certify", str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_unreadable_spec_path_is_rejected_with_exit_2(capsys, tmp_path):
    rc, out, err = run(capsys, "certify", str(tmp_path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: cannot read spec file")
