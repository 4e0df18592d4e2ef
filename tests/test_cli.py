import hashlib
import json

import pytest

from trialkit import specfile
from trialkit.algebra import Algebra
from trialkit.cli import main, parse_field
from trialkit.constructors import named_algebra
from trialkit.fields import FieldDescriptor, PRIME, QUADRATIC, RATIONALS, parse_scalar

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
    for name in ("okubo", "zorn"):
        rc, out, err = run(capsys, "certify", name, "--suite", "zorn")
        assert (rc, out) == (2, "")
        assert err == "error: the zorn suite needs a vector-matrix algebra\n"


ZORN_CHECKS = [
    ("core:bilinear-form-symmetric", True, None),
    ("core:bilinear-form-nondegenerate", True, None),
    ("core:involution-squares-to-identity", True, None),
    ("core:unit-acts-as-identity", True, None),
    ("core:para-unit-acts-by-conjugation", True, None),
    ("symcomp:two-sided-norm-and-composition-laws", False, "('two-sided-norm-law', (0, 0))"),
    ("triality:sign-triples-certify", True, None),
    ("triality:scaled-identity-triple-certifies", True, None),
    ("triality:basis-derivation-triple-certifies", True, None),
    ("autos:idempotent-squaring-maps-certify", True, None),
    ("autos:square-zero-derivation-round-trips", True, None),
]


def test_certify_zorn_runs_the_unital_suites(capsys):
    """The split octonions are unital: they get the suites of hurwitz:8:split,
    not the para-Zorn suite, whatever their name says."""
    lines = [f"  [{'PASS' if ok else 'FAIL'}] {check_id}" + ("" if ok else f"  witness: {w}")
             for check_id, ok, w in ZORN_CHECKS]
    rc, text, _ = run(capsys, "certify", "zorn")
    assert rc == 1
    assert text == "\n".join(["certification report: zorn", "suite: all", *lines,
                              "summary: 11 checks, 10 passed, 1 failed", ""])
    rc, out, _ = run(capsys, "certify", "zorn", "--format", "json")
    assert rc == 1
    report = json.loads(out)
    assert report["summary"] == {"failed": 1, "passed": 10, "total": 11}
    assert [(c["id"], c["status"] == "pass", c["witness"]) for c in report["checks"]] \
        == ZORN_CHECKS
    rc, split, _ = run(capsys, "certify", "hurwitz:8:split")

    def verdicts(report_text):
        return [line.split("  witness:")[0] for line in report_text.splitlines()[2:]]

    assert rc == 1 and verdicts(split) == verdicts(text)


def _check_ids(report_text):
    return [line.split()[1] for line in report_text.splitlines() if line.startswith("  [")]


def test_parazorn_runs_the_zorn_suite_by_kind_not_name(capsys, tmp_path):
    zorn_ids = ["zorn:scaling-triples-certify", "zorn:diagonal-operator-factorization",
                "zorn:slot-swap-involution-and-conjugation",
                "zorn:transpose-automorphism-triple", "zorn:grading-triple-certifies",
                "zorn:conjugate-product-transfer"]
    rc, by_name, _ = run(capsys, "certify", "parazorn:3:1")
    assert rc == 0 and [i for i in _check_ids(by_name) if i.startswith("zorn:")] == zorn_ids
    spec = specfile.algebra_to_dict(named_algebra("parazorn:3:1"))
    assert spec["kind"] == "para-zorn"
    spec["name"] = "renamed"
    path = tmp_path / "pz.json"
    path.write_text(json.dumps(spec))
    rc, from_spec, _ = run(capsys, "certify", str(path))
    assert rc == 0 and _check_ids(from_spec) == _check_ids(by_name)
    # a name that mentions zorn routes nothing
    spec = specfile.algebra_to_dict(named_algebra("hurwitz:8:split"))
    spec["name"] = "zorn"
    path.write_text(json.dumps(spec))
    rc, out, _ = run(capsys, "certify", str(path))
    assert rc == 1 and _check_ids(out) == [c[0] for c in ZORN_CHECKS]


def test_only_para_zorn_specs_carry_a_kind():
    for name in ("ground", "para2", "hurwitz:8", "para:4", "okubo", "matrix:2", "zorn"):
        assert "kind" not in specfile.algebra_to_dict(named_algebra(name)), name
    for name in ("parazorn:1:1", "parazorn:3:2"):
        spec = specfile.algebra_to_dict(named_algebra(name))
        assert spec["kind"] == "para-zorn"
        assert specfile.algebra_from_dict(json.loads(json.dumps(spec))).kind == "para-zorn"


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


def test_certify_to_an_unwritable_out_path_exits_2(capsys, tmp_path):
    """A report path in a missing directory, or a directory, is bad input:
    exit 2 with one error line, never a traceback."""
    for target in (tmp_path / "no" / "such" / "x.txt", tmp_path):
        rc, out, err = run(capsys, "certify", "para:1", "--out", str(target))
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot write report: ") and err.count("\n") == 1, target


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


# Measured on the FieldElement enumeration, before the residue table replaced it.
PINNED_TRIG = [
    ("para2", "F5", 32, "03e9cd5ddd2b25745a02c74e6e318a1b24978f48d674aad3a2111d103236cc68"),
    ("para2", "F7", 128, "5faaedc3a54e679fbe626329ae028c1aa2de547e0fa1c366df08e969ee1a3e13"),
    ("para2", "F13", 288, "29b274b899317360692f780676075a348b2ccb7df11e87c682e8b4ac38104067"),
    ("ground", "F13", 4, "6caa6ebf5592354cecfc71a12fb0a9a1ca2f8e2136c9b22d11ac797b980ac6c1"),
]

PINNED_SIGMA = [
    ("F3", "db027fd40b92dfac8d20444906447b2e8e8cdd3a96213facf4bbcacdbb475624"),
    ("F5", "71ca20c489612e713eac35eb2c8c33c211c24952fac8a8209424d9f1816bdff8"),
    ("F7", "83f0c58da3dd41aa3ea07c7a8eb6a898d122fb70df2d7f2fe99c1037bdd2c528"),
]


@pytest.mark.parametrize("name,field,order,digest", PINNED_TRIG)
def test_enumerate_trig_output_is_pinned(capsys, name, field, order, digest):
    rc, out, err = run(capsys, "enumerate", "trig", name, field)
    assert (rc, err) == (0, "")
    assert out == (f"trig group of {name} over {field}\norder: {order}\n"
                   f"table-hash: {digest}\nclosure: verified\n")


@pytest.mark.parametrize("field,digest", PINNED_SIGMA)
def test_enumerate_sigma_output_is_pinned(capsys, field, digest):
    rc, out, err = run(capsys, "enumerate", "sigma", "para:4", field)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_sigma_refuses_a_product_table_past_the_cap(capsys):
    """para:8 over F3 has 3^8 = 6561 vectors but 2160 of norm one: a table of
    4,665,600 products, refused before it is built."""
    import time

    start = time.perf_counter()
    rc, out, err = run(capsys, "enumerate", "sigma", "para:8", "F3")
    assert time.perf_counter() - start < 1.0
    assert (rc, out, err) == (2, "", "error: space too large to enumerate\n")
    # para:4 over F7 (336 unit vectors, 112,896 products) is still enumerated
    from trialkit.cli import SIGMA_CAP, _enumerate_sigma
    assert 336 ** 2 <= SIGMA_CAP < 1320 ** 2
    with pytest.raises(ValueError, match="space too large to enumerate"):
        _enumerate_sigma(named_algebra("para:4", FieldDescriptor(PRIME, p=11)))


# sha256 of the stdout of `certify`, taken before duplicate law checks were
# removed from the certification paths.
PINNED_CERTIFY = [
    ("okubo", "text", 0, "68bdaf62316d51be3927f22a8326d70e25f0e0d41ca1debad27dbb3042e27e2f"),
    ("okubo", "json", 0, "7f731066c0d0711dad5cfb87a803cda1d882d42dc182826342a828eafc8a7a0d"),
    ("para:8", "text", 0, "d75c314e44976f54ba66f949646d9bb90a8305e1d8526a0109fe5f1282c388ed"),
    ("para:8", "json", 0, "9d533069fbbb1d3172c4b1361bc99a86ea6cea09d765e4a031940bcfd1b21192"),
    ("parazorn:3:1", "text", 0, "ab0d577e3720bccfd99b15e0cbb5ed55bd358cdc5784f1987afbdddbac45d27b"),
    ("parazorn:3:1", "json", 0, "53802c95e54357868f493dcaeee10246050aedd2fcab64729c5a2da12e62ecc3"),
    ("hurwitz:8", "text", 1, "a79c17f3ee7acf3f4340383d68264adb8db4de63177b95e3a45034100bd07274"),
    ("hurwitz:8", "json", 1, "c6bca0e2616ba3e0de6121f3d2ab8a0ac43b8bafba89472e17c723ff15d49cd8"),
    ("zorn", "text", 1, "9983b77940702cc1198b3b13b67dee1400ae756b0b172876dc0c89b1ca591333"),
    ("zorn", "json", 1, "f6fa18dfa5802c4d063e24f3406c9cb95433125f8f916ea2cf8492e90c449804"),
    ("matrix:2", "text", 1, "2983571fb23817ae58b84c151f90ca6f1afc8ace1a48f56f8277d16bc9aba663"),
    ("matrix:2", "json", 1, "a350a630a5ea9532eba1c96eb4fe0732ed68983638fd79e9fd517d7ee297944a"),
]

PINNED_PERTURBED_OKUBO = [
    ("text", "0ed4f666afa67369db2bfb4a81f36998ff9292031ef4f5f7c5bc1c5e8a46aef1"),
    ("json", "47e6e27bf36c9ba24fc6e6a297c0951aaf9835c3a5e351d4f86190446e3669cd"),
]


@pytest.mark.parametrize("name,fmt,code,digest", PINNED_CERTIFY)
def test_certify_output_is_pinned(capsys, name, fmt, code, digest):
    rc, out, err = run(capsys, "certify", name, "--format", fmt)
    assert (rc, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt,digest", PINNED_PERTURBED_OKUBO)
def test_certify_perturbed_spec_output_is_pinned(capsys, tmp_path, monkeypatch, fmt, digest):
    """okubo over Q(sqrt 3) with its first structure constant set to 2; the
    report names the spec path, so the file is read from the working directory."""
    spec = specfile.algebra_to_dict(named_algebra("okubo", FieldDescriptor(QUADRATIC, d=3)))
    i, j, k, _ = spec["structure"][0]
    spec["structure"][0] = [i, j, k, "2"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "perturbed_okubo.json").write_text(json.dumps(spec))
    rc, out, err = run(capsys, "certify", "perturbed_okubo.json", "--format", fmt)
    assert (rc, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _degenerate_para4():
    spec = specfile.algebra_to_dict(named_algebra("para:4"))
    spec["form"][3][3] = "0"
    return spec


def _wrong_unit_hurwitz4():
    spec = specfile.algebra_to_dict(named_algebra("hurwitz:4"))
    spec["unit"] = ["0", "1", "0", "0"]
    return spec


def _broken_parazorn():
    spec = specfile.algebra_to_dict(named_algebra("parazorn:1:1"))
    i, j, k, _ = spec["structure"][0]
    spec["structure"][0] = [i, j, k, "2"]
    return spec


# sha256 of the stdout of `certify`, taken before the CLI checks returned a
# witness or None.  Between them they print every witness shape: the repr of
# a tuple, a quoted clause name or message, unquoted text and a raised
# `Type: message`.
PINNED_WITNESS_SHAPES = [
    (_degenerate_para4, "text", "5841b69dbcd06521ab0f5df48f74b6a88ec65e9c1d49434137b5c378dae53735"),
    (_degenerate_para4, "json", "92f6ede793b1d7021dbfcf907a21e9079483572a861a51f84eca936ff1956702"),
    (_wrong_unit_hurwitz4, "text", "bc97e40ff5717b1dee8e6e8bcd9dc75f311d501d7e7ae63f0a58e571dcf81aae"),
    (_wrong_unit_hurwitz4, "json", "db628131b15ec538dba48eb8cd77dc7d20e901d7c5b2825a6b6d3341ae4db47a"),
    (_broken_parazorn, "text", "00aef02af4fe7bba6730f88fbb90e9da27e0a4590046e4621825deab0fed4347"),
    (_broken_parazorn, "json", "316c1b56cbc38e46539dc7aa5456e0b041e4f8c8cf44d05283b04d0fdfae7405"),
]


@pytest.mark.parametrize("build,fmt,digest", PINNED_WITNESS_SHAPES)
def test_certify_witness_shapes_are_pinned(capsys, tmp_path, monkeypatch, build, fmt, digest):
    """A degenerate form ('form has a radical'), a unit that is not one
    (basis index 0) and a para-Zorn algebra with one broken structure
    constant ('transpose-intertwines-product' and raised RelationFails)."""
    name = build.__name__.lstrip("_")
    monkeypatch.chdir(tmp_path)
    (tmp_path / f"{name}.json").write_text(json.dumps(build()))
    rc, out, err = run(capsys, "certify", f"{name}.json", "--format", fmt)
    assert (rc, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_expcheck_command(capsys):
    rc, out, _ = run(capsys, "expcheck", "para2", "1,1,-2")
    assert rc == 0
    rc, out, _ = run(capsys, "expcheck", "okubo", "d1:0,1")
    assert rc == 0
    rc, _, err = run(capsys, "expcheck", "para2", "1,1,1")
    assert rc == 2
    # bad specs are bad input: exit 2 with one error line, never a traceback
    # (two or four lambdas; a basis index outside 0..dim-1, negative included)
    for args in (("para2", "1,1"), ("para2", "1,1,1,1"), ("para:4", "d1:0,9"),
                 ("para:4", "d1:-1,0"), ("para:4", "d1:0,-1"), ("para:4", "d1:4,0")):
        rc, out, err = run(capsys, "expcheck", *args)
        assert rc == 2 and out == "" and err.startswith("error: "), args
        assert err.count("\n") == 1 and "Traceback" not in err, args


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
    # a name with a part missing, out of range, misspelt or extra
    for argv in [("certify", name) for name in (
                     "hurwitz", "para", "matrix", "parazorn", "matrix:-1", "matrix:0",
                     "matrix:-2", "para:8:spilt", "parazorn:-1", "zorn:5")] + [
                 ("enumerate", "trig", "hurwitz", "F7"), ("expcheck", "matrix", "x")]:
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "") and err.startswith("error: unknown algebra "), argv


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
    _set("kind", "zorn"),
    _set("kind", ["para-zorn"]),
], ids=["missing-dim", "bare-string-field", "index-past-dim", "negative-index",
        "short-unit", "short-form", "short-involution-row", "unknown-kind", "list-kind"])
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


def _okubo_spec():
    return specfile.algebra_to_dict(named_algebra("okubo", FieldDescriptor(QUADRATIC, d=3)))


def test_spec_with_a_foreign_radicand_is_rejected_with_exit_2(capsys, tmp_path):
    """A scalar written over sqrt(5) in a Q(sqrt 3) spec is bad input, not a
    different element of Q(sqrt 3)."""
    spec = _okubo_spec()
    entry = next(e for e in spec["structure"] if not e[3].startswith("0+"))
    entry[3] = entry[3].replace("sqrt(3)", "sqrt(5)")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    rc, out, err = run(capsys, "certify", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: bad scalar {entry[3]!r} in structure: sqrt(5) is not in Q(sqrt(3))\n"


def test_spec_scalars_written_by_str_certify_the_same(capsys, tmp_path):
    """str() writes b*sqrt(d) when the rational part is 0, and a alone when
    the sqrt part is; a spec in that spelling certifies as the canonical one."""
    spec = _okubo_spec()
    field = FieldDescriptor(QUADRATIC, d=3)
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(spec))
    want = run(capsys, "certify", str(path))
    for entry in spec["structure"]:
        entry[3] = str(parse_scalar(entry[3], field))
    spec["form"] = [[str(parse_scalar(v, field)) for v in row] for row in spec["form"]]
    assert any("*sqrt" in e[3] and "+" not in e[3] for e in spec["structure"])
    path.write_text(json.dumps(spec))
    assert run(capsys, "certify", str(path)) == want
    assert want[0] == 0
