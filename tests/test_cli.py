"""Exit codes, report formats, and flag plumbing of the monoidkit binary.

The slow full selftest is exercised by tests/test_acceptance.py; here the
selftest command is checked through a stubbed case list so the wiring
(table, --json schema, exit code) is covered without rerunning the suite.
"""

import json
import os

import pytest

from monoidkit import cli, io, selftest
from monoidkit.cli import main

FIXTURES = os.path.join(os.path.dirname(io.__file__), "fixtures")


def fixture(name):
  return os.path.join(FIXTURES, name)


def run(capsys, *argv):
  code = main(list(argv))
  out = capsys.readouterr()
  return code, out.out, out.err


def run_json(capsys, *argv):
  code, out, _ = run(capsys, *argv, "--json")
  return code, json.loads(out)


# ----------------------------------------------------------------- reports


def test_monoid_info_affine(capsys):
  code, out, _ = run(capsys, "monoid-info", fixture("class_group_z2.json"))
  assert code == 0
  assert "normal: true, Cl candidates: 2 facets" in out
  assert "pc: true" in out


def test_monoid_info_json_schema(capsys):
  code, data = run_json(capsys, "monoid-info", fixture("class_group_z2.json"))
  assert code == 0
  assert data["schema_version"] == 1
  assert data["kind"] == "affine" and data["normal"] is True
  assert len(data["primes"]) == 4
  assert sorted(p["height"] for p in data["primes"]) == [0, 1, 1, 2]


def test_monoid_info_f1_has_one_prime(tmp_path, capsys):
  from monoidkit.monoids import FiniteMonoid
  path = tmp_path / "f1.json"
  io.save_monoid(FiniteMonoid.f1(), path)
  code, out, _ = run(capsys, "monoid-info", str(path))
  assert code == 0
  assert "primes: 1" in out


def test_aset_check_tree_and_loop(capsys):
  code, out, _ = run(capsys, "aset-check", "N", fixture("rooted_tree.json"))
  assert code == 0
  assert "pc: true" in out and "length: 4" in out
  code, out, _ = run(capsys, "aset-check", "N", fixture("loop.json"))
  assert code == 0
  assert "pc: false" in out and "length: not finite" in out


def test_point_has_length_zero(tmp_path, capsys):
  path = tmp_path / "pt.json"
  path.write_text(json.dumps(
      {"monoid": "N", "elements": ["*"], "base": "*", "action": {"t": {}}}))
  code, data = run_json(capsys, "aset-check", "N", str(path))
  assert code == 0
  assert data["length"] == 0 and data["support"] == []


def test_cl_reports_z2(capsys):
  code, out, _ = run(capsys, "cl", fixture("class_group_z2.json"))
  assert code == 0
  assert out.strip() == "Cl(A(2,2)) = Z/2"


def test_cl_on_free_is_trivial(capsys):
  code, out, _ = run(capsys, "cl", fixture("free_n2.json"))
  assert code == 0
  assert out.strip() == "Cl(N^2) = 0"


def test_gersten_graded_json(capsys):
  code, data = run_json(capsys, "gersten", fixture("class_group_z2.json"))
  assert code == 0
  assert data["conclusion"] == "Z+Z/2"
  assert data["graded"] == [{"free_rank": 1, "torsion": []},
                            {"free_rank": 0, "torsion": [2]},
                            {"free_rank": 0, "torsion": []}]


def test_gersten_text_names_w2(capsys):
  code, out, _ = run(capsys, "gersten", fixture("class_group_z2.json"))
  assert code == 0
  assert "W2 = 0" in out


def test_quotient_hom_listing(capsys):
  code, data = run_json(capsys, "quotient", "N",
                        fixture("torsion_predicate.json"),
                        fixture("rooted_tree.json"), fixture("loop.json"),
                        "hom")
  assert code == 0
  assert data["count"] == 1 == len(data["morphisms"])
  assert data["morphisms"][0]["window_sub"] == ["*"]


def test_quotient_compose_and_check_w(capsys):
  code, data = run_json(capsys, "quotient", "N",
                        fixture("torsion_predicate.json"),
                        fixture("rooted_tree.json"), fixture("loop.json"),
                        "compose")
  assert code == 0 and data["failures"] == 0
  code, data = run_json(capsys, "quotient", "N",
                        fixture("torsion_predicate.json"),
                        fixture("rooted_tree.json"), fixture("loop.json"),
                        "check-w")
  assert code == 0 and data["condition_w"] == {"X": True, "Y": True}


def test_quotient_equivalence(capsys):
  code, data = run_json(capsys, "quotient", "N",
                        fixture("torsion_predicate.json"),
                        fixture("rooted_tree.json"), fixture("loop.json"),
                        "equivalence")
  assert code == 0
  assert data["pairs"] == 4 and data["mismatches"] == 0


def test_quotient_hom_on_24_fixed_points(tmp_path, capsys):
  # the window has 2^24 admissible subobjects; it must not list them
  points = [f"p{i}" for i in range(24)]
  aset = tmp_path / "fixed24.json"
  aset.write_text(json.dumps(
      {"monoid": "N", "elements": ["*"] + points, "base": "*",
       "action": {"t": {p: p for p in points}}}))
  pred = tmp_path / "all_primes.json"
  pred.write_text(json.dumps({"kind": "support_in",
                              "primes": ["(0)", "(t)"]}))
  code, out, _ = run(capsys, "quotient", "N", str(pred), str(aset),
                     str(aset), "hom")
  assert code == 0
  assert "1 morphism " in out


def test_k0_of_catspec(capsys):
  code, data = run_json(capsys, "k0", fixture("catspec_pointed.json"))
  assert code == 0
  assert data["k0"] == {"free_rank": 1, "torsion": []}


def test_dvm_spec_strings(capsys):
  code, data = run_json(capsys, "dvm", "trivial")
  assert code == 0
  assert data["K'1"] == {"free_rank": 0, "torsion": [2]}
  code, data = run_json(capsys, "dvm", "2")
  assert code == 0
  assert data["K'1"] == {"free_rank": 0, "torsion": [2, 2]}


def test_dvm_pi1s_override(capsys):
  code, data = run_json(capsys, "dvm", "trivial", "--pi1s", "3")
  assert code == 0
  assert data["K'1"] == {"free_rank": 0, "torsion": [3]}


def test_dvm_from_monoid_file(capsys):
  code, data = run_json(capsys, "dvm", fixture("dvm_z2.json"))
  assert code == 0
  assert data["gamma"] == {"free_rank": 0, "torsion": [2]}


# --------------------------------------------------------------- exit codes


def test_exit_2_on_malformed_file(tmp_path, capsys):
  bad = tmp_path / "bad.json"
  bad.write_text("{nope")
  code, _, err = run(capsys, "monoid-info", str(bad))
  assert code == 2 and "error" in err


def test_exit_2_on_missing_file(capsys):
  code, _, err = run(capsys, "cl", "/nonexistent/m.json")
  assert code == 2


def test_exit_2_on_bad_units_spec(capsys):
  code, _, err = run(capsys, "dvm", "zebra")
  assert code == 2 and "units spec" in err


def test_exit_3_on_invalid_monoid(tmp_path, capsys):
  bad = tmp_path / "broken.json"
  bad.write_text(json.dumps({
      "kind": "finite", "elements": ["1", "a", "*"], "one": "1", "zero": "*",
      "table": {"a,a": "1", "1,a": "*"}}))
  code, _, err = run(capsys, "monoid-info", str(bad))
  assert code == 3


def test_exit_3_on_cl_of_finite_monoid(capsys):
  code, _, err = run(capsys, "cl", fixture("z2_with_zero.json"))
  assert code == 3


def test_exit_4_on_non_closed_predicate(tmp_path, capsys):
  pred = tmp_path / "notclosed.json"
  pred.write_text(json.dumps({
      "kind": "explicit",
      "objects": [{"elements": ["*", "a", "b"], "base": "*",
                   "action": {"t": {"a": "b", "b": "*"}}}]}))
  code, _, err = run(capsys, "quotient", "N", str(pred),
                     fixture("rooted_tree.json"), fixture("loop.json"), "hom")
  assert code == 4 and "Serre" in err


def test_exit_4_on_closure_bound(capsys):
  code, _, err = run(capsys, "k0", fixture("catspec_pointed.json"),
                     "--max-size", "2")
  assert code == 4


def test_exit_5_on_cl_of_non_normal(tmp_path, capsys):
  numerical = tmp_path / "n23.json"
  numerical.write_text(json.dumps({
      "kind": "affine", "dim": 1, "generators": [[2], [3]],
      "units": {"free_rank": 0, "torsion": []}, "ideal": []}))
  code, _, err = run(capsys, "cl", str(numerical))
  assert code == 5 and "normal" in err


def test_exit_5_on_strict_gersten(capsys):
  code, _, err = run(capsys, "gersten", "--strict",
                     fixture("class_group_z2.json"))
  assert code == 5 and "0-smooth" in err


def test_exit_6_on_internal_error(monkeypatch, capsys):
  def broken(args):
    raise RuntimeError("boom")

  monkeypatch.setattr(cli, "cmd_dvm", broken)
  code, out, err = run(capsys, "dvm", "2")
  assert code == 6
  assert out == ""
  assert "internal error: RuntimeError: boom" in err


def test_unknown_flag_rejected(capsys):
  with pytest.raises(SystemExit) as exc:
    main(["cl", fixture("free_n2.json"), "--frobnicate"])
  assert exc.value.code == 2


# ----------------------------------------------------------------- selftest


def _stub_cases(passed_flags):
  return [selftest.CaseResult(i + 1, f"case {i + 1}", "x", "x", flag, 0.01)
          for i, flag in enumerate(passed_flags)]


def test_selftest_wiring(monkeypatch, capsys):
  monkeypatch.setattr(
      cli.selftest_mod, "run_all", lambda **kw: _stub_cases([True, True]))
  code, data = run_json(capsys, "selftest")
  assert code == 0
  assert data["ok"] is True and len(data["cases"]) == 2
  assert all(c["pass"] for c in data["cases"])
  assert data["schema_version"] == 1


def test_selftest_fails_loudly(monkeypatch, capsys):
  monkeypatch.setattr(
      cli.selftest_mod, "run_all", lambda **kw: _stub_cases([True, False]))
  code, out, _ = run(capsys, "selftest")
  assert code == 1
  assert "FAIL" in out and "1/2 cases pass" in out


def test_selftest_forwards_knobs(monkeypatch, capsys):
  seen = {}

  def spy(**kw):
    seen.update(kw)
    return _stub_cases([True])

  monkeypatch.setattr(cli.selftest_mod, "run_all", spy)
  run(capsys, "selftest", "--max-size", "5", "--seed", "7", "--pi1s", "3")
  assert seen == {"max_size": 5, "seed": 7, "pi1s": 3}
