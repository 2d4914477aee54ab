import json
import os

import pytest

from monoidkit import corpora, io
from monoidkit.affine import AffineMonoid
from monoidkit.asets import cycle_nset, nat_set, truncated_line
from monoidkit.errors import InvalidStructure, ParseError
from monoidkit.monoids import FiniteMonoid, NatMonoid
from monoidkit.serre import SerrePredicate

FIXTURES = os.path.join(os.path.dirname(io.__file__), "fixtures")


def fixture(name):
  return os.path.join(FIXTURES, name)


def test_builtin_monoid_ids():
  assert isinstance(io.load_monoid("N"), NatMonoid)
  assert io.load_monoid("F1").name == "F1"


def test_finite_monoid_round_trip():
  m = FiniteMonoid.truncated_free(2)
  back = io.monoid_from_json(io.monoid_to_json(m))
  assert back.is_isomorphic(m)
  assert back.name == m.name


def test_finite_table_may_store_symmetry_once():
  data = io.monoid_to_json(FiniteMonoid.f1())
  # the writer stores each unordered pair once; the reader fills the rest
  assert len(data["table"]) == 3
  assert io.monoid_from_json(data).mul("*", "1") == "*"


def test_affine_monoid_round_trip():
  a = AffineMonoid.dvm(torsion=(2,), free_rank=1)
  back = io.monoid_from_json(io.monoid_to_json(a))
  assert back.dim == a.dim and back.generators == a.generators
  assert back.unit_group.free_rank == 1
  assert list(back.unit_group.torsion) == [2]


def test_aset_round_trip_over_n():
  X = cycle_nset(2, tail=1)
  back = io.aset_from_json(io.aset_to_json(X))
  assert back.is_isomorphic(X)


def test_aset_requires_monoid_ref_for_finite_monoids():
  z2 = FiniteMonoid.group_with_zero([2])
  from monoidkit.corpora import coset_orbit_aset
  X = coset_orbit_aset(z2, ["1"])
  with pytest.raises(InvalidStructure):
    io.aset_to_json(X)
  data = io.aset_to_json(X, monoid_ref="z2_with_zero.json")
  assert data["monoid"] == "z2_with_zero.json"


def test_every_bundled_fixture_round_trips(tmp_path):
  """Parse, validate, re-serialize, re-parse: equal up to isomorphism."""
  for name in sorted(os.listdir(FIXTURES)):
    path = fixture(name)
    with open(path) as fh:
      raw = json.load(fh)
    if name.startswith("catspec"):
      monoid, objects, bound = io.load_catspec(path)
      assert objects and bound >= 1
      continue
    if "kind" in raw and raw["kind"] in ("finite", "affine"):
      m = io.monoid_from_json(raw)
      if raw["kind"] == "finite":
        assert m.validate().ok
        assert io.monoid_from_json(io.monoid_to_json(m)).is_isomorphic(m)
      else:
        again = io.monoid_from_json(io.monoid_to_json(m))
        assert again.generators == m.generators
    elif "kind" in raw:  # Serre predicate
      pred = io.predicate_from_json(NatMonoid(), raw)
      assert pred.to_json() == raw
    else:  # A-set
      X = io.load_aset(path)
      assert X.validate().ok
      out = tmp_path / name
      io.save_aset(X, str(out), monoid_ref=raw["monoid"])
      Y = io.load_aset(str(out), monoid=X.monoid)
      assert Y.is_isomorphic(X)


def test_fixture_values_are_the_advertised_ones():
  assert io.load_aset(fixture("rooted_tree.json")).size() == 5
  loop = io.load_aset(fixture("loop.json"))
  from monoidkit.asets import is_pc_aset
  assert not is_pc_aset(loop)
  cl_monoid = io.monoid_from_json(
      io._read_json(fixture("class_group_z2.json")))
  from monoidkit.ktheory import class_group
  assert str(class_group(cl_monoid)) == "Z/2"


def test_z2_cosets_fixture_resolves_monoid_by_relative_path():
  X = io.load_aset(fixture("z2_cosets.json"))
  assert X.monoid.name == "(Z/2)+"
  assert X.size() == 3


def test_catspec_loading():
  monoid, objects, bound = io.load_catspec(fixture("catspec_pointed.json"))
  assert monoid.name == "F1"
  assert [X.size() for X in objects] == [2, 3, 4]
  assert bound == 64


def test_parse_errors_are_not_invalid_structure(tmp_path):
  bad = tmp_path / "bad.json"
  bad.write_text("{ not json")
  with pytest.raises(ParseError):
    io.load_monoid(str(bad))
  missing = tmp_path / "missing.json"
  with pytest.raises(ParseError):
    io.load_monoid(str(missing))
  shapeless = tmp_path / "shapeless.json"
  shapeless.write_text(json.dumps({"kind": "finite", "elements": ["1"]}))
  with pytest.raises(ParseError):
    io.load_monoid(str(shapeless))


def test_broken_table_is_invalid_not_a_parse_error(tmp_path):
  data = io.monoid_to_json(FiniteMonoid.f1())
  del data["table"]["1,1"]
  p = tmp_path / "broken.json"
  p.write_text(json.dumps(data))
  with pytest.raises(InvalidStructure):
    io.load_monoid(str(p))


def test_comma_in_element_id_is_refused():
  m = FiniteMonoid(["1", "a,b", "*"], "1", "*",
                   {("1", "1"): "1", ("1", "a,b"): "a,b", ("1", "*"): "*",
                    ("a,b", "a,b"): "*", ("a,b", "*"): "*", ("*", "*"): "*"})
  with pytest.raises(InvalidStructure):
    io.monoid_to_json(m)


def test_predicate_file_round_trip(tmp_path):
  pred = io.load_predicate(fixture("torsion_predicate.json"), NatMonoid())
  assert pred.kind == "torsion"
  line = truncated_line(2)
  assert pred.contains(line)
  assert not pred.contains(cycle_nset(2))


def test_nat_monoid_itself_has_no_file_form():
  with pytest.raises(InvalidStructure):
    io.monoid_to_json(NatMonoid())


# --------------------------------------------------------- JSON round trips


def through_json(data):
  return json.loads(json.dumps(data))


def round_trip_monoids():
  yield from map(FiniteMonoid.group_with_zero, ([2], [3], [2, 2]))
  yield from map(FiniteMonoid.truncated_free, (1, 2, 3))
  yield FiniteMonoid.f1()
  yield from map(AffineMonoid.free, (1, 2, 3))
  yield AffineMonoid.class_group_order_two()
  yield AffineMonoid.dvm()
  yield AffineMonoid.dvm(torsion=(2,), free_rank=1)


def test_monoids_round_trip_through_json():
  for m in round_trip_monoids():
    first = io.monoid_to_json(m)
    again = io.monoid_to_json(io.monoid_from_json(through_json(first)))
    assert again == first, m.name


def round_trip_asets():
  """(A-set, its monoid, the monoid's reference) for every corpus kind."""
  for X in corpora.all_nsets(5):
    yield X, None, "N"
  for orders in ([2], [3], [2, 2]):
    G = FiniteMonoid.group_with_zero(orders)
    for X, _ in corpora.all_gamma_asets(G, 6):
      yield X, G, "gamma.json"
  t3, f1 = FiniteMonoid.truncated_free(2), FiniteMonoid.f1()
  for X in corpora.all_nilpotent_asets(t3, 5):
    yield X, t3, "t3.json"
  for X in corpora.all_pointed_sets(f1, 5):
    yield X, f1, "F1"


def test_asets_round_trip_through_json():
  count = 0
  for X, monoid, ref in round_trip_asets():
    first = io.aset_to_json(X, ref)
    back = io.aset_from_json(through_json(first), monoid=monoid)
    assert io.aset_to_json(back, ref) == first, X
    count += 1
  assert count == 144


def test_predicates_round_trip_through_json():
  n = NatMonoid()
  t3, z2 = FiniteMonoid.truncated_free(2), FiniteMonoid.group_with_zero([2])
  preds = [SerrePredicate.torsion(n), SerrePredicate.finite_length(n),
           SerrePredicate.support_in(n, []),
           SerrePredicate.support_in(n, ["(t)"]), SerrePredicate.everything(n),
           SerrePredicate.zero(n),
           SerrePredicate.explicit(n, [truncated_line(2), cycle_nset(2, 1)]),
           SerrePredicate.torsion(t3, ["t"]), SerrePredicate.everything(t3),
           SerrePredicate.explicit(t3, corpora.all_nilpotent_asets(t3, 4)),
           SerrePredicate.zero(z2), SerrePredicate.finite_length(z2)]
  assert {p.kind for p in preds} == set(SerrePredicate.KINDS)
  for pred in preds:
    first = pred.to_json()
    back = io.predicate_from_json(pred.monoid, through_json(first))
    assert back.to_json() == first, pred
    assert back == pred
