"""Checks on the benchmark itself.  Run: python3 -m pytest perfbench"""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

from monoidkit import intlin, ktheory, selftest, serre  # noqa: E402

# the layers each workload is built to load
NAMED_LAYERS = {
    "quotient_laws": ("serre.window", "serre.quotient", "asets.construct",
                      "asets.hom"),
    "k0_presentation": ("asets.iso", "intlin.snf", "corpora", "ktheory"),
    "key_diagrams": ("asets.construct", "corpora", "diagrams"),
    "large_carriers": ("asets.lattice",),
}
# a short prefix of the first round keeps each case to a few seconds
ITEMS = {"quotient_laws": 6, "k0_presentation": 6, "key_diagrams": 10,
         "large_carriers": 3}


def test_every_binding_is_patched_and_restored():
  original = intlin.smith_normal_form
  with Tracer():
    wrapped = intlin.smith_normal_form
    assert wrapped is not original and wrapped.__wrapped__ is original
    # bound by name in another module: patching only intlin would miss it
    assert ktheory.smith_normal_form is wrapped
    assert hasattr(serre.hom_quotient, "__wrapped__")
    assert selftest.hom_quotient is serre.hom_quotient
  assert intlin.smith_normal_form is original
  assert ktheory.smith_normal_form is original
  assert not hasattr(serre.hom_quotient, "__wrapped__")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_loads_named_layers_and_keeps_verdicts(name):
  workload = workloads.WORKLOADS[name]
  rnd = workload.inputs(seed=7)[0]
  if name == "k0_presentation":
    rnd = [spec for spec in rnd if spec[1] <= 6]      # skip the large caps
  count = ITEMS[name]
  _, plain, plain_failed = run.run_pass(workload, rnd, count)
  tracer = Tracer()
  mark = tracer.mark()
  with tracer:
    traced_s, traced, traced_failed = run.run_pass(workload, rnd, count, tracer)
  assert plain_failed == traced_failed == 0
  assert traced == plain
  calls = Counter(tracer.layer_of[i] for i in tracer.span_name)
  for layer in NAMED_LAYERS[name]:
    assert calls[layer] > 0, f"{layer} recorded no calls on {name}"
  summary = tracer.layer_summary(mark)
  self_times = [summary[f"{layer}.self_s"] for layer in LAYERS]
  assert min(self_times) >= 0.0
  assert sum(self_times) <= traced_s


def test_same_seed_gives_same_inputs():
  for workload in workloads.WORKLOADS.values():
    assert workload.inputs(3) == workload.inputs(3)
    assert workload.inputs(3) != workload.inputs(4)


def test_oracle_tables():
  # rooted forests of height <= 3 on 0..5 nodes; the N/(t^3) corpus has 31
  assert workloads._forest_counts(5, 3) == [1, 1, 2, 4, 8, 15]
  assert [workloads._subgroup_count(o) for o in ((2,), (2, 2), (4,), (2, 3))] \
      == [2, 5, 3, 4]


def test_metric_names_match_benchmark_json():
  spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
  per_layer = {m["name"] for m in spec["per_layer"]}
  assert set(Tracer().layer_summary()) | {"trace.overhead_frac"} == per_layer
  workload = workloads.WORKLOADS["quotient_laws"]
  _, failed, metrics, _ = run.run_end_to_end(workload, workload.inputs(1), 0)
  assert failed == 0
  assert set(metrics) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}
