"""Benchmark for monoidkit: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload quotient_laws --seed 1 --seconds 15 --trace 0

One process and one thread drive a closed loop: the next item starts when
the previous one has returned its verdict, as a library caller or the batch
CLI waits.  Items come in rounds of seeded inputs; the loop stops at the
first round boundary after ``--seconds`` of item time, rescaled to a fixed
machine speed (see ``_ReferenceClock``), so every run measures whole rounds
and the same number of them.  Every item's verdict is checked against an
oracle.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
reports the per-layer metrics instead: it runs a fixed list of items (the
first ``trace_items`` of the first round) alternately untraced and traced
until ``--seconds`` have passed, wrapping each layer's public functions from
outside the package.  Counts come from one traced pass and must repeat
exactly on every pass; times are medians over passes; the traced and the
untraced verdicts must agree item by item.  The spans are written to
``perfbench/out/spans-<workload>.{json,bin}`` at exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 5
REFERENCE_EVERY = 0.5       # seconds of items between reference timings
REFERENCE_NOMINAL = 0.0035  # reference kernel seconds, typical state


def _parse(argv):
  p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
  p.add_argument("--workload", required=True)
  p.add_argument("--seed", type=int, required=True)
  p.add_argument("--seconds", type=float, default=15.0)
  p.add_argument("--trace", type=int, choices=(0, 1), default=0)
  p.add_argument("--setup-probe", action="store_true",
                 help="only import the package and build the inputs, then "
                      "exit (the parent times this as setup_s)")
  return p.parse_args(argv)


def _call(item):
  """Run one item; a raise is a failed verdict, its traceback on stderr."""
  try:
    return item()
  except Exception as err:  # noqa: BLE001 - any raise is a wrong verdict
    traceback.print_exc(file=sys.stderr)
    return False, ("raised", type(err).__name__)


def _reference_seconds():
  """Time of a fixed pure-Python kernel that shares no code with monoidkit."""
  t0 = perf_counter()
  d = {}
  for i in range(20000):
    d[i & 255] = d.get((i * 7) & 255, 0) + i % 5
  return perf_counter() - t0


class _ReferenceClock:
  """Item timings rescaled to one fixed machine speed.

  Other tenants of a shared machine slow it by up to a third for minutes at
  a time, so raw timings of the same work spread by 25-35% from run to run.
  The reference kernel is timed after every REFERENCE_EVERY seconds of items
  and at every round boundary, and each stretch of items is scaled by
  REFERENCE_NOMINAL over the mean kernel time at its two ends.  The kernel
  runs no package code, so a change to the package cannot move it.
  """

  def __init__(self):
    self.seconds = []         # rescaled wall time of each item
    self.total = 0.0          # their sum
    self.cpu = 0.0            # rescaled CPU time of all items
    self._pending = []
    self._pending_total = 0.0
    self._open()

  def _open(self):
    self._ref = _reference_seconds()
    self._cpu0 = process_time()

  def add(self, seconds):
    self._pending.append(seconds)
    self._pending_total += seconds
    if self._pending_total >= REFERENCE_EVERY:
      self.close()

  def close(self):
    cpu = process_time() - self._cpu0
    ref = self._ref
    self._open()
    scale = 2.0 * REFERENCE_NOMINAL / (ref + self._ref)
    self.seconds += [t * scale for t in self._pending]
    self.total += self._pending_total * scale
    self.cpu += cpu * scale
    self._pending = []
    self._pending_total = 0.0


def _setup_seconds(args):
  """Median time of fresh processes that import and build the inputs."""
  cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"]
  times, refs = [], [_reference_seconds()]
  for _ in range(SETUP_RUNS):
    # no timeout: with one, the wait polls in steps of up to 50 ms
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    times.append(perf_counter() - t0)
    refs.append(_reference_seconds())
  return statistics.median(times) * REFERENCE_NOMINAL / statistics.median(refs)


def _tail(times_ms):
  """Highest percentile with at least ten items beyond it: (value, pct)."""
  ordered = sorted(times_ms)
  n = len(ordered)
  if n <= 10:
    return ordered[-1], 100.0
  return ordered[n - 11], 100.0 * (n - 10) / n


def run_end_to_end(workload, pool, seconds):
  clock = _ReferenceClock()
  failed = 0
  start = perf_counter()
  for rnd in itertools.cycle(pool):
    for item in workload.items(rnd):
      t0 = perf_counter()
      ok, _ = _call(item)
      clock.add(perf_counter() - t0)
      failed += not ok
    clock.close()
    # rescaled time, so a slow spell on the machine does not change how
    # many rounds a run holds (the tail percentile depends on that count)
    if clock.total >= seconds:
      break
  elapsed = perf_counter() - start
  n = len(clock.seconds)
  ms = [t * 1000.0 for t in clock.seconds]
  tail, pct = _tail(ms)
  metrics = {
      "items_per_s": (n / clock.total, "1/s"),
      "item_p50_ms": (statistics.median(ms), "ms"),
      "item_tail_ms": (tail, "ms"),
      "cpu_s": (clock.cpu / n, "s"),
      "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      / 1024.0, "MB"),
  }
  notes = {"item_tail_ms": f"p{pct:.2f} of {n} items",
           "cpu_s": "CPU seconds per item",
           "failed_frac": f"{failed / n:.6g} ({failed} of {n})",
           "elapsed": f"{elapsed:.3f} s of closed loop, 1 caller; raw "
                      f"{n / elapsed:.6g} items per wall-clock second"}
  return n, failed, metrics, notes


def run_pass(workload, rnd, count, tracer=None):
  """The first `count` items of a round: (item seconds, verdicts, failed)."""
  total = 0.0
  verdicts = []
  failed = 0
  for idx, item in enumerate(itertools.islice(workload.items(rnd), count)):
    if tracer is not None:
      tracer.item = idx
    t0 = perf_counter()
    ok, verdict = _call(item)
    total += perf_counter() - t0
    verdicts.append(verdict)
    failed += not ok
  return total, verdicts, failed


def run_traced(workload, pool, seconds):
  tracer = Tracer()
  summaries, overheads = [], []
  attempted = failed = 0
  start = perf_counter()
  while not summaries or perf_counter() - start < seconds:
    plain_s, plain_v, plain_failed = run_pass(workload, pool[0],
                                              workload.trace_items)
    mark = tracer.mark()
    with tracer:
      traced_s, traced_v, traced_failed = run_pass(
          workload, pool[0], workload.trace_items, tracer)
    summaries.append(tracer.layer_summary(mark))
    overheads.append((traced_s - plain_s) / plain_s)
    mismatched = sum(a != b for a, b in zip(plain_v, traced_v))
    if mismatched:
      print(f"{mismatched} traced verdicts differ from untraced ones",
            file=sys.stderr)
    attempted += len(plain_v) + len(traced_v)
    failed += plain_failed + traced_failed + mismatched
  OUT.mkdir(exist_ok=True)
  tracer.dump(OUT / f"spans-{workload.name}")
  first = summaries[0]
  metrics = {}
  for key, value in first.items():
    if key.endswith(".self_s"):
      metrics[key] = (statistics.median(s[key] for s in summaries), "s")
      continue
    if any(s[key] != value for s in summaries):
      print(f"{key} differs between traced passes", file=sys.stderr)
      failed += 1
    unit = "ratio" if key.endswith(("_ratio", ".yield")) else "count"
    metrics[key] = (value, unit)
  metrics["trace.overhead_frac"] = (statistics.median(overheads), "ratio")
  notes = {"passes": f"{len(summaries)} untraced + traced pairs of "
                     f"{workload.trace_items} items"}
  return attempted, failed, metrics, notes


def main(argv=None):
  args = _parse(argv)
  try:
    import workloads
  except ImportError as err:
    print(f"cannot import the program under test: {err}", file=sys.stderr)
    return 2
  workload = workloads.WORKLOADS.get(args.workload)
  if workload is None:
    print(f"unknown workload {args.workload!r}; choose from "
          f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
    return 2
  pool = workload.inputs(args.seed)
  if args.setup_probe:
    return 0
  if args.trace:
    attempted, failed, metrics, notes = run_traced(workload, pool, args.seconds)
  else:
    setup_s = _setup_seconds(args)
    attempted, failed, metrics, notes = run_end_to_end(workload, pool,
                                                       args.seconds)
    metrics = {"setup_s": (setup_s, "s"), **metrics}
  print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"python {sys.version.split()[0]}")
  for name, (value, unit) in metrics.items():
    note = f"  ({notes[name]})" if name in notes else ""
    print(f"  {name:<32} {value:>14.6g} {unit}{note}")
  for name in ("failed_frac", "elapsed", "passes"):
    if name in notes:
      print(f"  {name:<32} {notes[name]}")
  print(json.dumps({"correct": failed == 0, "attempted": attempted,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": u}
                                for k, (v, u) in metrics.items()}}))
  return 0


if __name__ == "__main__":
  sys.exit(main())
