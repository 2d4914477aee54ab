"""The ``monoidkit`` command: files in, reports out.

One binary, batch-style subcommands, no interactive mode.  Every command
accepts ``--json`` for a machine-readable report stamped with
``schema_version``.  Exit codes are part of the interface:

  0  success (for check-style commands: the check passed)
  1  a check ran to completion and failed
  2  an input file could not be parsed
  3  a structurally invalid monoid, action, or undecidable request
  4  predicate/corpus closure failure
  5  a computation that needs normality or 0-smoothness was refused
  6  internal error: the program failed before reaching a verdict
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import traceback

from .affine import AffineMonoid
from .asets import NotFiniteLength, irreducible_chain, is_pc_aset
from .errors import (ClosureBoundExceeded, InvalidStructure, MonoidKitError,
                     NotNormal, NotZeroSmooth, ParseError,
                     PredicateClosureError, Undecidable)
from .groups import AbelianGroupPresentation
from .io import (load_aset, load_catspec, load_monoid, load_predicate)
from .ktheory import (StableConstants, class_group, coniveau_k0_report,
                      dvm_report, gersten_exactness_check, k0_of_catspec)
from .monoids import FiniteMonoid, NatMonoid, UnitGroupDescriptor
from .serre import (check_condition_w, compose_quotient, hom_quotient,
                    identity_quotient, quotient_equivalence_report, support)
from . import selftest as selftest_mod

SCHEMA_VERSION = 1


def _constants(args):
  pi1s = AbelianGroupPresentation.from_cyclic_orders([args.pi1s])
  return StableConstants(pi1s)


def _payload(**fields):
  out = {"schema_version": SCHEMA_VERSION}
  out.update(fields)
  return out


# ----------------------------------------------------------------- commands


def cmd_monoid_info(args):
  m = load_monoid(args.monoid_file)
  primes = sorted(m.primes(), key=lambda p: (p.height, p.label))
  units = m.units()
  if isinstance(m, AffineMonoid):
    kind = "affine"
  elif isinstance(m, NatMonoid):
    kind = "N"
  else:
    kind = "finite"
  payload = _payload(name=m.name, kind=kind, valid=True,
                     primes=[{"label": p.label, "height": p.height}
                             for p in primes],
                     units=units.to_json())
  lines = [f"monoid {m.name or '?'} ({kind})", "valid: true",
           f"units: {units}", f"primes: {len(primes)}"]
  lines += [f"  height {p.height}: {p.label}" for p in primes]
  if isinstance(m, AffineMonoid):
    payload["dim"] = m.dim
    payload["normal"] = m.is_normal()
    payload["zero_smooth"] = m.is_zero_smooth()
    payload["dvm"] = m.is_dvm()
    payload["pc"] = m.is_pc()
    flags = (f"normal: {str(m.is_normal()).lower()}, "
             f"0-smooth: {str(m.is_zero_smooth()).lower()}, "
             f"dvm: {str(m.is_dvm()).lower()}, "
             f"pc: {str(m.is_pc()).lower()}")
    lines.append(flags)
    if m.is_normal():
      n = len(m.facets())
      payload["facets"] = n
      lines.append(f"normal: true, Cl candidates: {n} facets")
  else:
    payload["pc"] = m.is_pc()
    lines.append(f"pc: {str(m.is_pc()).lower()}")
    if isinstance(m, FiniteMonoid):
      payload["elements"] = list(m.elements)
  return payload, "\n".join(lines), 0


def cmd_aset_check(args):
  m = load_monoid(args.monoid_file)
  X = load_aset(args.aset_file, monoid=m)
  pc = is_pc_aset(X)
  supp = [p.label for p in support(X)]
  # the orbits a maximal irreducible chain adjoins give the length and the
  # stage sizes, with no stage built
  chain = irreducible_chain(X)
  finite = not isinstance(chain, NotFiniteLength)
  length = len(chain) if finite else None
  payload = _payload(aset=X.name, monoid=m.name, pc=pc, length=length,
                     support=supp)
  lines = [f"A-set {X.name or '?'} over {m.name or '?'}: "
           f"{len(X.elements)} elements",
           f"pc: {str(pc).lower()}",
           f"length: {'not finite' if length is None else length}",
           f"support: {', '.join(supp) if supp else '(empty)'}"]
  if finite:
    sizes = list(itertools.accumulate((len(orb) for orb in chain), initial=1))
    payload["filtration_sizes"] = sizes
    lines.append("filtration: " + " < ".join(str(s) for s in sizes)
                 + "  (irreducible steps)")
  else:
    payload["filtration_sizes"] = None
    lines.append(f"filtration: none ({chain!r})")
  return payload, "\n".join(lines), 0


def _hom_json(f):
  # names in str order, keys as str: a carrier may mix ints and strs
  mapping = f.rep.mapping
  return {"window_sub": sorted(f.window.xsub, key=str),
          "window_kernel": sorted(f.window.ykernel, key=str),
          "map": {str(x): mapping[x] for x in sorted(mapping, key=str)}}


def cmd_quotient(args):
  m = load_monoid(args.monoid_file)
  pred = load_predicate(args.serre_file, m)
  X = load_aset(args.x_file, monoid=m)
  Y = load_aset(args.y_file, monoid=m)

  if args.action == "hom":
    fs = hom_quotient(X, Y, pred)
    payload = _payload(command="hom", X=X.name, Y=Y.name, count=len(fs),
                       morphisms=[_hom_json(f) for f in fs])
    word = "morphism" if len(fs) == 1 else "morphisms"
    lines = [f"{len(fs)} {word} {X.name or 'X'} -> {Y.name or 'Y'} "
             f"in the quotient"]
    lines += [f"  {f!r}" for f in fs]
    return payload, "\n".join(lines), 0

  if args.action == "compose":
    fs = hom_quotient(X, Y, pred)
    gs = hom_quotient(Y, X, pred)
    checked = failures = 0
    idx, idy = identity_quotient(X, pred), identity_quotient(Y, pred)
    for f in fs:
      checked += 2
      if compose_quotient(idx, f) != f or compose_quotient(f, idy) != f:
        failures += 1
      for g in gs:
        checked += 1
        left = compose_quotient(compose_quotient(f, g), f)
        right = compose_quotient(f, compose_quotient(g, f))
        if left != right:
          failures += 1
    ok = failures == 0
    payload = _payload(command="compose", X=X.name, Y=Y.name,
                       checked=checked, failures=failures, ok=ok)
    text = (f"composition laws on Hom({X.name or 'X'}, {Y.name or 'Y'}) and "
            f"back: {checked} checks, {failures} failure(s)")
    return payload, text, 0 if ok else 1

  if args.action == "check-w":
    bound = args.max_size or 40
    results = {"X": check_condition_w(X, pred, pair_bound=bound),
               "Y": check_condition_w(Y, pred, pair_bound=bound)}
    ok = all(results.values())
    payload = _payload(command="check-w", X=X.name, Y=Y.name,
                       condition_w=results, ok=ok)
    text = "\n".join(f"condition (W) over {name}: "
                     f"{'holds' if good else 'FAILS'}"
                     for name, good in results.items())
    return payload, text, 0 if ok else 1

  # equivalence
  if pred.kind == "support_in":
    z_labels = sorted(pred.primes)
  elif pred.kind == "torsion" and isinstance(m, NatMonoid):
    z_labels = ["(t)"]
  else:
    raise Undecidable(
        "hom-count comparison needs a support_in predicate (or torsion "
        "over N); no independent localization model otherwise")
  corpus = [X, Y]
  if args.max_size and isinstance(m, NatMonoid):
    from .corpora import all_nsets
    corpus = corpus + all_nsets(args.max_size)
  rep = quotient_equivalence_report(m, z_labels, corpus=corpus)
  payload = _payload(command="equivalence", **rep.to_json())
  return payload, str(rep), 0 if rep.ok else 1


def cmd_cl(args):
  m = load_monoid(args.monoid_file)
  if not isinstance(m, AffineMonoid):
    raise InvalidStructure("class groups are computed for affine monoids")
  g = class_group(m)
  payload = _payload(monoid=m.name, class_group=g.to_json())
  return payload, f"Cl({m.name or 'A'}) = {g}", 0


def cmd_gersten(args):
  m = load_monoid(args.monoid_file)
  if not isinstance(m, AffineMonoid):
    raise InvalidStructure("the coniveau ladder needs an affine monoid")
  rep = coniveau_k0_report(m)
  payload = _payload(**rep.to_json())
  lines = [str(rep)]
  if len(rep.graded) > 2:
    ws = ", ".join(f"W{p} = {rep.graded[p]}" for p in range(2, len(rep.graded)))
    lines.insert(1, ws)
  if args.strict:
    check = gersten_exactness_check(m, strict=True)
    payload["exactness"] = check.to_json()
    lines.append(str(check))
  return payload, "\n".join(lines), 0


def cmd_k0(args):
  m, objects, bound = load_catspec(args.catspec_file)
  if args.max_size:
    bound = args.max_size
  res = k0_of_catspec(objects, closure_bound=bound)
  payload = _payload(monoid=m.name, objects=len(objects),
                     closure_bound=bound, k0=res.group.to_json(),
                     generator_classes=[r.name or "?" for r in res.reps])
  text = (f"K0 = {res.group} on {len(res.reps)} generator class(es) "
          f"({len(objects)} seed objects, closure bound {bound})")
  return payload, text, 0


def _parse_units_spec(spec):
  if os.path.exists(spec):
    m = load_monoid(spec)
    if not (isinstance(m, AffineMonoid) and m.is_dvm()):
      raise InvalidStructure(f"{spec} is not a discrete valuation monoid")
    return m.units()
  s = spec.strip().lower()
  if s in ("trivial", "1", "()"):
    return UnitGroupDescriptor(0, ())
  try:
    orders = [int(tok) for tok in s.split(",") if tok.strip()]
  except ValueError:
    raise ParseError(
        f"units spec {spec!r} is neither a monoid file nor a comma list of "
        "cyclic orders (0 for a free factor, 'trivial' for the trivial "
        "group)") from None
  if any(o < 0 for o in orders):
    raise ParseError(f"units spec {spec!r} has a negative order")
  free = sum(1 for o in orders if o == 0)
  torsion = tuple(sorted(o for o in orders if o > 1))
  return UnitGroupDescriptor(free, torsion)


def cmd_dvm(args):
  gamma = _parse_units_spec(args.units_spec)
  rep = dvm_report(gamma, _constants(args))
  return _payload(**rep.to_json()), str(rep), 0


def cmd_selftest(args):
  results = selftest_mod.run_all(max_size=args.max_size, seed=args.seed,
                                 pi1s=args.pi1s)
  ok = all(r.passed for r in results)
  payload = _payload(cases=[r.to_json() for r in
                            sorted(results, key=lambda r: r.case_id)],
                     ok=ok)
  return payload, selftest_mod.render_table(results), 0 if ok else 1


# ------------------------------------------------------------------ plumbing


def _parser():
  common = argparse.ArgumentParser(add_help=False)
  common.add_argument("--json", action="store_true",
                      help="emit a machine-readable report")
  common.add_argument("--max-size", type=int, metavar="N",
                      help="corpus / pair bound override")
  common.add_argument("--pi1s", type=int, default=2, metavar="K",
                      help="order of the stable summand in degree 1 "
                           "(default 2)")
  common.add_argument("--seed", type=int, metavar="N",
                      help="seed for randomized checks")

  top = argparse.ArgumentParser(
      prog="monoidkit",
      description="pointed monoids, their module categories, and K0 reports")
  sub = top.add_subparsers(dest="command", required=True)

  p = sub.add_parser("monoid-info", parents=[common],
                     help="validity, primes, units, and structure flags")
  p.add_argument("monoid_file")
  p.set_defaults(fn=cmd_monoid_info)

  p = sub.add_parser("aset-check", parents=[common],
                     help="pc verdict, length, support, filtration")
  p.add_argument("monoid_file")
  p.add_argument("aset_file")
  p.set_defaults(fn=cmd_aset_check)

  p = sub.add_parser("quotient", parents=[common],
                     help="hom sets and checks in a Serre quotient")
  p.add_argument("monoid_file")
  p.add_argument("serre_file")
  p.add_argument("x_file")
  p.add_argument("y_file")
  p.add_argument("action",
                 choices=["hom", "compose", "check-w", "equivalence"])
  p.set_defaults(fn=cmd_quotient)

  p = sub.add_parser("cl", parents=[common],
                     help="divisor class group of a normal affine monoid")
  p.add_argument("monoid_file")
  p.set_defaults(fn=cmd_cl)

  p = sub.add_parser("gersten", parents=[common],
                     help="coniveau graded pieces and the K'0 conclusion")
  p.add_argument("monoid_file")
  p.add_argument("--strict", action="store_true",
                 help="also run the exactness check, refusing monoids "
                      "that are not 0-smooth")
  p.set_defaults(fn=cmd_gersten)

  p = sub.add_parser("k0", parents=[common],
                     help="K0 presentation of a category of finite modules")
  p.add_argument("catspec_file")
  p.set_defaults(fn=cmd_k0)

  p = sub.add_parser("dvm", parents=[common],
                     help="degree <= 1 page for a discrete valuation monoid")
  p.add_argument("units_spec",
                 help="monoid file, 'trivial', or cyclic orders like '2' "
                      "or '0,2'")
  p.set_defaults(fn=cmd_dvm)

  p = sub.add_parser("selftest", parents=[common],
                     help="recompute every published value")
  p.set_defaults(fn=cmd_selftest)
  return top


def main(argv=None):
  args = _parser().parse_args(argv)
  try:
    payload, text, code = args.fn(args)
  except ParseError as e:
    print(f"error: {e}", file=sys.stderr)
    return 2
  except (NotNormal, NotZeroSmooth) as e:
    print(f"error: {e}", file=sys.stderr)
    return 5
  except (PredicateClosureError, ClosureBoundExceeded) as e:
    print(f"error: {e}", file=sys.stderr)
    return 4
  except (InvalidStructure, Undecidable, MonoidKitError) as e:
    print(f"error: {e}", file=sys.stderr)
    return 3
  except Exception as e:
    # a fault in the program, not a verdict: never exit 1, which means a
    # check ran and failed
    traceback.print_exc()
    print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
    return 6
  print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text)
  return code


if __name__ == "__main__":
  sys.exit(main())
