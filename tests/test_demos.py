"""The scripts in demos/ run to the end and print what they promise."""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")

# (script, a line its output must contain)
CASES = [
    ("class_group_tour.py", "class group: Cl = Z/2"),
    ("k0_zoo.py", "K0(C) = Z  ->  K0(M) = Z^2  ->  K0(M/C) = Z"),
    ("quotient_walkthrough.py",
     "source shrinks to ['*', 'c0', 'c1'], target kernel ['*']"),
]


@pytest.mark.parametrize("script,expected", CASES, ids=[c[0] for c in CASES])
def test_demo_runs(script, expected, capsys):
  runpy.run_path(os.path.join(DEMOS, script), run_name="__main__")
  assert expected in capsys.readouterr().out


def test_every_demo_is_covered():
  assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == \
      sorted(script for script, _ in CASES)
