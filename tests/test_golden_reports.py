"""Scenario reports pinned byte for byte.

The fixture holds the rendered report of every fault in both modes, plus
one run over sockets.  A refactor that changes any verdict, counter or
byte count shows up here.  Regenerate (only for an intended change of
behaviour) with:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import pathlib

from blindpay.harness import FAULTS, Scenario, run_scenario
from blindpay.purchase import MODE_BASIC, MODE_ENHANCED

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "scenario_reports.txt"

NEEDS_STEP = ("corrupt-signature", "wrong-s", "double-spend")


def golden_scenarios() -> list[Scenario]:
    out = [Scenario(mode=mode, price=5, seed=0, fault=fault,
                    fault_step=2 if fault in NEEDS_STEP else 0)
           for fault in FAULTS for mode in (MODE_BASIC, MODE_ENHANCED)]
    out.append(Scenario(mode=MODE_ENHANCED, price=13, transport="socket", seed=0,
                        fault="corrupt-signature", fault_step=2))
    return out


def render_reports() -> str:
    return "".join(run_scenario(sc).render() for sc in golden_scenarios())


def test_reports_match_fixture():
    assert render_reports() == FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    FIXTURE.write_text(render_reports(), encoding="utf-8")
