"""Scenario and sweep reports pinned byte for byte.

One fixture holds the rendered report of every fault in both modes, plus
one run over sockets; the other holds the complexity tables of the
standard sweep at its default seed.  A refactor that changes any verdict,
counter, byte count or table cell shows up here.  Regenerate both (only
for an intended change of behaviour) with:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import pathlib

from blindpay.harness import FAULTS, Scenario, report_tables, run_scenario, run_sweep
from blindpay.purchase import MODE_BASIC, MODE_ENHANCED

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "scenario_reports.txt"
SWEEP_FIXTURE = FIXTURES / "sweep_report.txt"

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


def render_sweep() -> str:
    return report_tables(run_sweep())


def test_reports_match_fixture():
    assert render_reports() == FIXTURE.read_text(encoding="utf-8")


def test_sweep_report_matches_fixture():
    assert render_sweep() == SWEEP_FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    FIXTURE.write_text(render_reports(), encoding="utf-8")
    SWEEP_FIXTURE.write_text(render_sweep(), encoding="utf-8")
