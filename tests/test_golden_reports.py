"""Scenario and sweep reports pinned byte for byte.

Two fixtures hold the rendered report of every fault in both modes, plus
one run over sockets: one on the default 64-bit desk group, one on
ffdhe2048.  A third holds the complexity tables of the standard sweep at
its default seed.  A refactor that changes any verdict, counter, byte
count or table cell shows up here.  Regenerate all three (only for an
intended change of behaviour) with:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import pathlib

from blindpay.harness import FAULTS, Scenario, report_tables, run_scenario, run_sweep
from blindpay.purchase import MODE_BASIC, MODE_ENHANCED

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
FIXTURE = FIXTURES / "scenario_reports.txt"
FFDHE2048_FIXTURE = FIXTURES / "scenario_reports_ffdhe2048.txt"
SWEEP_FIXTURE = FIXTURES / "sweep_report.txt"

NEEDS_STEP = ("corrupt-signature", "wrong-s", "double-spend")


def golden_scenarios(group_bits: str) -> list[Scenario]:
    out = [Scenario(mode=mode, price=5, group_bits=group_bits, seed=0, fault=fault,
                    fault_step=2 if fault in NEEDS_STEP else 0)
           for fault in FAULTS for mode in (MODE_BASIC, MODE_ENHANCED)]
    out.append(Scenario(mode=MODE_ENHANCED, price=13, group_bits=group_bits,
                        transport="socket", seed=0, fault="corrupt-signature", fault_step=2))
    return out


def render_reports(group_bits: str = "64") -> str:
    return "".join(run_scenario(sc).render() for sc in golden_scenarios(group_bits))


def render_sweep() -> str:
    return report_tables(run_sweep())


def test_reports_match_fixture():
    assert render_reports() == FIXTURE.read_text(encoding="utf-8")


def test_reports_on_ffdhe2048_match_fixture():
    assert render_reports("ffdhe2048") == FFDHE2048_FIXTURE.read_text(encoding="utf-8")


def test_ffdhe2048_reaches_every_outcome_and_verdict_of_the_desk_group():
    def judged(path):
        return [line for line in path.read_text(encoding="utf-8").splitlines()
                if line.startswith(("outcome:", "key_ok:", "terms_match:", "verdict:"))]
    assert judged(FFDHE2048_FIXTURE) == judged(FIXTURE)


def test_sweep_report_matches_fixture():
    assert render_sweep() == SWEEP_FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    FIXTURE.write_text(render_reports(), encoding="utf-8")
    FFDHE2048_FIXTURE.write_text(render_reports("ffdhe2048"), encoding="utf-8")
    SWEEP_FIXTURE.write_text(render_sweep(), encoding="utf-8")
