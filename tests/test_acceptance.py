"""Acceptance battery: one test per exit criterion, each printing a verdict line.

Criteria 1-4 read their records from one per-member run over every
completely regular corpus member of order at most 6, and each holds that
whole run to its own budget.  Criteria 5-7 share one session-scoped sweep
over every same-order pair of completely regular corpus members of order at
most 5.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crglobal import families
from crglobal.breakable import enumerate_a3_masks
from crglobal.cli import main
from crglobal.power import power_of
from crglobal.statements import STATEMENTS
from crglobal.verify import check_member_statements, coverage_records


def _report(name, records, elapsed, budget):
    bad = [r for r in records if not r.ok]
    verdict = "PASS" if not bad and elapsed < budget else "FAIL"
    print(f"ACCEPT {name}: {verdict} ({len(records)} records, {elapsed:.1f}s)")
    assert not bad, bad[:5]
    assert elapsed < budget, f"{elapsed:.1f}s exceeds {budget}s"


@pytest.fixture(scope="module")
def member_run(cr6):
    t0 = time.time()
    records = check_member_statements(cr6)
    return records, time.time() - t0


def _report_family(label, check, member_run, cr6, budget):
    records, elapsed = member_run
    mine = [r for r in records if r.check == check]
    assert [r.scope for r in mine] == [name for name, _ in cr6]
    _report(label, mine, elapsed, budget)


def test_criterion_1_a3_characterization_equivalence(member_run, cr6):
    _report_family(
        "criterion-1 triple-condition characterization", "a3-characterization-equivalence", member_run, cr6, 30
    )


def test_criterion_2_a2_characterization_equivalence(member_run, cr6):
    _report_family(
        "criterion-2 pair-condition characterization", "a2-characterization-equivalence", member_run, cr6, 30
    )


def test_criterion_3_structural_forms(member_run, cr6):
    _report_family("criterion-3 chain forms", "structural-form", member_run, cr6, 30)


def test_criterion_4_power_h_classes(member_run, cr6):
    _report_family("criterion-4 power H-classes", "power-h-classes", member_run, cr6, 60)


def test_criterion_5_component_map(sweep):
    nonisomorphic = [r for r in sweep.records if r.check == "power-nonisomorphic"]
    theta_records = [r for r in sweep.records if r.check == "theta-extraction"]
    bad = [r for r in nonisomorphic + theta_records if not r.ok]
    ok = not bad and sweep.psi_total >= 20 and sweep.nonsingleton_on_left_zero >= 1
    print(
        f"ACCEPT criterion-5 component maps: {'PASS' if ok else 'FAIL'} "
        f"({sweep.psi_total} subset isomorphisms, "
        f"{sweep.nonsingleton_on_left_zero} non-singleton-preserving on left zero, "
        f"{len(nonisomorphic)} non-isomorphic pairs)"
    )
    assert len(nonisomorphic) == 145
    assert not bad, bad[:5]
    assert sweep.psi_total >= 20
    assert sweep.nonsingleton_on_left_zero >= 1


def test_criterion_6_element_map(sweep):
    eta_records = [r for r in sweep.records if r.check == "eta-construction"]
    bad = [r for r in eta_records if not r.ok]
    print(
        f"ACCEPT criterion-6 element maps: {'PASS' if not bad else 'FAIL'} "
        f"({len(eta_records)} constructions)"
    )
    assert eta_records and not bad, bad[:5]
    assert len(sweep.etas) == len(eta_records)


def test_criterion_6_runtime(cr5):
    from crglobal.verify import global_sweep

    t0 = time.time()
    global_sweep(cr5)
    elapsed = time.time() - t0
    print(f"ACCEPT criterion-6 runtime: {'PASS' if elapsed < 120 else 'FAIL'} ({elapsed:.1f}s)")
    assert elapsed < 120


def test_criterion_7_statement_suite(cr5, sweep):
    statements = [name for name, side in STATEMENTS if side != "family"]
    suite_records = check_member_statements(cr5) + [r for r in sweep.records if r.check in statements]
    bad = [r for r in suite_records if not r.ok]
    cov = coverage_records(suite_records)
    uncovered = [r for r in cov if not r.ok]
    ok = not bad and not uncovered
    print(
        f"ACCEPT criterion-7 statement suite: {'PASS' if ok else 'FAIL'} "
        f"({len(suite_records)} records, {len(statements)} statements all instantiated)"
    )
    assert not bad, bad[:5]
    assert not uncovered, uncovered


def test_criterion_8_order_12_enumeration():
    s = families.tower_12()
    assert s.order == 12
    t0 = time.time()
    ep = power_of(s).idempotent_masks()
    a3 = enumerate_a3_masks(s)
    elapsed = time.time() - t0
    print(
        f"ACCEPT criterion-8 order-12 enumeration: {'PASS' if elapsed < 10 else 'FAIL'} "
        f"({len(ep)} idempotent subsets, {len(a3)} triple-condition subsets, {elapsed:.1f}s)"
    )
    assert elapsed < 10
    assert ep and a3


def test_criterion_9_determinism(capsys, monkeypatch, verify_digests):
    monkeypatch.delenv("CRGLOBAL_INJECT", raising=False)
    assert main(["verify", "--profile", "full"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--profile", "full"]) == 0
    second = capsys.readouterr().out
    assert main(["verify", "--profile", "quick"]) == 0
    quick = capsys.readouterr().out
    ok = first == second and first
    print(f"ACCEPT criterion-9 determinism: {'PASS' if ok else 'FAIL'} ({len(first)} bytes)")
    assert first == second
    for line in first.strip().splitlines():
        assert json.loads(line)["ok"] is True
    assert hashlib.sha256(first.encode()).hexdigest() == verify_digests["full"]
    assert hashlib.sha256(quick.encode()).hexdigest() == verify_digests["quick"]


def test_verify_digests_in_a_fresh_interpreter(verify_digests):
    # the in-process runs above share derived data with earlier tests; a
    # fresh interpreter builds every derived value in the order verify asks
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("CRGLOBAL_INJECT", None)
    for profile in ("quick", "full"):
        run = subprocess.run(
            [sys.executable, "-m", "crglobal.cli", "verify", "--profile", profile],
            env=env, capture_output=True, check=True,
        )
        assert hashlib.sha256(run.stdout).hexdigest() == verify_digests[profile], profile
