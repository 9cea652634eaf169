"""Acceptance criteria at full scale: one test per criterion of
`levymult.checks`, run at divisor 1.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; the terminal summary repeats them in criterion order.  The
criteria, their configurations, seeds and tolerances live in
`levymult.checks`, which `levymult selftest` runs at a smaller scale.
"""

import sys

from levymult import checks


def _accept(criterion, acceptance_records):
    record = criterion(1)
    acceptance_records.append(record)
    print("\n" + record.line, file=sys.__stdout__, flush=True)
    assert record.passed, record.line


def test_criterion_1_symbol_bound(acceptance_records):
    _accept(checks.criterion_1_symbol_bound, acceptance_records)


def test_criterion_2_formula_equivalence(acceptance_records):
    _accept(checks.criterion_2_formula_equivalence, acceptance_records)


def test_criterion_3_stable_closed_form(acceptance_records):
    _accept(checks.criterion_3_stable_closed_form, acceptance_records)


def test_criterion_4_alpha_one_limit(acceptance_records):
    _accept(checks.criterion_4_alpha_one_limit, acceptance_records)


def test_criterion_5_norm_bound_probing(acceptance_records):
    _accept(checks.criterion_5_norm_bound_probing, acceptance_records)


def test_criterion_6_mc_spectral_pairing(acceptance_records):
    _accept(checks.criterion_6_mc_spectral_pairing, acceptance_records)


def test_criterion_7_differential_subordination(acceptance_records):
    _accept(checks.criterion_7_differential_subordination, acceptance_records)


def test_criterion_8_lp_isometry(acceptance_records):
    _accept(checks.criterion_8_lp_isometry, acceptance_records)


def test_criterion_9_gaussian_branch(acceptance_records):
    _accept(checks.criterion_9_gaussian_branch, acceptance_records)


def test_criterion_10_eps_and_u_limits(acceptance_records):
    _accept(checks.criterion_10_eps_and_u_limits, acceptance_records)


def test_every_criterion_has_a_test():
    names = {f"test_{c.__name__}" for c in checks.CRITERIA}
    assert len(names) == 10 and names <= set(globals())
