from qfrac import checks


def overflowing() -> float:
    raise OverflowError("math range error")


def test_record_keeps_arithmetic_error_as_error_record():
    rec = checks._record("boom", {"q": 0.5}, overflowing, lambda: 0.0, 1e-9)
    assert rec.error == "OverflowError: math range error"
    assert not rec.passed


def test_picard_error_monotone_counts_its_terms():
    report = checks.run_suite("ivp", seed=0)
    (rec,) = [r for r in report.records if r.identity == "picard_error_monotone"]
    assert rec.passed and rec.error is None
    assert rec.terms > 0
