import re


def pytest_runtest_logreport(report):
    """Acceptance tests print their own PASS line; mirror failures so
    every criterion yields exactly one printed verdict line."""
    if report.when != "call" or not report.failed:
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        print(f"criterion {int(m.group(1))}: FAIL ({report.nodeid})")
