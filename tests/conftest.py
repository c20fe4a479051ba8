import json
import re

import tmsr.cli
import tmsr.reports

_emit_report = tmsr.reports.emit_report


def _emit_report_as_json_dumps(report):
    """``emit_report``, checked against json's own indented form of the
    same document. Installed before any test module imports the name, so
    every report the suite writes, through the command line or not, is
    compared byte for byte."""
    text = _emit_report(report)
    assert text == json.dumps(tmsr.reports.report_json(report), indent=2) + "\n"
    return text


tmsr.reports.emit_report = tmsr.cli.emit_report = _emit_report_as_json_dumps


def pytest_runtest_logreport(report):
    """Acceptance tests print their own PASS line; mirror failures so
    every criterion yields exactly one printed verdict line."""
    if report.when != "call" or not report.failed:
        return
    m = re.search(r"test_criterion_(\d+)", report.nodeid)
    if m:
        print(f"criterion {int(m.group(1))}: FAIL ({report.nodeid})")
