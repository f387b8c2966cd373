"""Shared pytest plumbing: the acceptance suite registers one line per
criterion and this hook prints them at the end of the run, so the
pass/fail summary is visible regardless of output capturing; and the
reader of the CSV tables that the tests check."""
import csv

ACCEPTANCE_LINES = []


def record_criterion(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {number:2d}] {status} - {description}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def read_csv(path: str):
    """The header and rows of a written table; a cell that parses as a float is one."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [[cell(c) for c in row] for row in rows]
