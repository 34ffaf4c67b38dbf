"""The CI workflow installs what pyproject.toml declares. Parsed with
regular expressions: Python 3.10, the declared floor, has no tomllib."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _quoted(text: str) -> set[str]:
    return set(re.findall(r'"([^"]+)"', text))


def _toml_list(text: str, key: str) -> set[str]:
    """The strings of the list assigned to ``key`` at the start of a line."""
    return _quoted(re.search(rf"^{key} = \[(.*?)\]", text, re.M | re.S).group(1))


def _job_installs(job: str) -> list[str]:
    """The requirements of each ``pip install`` line of the workflow's ``job``."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    # a job runs from its two-space-indented name to the next such name
    body = re.search(rf"^  {job}:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S).group(1)
    return re.findall(r"pip install (.*)", body)


def test_workflow_installs_the_dependencies_and_the_test_extra():
    pyproject = (ROOT / "pyproject.toml").read_text()
    installs = _job_installs("tests")
    assert len(installs) == 1, installs
    assert _quoted(installs[0]) == (_toml_list(pyproject, "dependencies")
                                    | _toml_list(pyproject, "test"))


def test_runtime_job_installs_only_the_dependencies():
    pyproject = (ROOT / "pyproject.toml").read_text()
    installs = _job_installs("runtime")
    assert len(installs) == 1, installs
    assert _quoted(installs[0]) == _toml_list(pyproject, "dependencies")
