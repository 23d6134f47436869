"""The Python version the package declares is the one CI runs.

Worker failures carry their host/epoch context as exception notes
(``BaseException.add_note``, new in 3.11), so the declared floor is
3.11, and every CI job pins exactly that version.
"""

import pathlib
import re
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def job_python_versions(workflow: str) -> dict[str, list[str]]:
    """``{job: [python-version, ...]}`` of a GitHub workflow's jobs."""
    jobs: dict[str, list[str]] = {}
    job = None
    in_jobs = False
    for line in workflow.splitlines():
        if re.match(r"^\S", line):
            in_jobs = line.rstrip() == "jobs:"
            continue
        if not in_jobs:
            continue
        name = re.match(r"^  ([\w-]+):\s*$", line)
        if name:
            job = name.group(1)
            jobs[job] = []
            continue
        version = re.search(r"python-version:\s*[\"']?([\d.]+)", line)
        if version and job is not None:
            jobs[job].append(version.group(1))
    return jobs


def test_requires_python_matches_every_ci_job():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    floor = re.fullmatch(r">=\s*([\d.]+)", project["requires-python"])
    assert floor, project["requires-python"]
    jobs = job_python_versions((ROOT / ".github/workflows/ci.yml").read_text())
    assert jobs
    for job, versions in jobs.items():
        assert versions == [floor.group(1)], (job, versions)
