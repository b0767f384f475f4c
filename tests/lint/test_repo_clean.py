"""The repo must lint clean against its own committed baseline.

This is the same gate CI runs (`python -m repro.cli lint`): it fails the
suite the moment a new PV-Ops bypass, determinism hazard or unregistered
fault site lands anywhere in ``src/repro``.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint import filter_baseline, lint_paths, load_baseline
from repro.lint.baseline import default_baseline_path
from repro.lint.core import ALL_RULES, WHOLE_PROGRAM_RULES

PACKAGE_DIR = Path(repro.__file__).resolve().parent


def test_all_expected_rules_registered():
    assert set(ALL_RULES) == {
        "PVOPS002",
        "DET001",
        "DET002",
        "DET003",
        "FAULT001",
    }


def test_all_expected_whole_program_rules_registered():
    assert set(WHOLE_PROGRAM_RULES) == {
        "DETFLOW001",
        "FORK001",
        "FORK002",
        "PIPE001",
        "PIPE002",
        "PROV001",
        "RES001",
        "RES002",
        "SHOOT001",
        "SIG001",
        "SPAN001",
        "TLBGEN001",
        "TLBGEN002",
    }
    # The two vocabularies never overlap: a name resolves unambiguously.
    assert not set(ALL_RULES) & set(WHOLE_PROGRAM_RULES)


def test_repo_has_no_new_findings():
    result = lint_paths([PACKAGE_DIR])
    baseline_path = default_baseline_path()
    assert baseline_path.exists(), "lint-baseline.json must be committed"
    new = filter_baseline(result.findings, load_baseline(baseline_path))
    formatted = "\n".join(f"{f.location()}: {f.rule} {f.message}" for f in new)
    assert not new, f"new lint findings:\n{formatted}"


def test_repo_is_clean_under_whole_program_rules():
    """The CI strict gate: the call-graph/CFG protocol rules (TLBGEN,
    SHOOT, PROV, SPAN) and the interprocedural dataflow rules (DETFLOW,
    RES) find nothing new anywhere in ``src/repro``."""
    result = lint_paths([PACKAGE_DIR], whole_program=True)
    new = filter_baseline(
        result.findings, load_baseline(default_baseline_path())
    )
    formatted = "\n".join(f"{f.location()}: {f.rule} {f.message}" for f in new)
    assert not new, f"new whole-program lint findings:\n{formatted}"


def test_baseline_is_not_stale():
    """Every baseline entry still matches a real finding — fixed findings
    must be removed from the baseline so it cannot mask future ones."""
    result = lint_paths([PACKAGE_DIR])
    baseline = load_baseline(default_baseline_path())
    current = {f.fingerprint() for f in result.findings}
    stale = [key for key in baseline if key not in current]
    assert not stale, f"baseline entries no longer needed: {stale}"


def test_introducing_a_violation_is_caught(tmp_path):
    """End-to-end: a fixture violation for *each* rule fails a lint run."""
    fixtures = {
        "PVOPS002": "page = PageTablePage(frame=frame, level=1)\n",
        "DET001": "import random\nx = random.random()\n",
        "DET002": "for n in set(nodes):\n    visit(n)\n",
        "DET003": 'seed = hash("x")\n',
        "FAULT001": "plan.fire('not.a.real.site')\n",
    }
    # A rule added or deleted without a fixture here fails loudly.
    assert set(fixtures) == set(ALL_RULES)
    for rule, source in fixtures.items():
        bad = tmp_path / f"{rule.lower()}_violation.py"
        bad.write_text(source)
        result = lint_paths([bad])
        assert [f.rule for f in result.findings] == [rule], rule
