"""The whole-program protocol rules fire on their seeded fixtures — and
on the real code when a real invariant is broken.

Each fixture in ``tests/lint/fixtures/`` pairs the seeded violation with
a correct twin of the same shape, so these tests pin down both halves:
the rule fires exactly once per seeded bug, and the protocol-conforming
code right next to it stays clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import lint_paths
from repro.lint.core import WHOLE_PROGRAM_RULES

FIXTURES = Path(__file__).resolve().parent / "fixtures"
TLB_SOURCE = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "tlb" / "tlb.py"
)


def _findings(path, rule):
    result = lint_paths([path], whole_program=True)
    return [f for f in result.findings if f.rule == rule]


class TestFixturesFire:
    def test_tlbgen001_missing_generation_bump(self):
        found = _findings(FIXTURES / "tlbgen_missing_bump.py", "TLBGEN001")
        assert len(found) == 1  # flush (the correct twin) must stay clean
        assert "invalidate_page" in found[0].message
        assert "generation" in found[0].message

    def test_tlbgen002_missing_shootdown(self):
        found = _findings(
            FIXTURES / "tlbgen_missing_shootdown.py", "TLBGEN002"
        )
        assert len(found) == 1  # sys_munmap_eager must stay clean
        assert "sys_munmap" in found[0].message
        assert "unmap_page" in found[0].message
        assert "shootdown" in found[0].message

    def test_shoot001_unacked_round(self):
        found = _findings(FIXTURES / "shoot_unacked_round.py", "SHOOT001")
        assert len(found) == 1  # broadcast_paired must stay clean
        assert "broadcast" in found[0].message
        assert "_begin_round" in found[0].message

    def test_prov001_alias_store(self):
        found = _findings(FIXTURES / "prov_alias_store.py", "PROV001")
        assert len(found) == 1  # apply_entry_write itself is exempt
        assert "alias" in found[0].message
        assert "apply_entry_write" in found[0].message

    def test_span001_leak_and_never_entered(self):
        found = _findings(FIXTURES / "span_left_open.py", "SPAN001")
        assert len(found) == 2  # traced_safely must stay clean
        messages = " | ".join(f.message for f in found)
        assert "traced_run" in messages  # exception-path leak
        assert "never entered" in messages  # fire_and_forget

    def test_fixtures_trip_nothing_else(self):
        """The seeded bugs are surgical: per-file rules see nothing, and
        every whole-program finding is one of the rules a fixture
        deliberately seeds — one fixture per whole-program rule, so a
        rule added or deleted without its fixture fails here."""
        result = lint_paths([FIXTURES], whole_program=True)
        assert {f.rule for f in result.findings} == set(WHOLE_PROGRAM_RULES)


class TestRealCodeRegression:
    """Acceptance criterion: deleting a real ``generation`` bump from
    ``repro.tlb`` is caught by TLBGEN001."""

    BUMP = "self.generation += 1"

    def test_pristine_tlb_module_is_clean(self, tmp_path):
        copy = tmp_path / "tlb.py"
        copy.write_text(TLB_SOURCE.read_text())
        assert _findings(copy, "TLBGEN001") == []

    def test_removing_a_generation_bump_is_caught(self, tmp_path):
        source = TLB_SOURCE.read_text()
        assert source.count(self.BUMP) >= 2  # invalidate_page and flush
        broken = source.replace(self.BUMP, "pass")
        copy = tmp_path / "tlb.py"
        copy.write_text(broken)
        found = _findings(copy, "TLBGEN001")
        assert len(found) == 2
        names = " | ".join(f.message for f in found)
        assert "TlbHierarchy.invalidate_page" in names
        assert "TlbHierarchy.flush" in names


class TestEngineSemantics:
    def test_must_settle_fixpoint_accepts_indirect_settling(self, tmp_path):
        """A caller that settles through an unmarked helper is clean: the
        helper is *proven* to settle (its every path hits flush_all), so
        calling it counts as a sink."""
        module = tmp_path / "indirect.py"
        module.write_text(
            textwrap.dedent(
                """
                # protocol: defers[translation-visibility] -- caller owns it
                def unmap(mappings: dict, va: int) -> None:
                    mappings.pop(va, None)


                # protocol: settles[translation-visibility] -- flushed
                def flush_all(cores: list) -> float:
                    return float(len(cores))


                def always_flush(cores: list) -> float:
                    return flush_all(cores)


                def do_unmap(mappings: dict, cores: list, va: int) -> None:
                    unmap(mappings, va)
                    always_flush(cores)
                """
            )
        )
        assert _findings(module, "TLBGEN002") == []

    def test_retry_loop_counts_as_settling(self, tmp_path):
        """``while True`` has no fall-through edge, so a bump inside an
        unconditional retry loop protects the path."""
        module = tmp_path / "retry.py"
        module.write_text(
            textwrap.dedent(
                """
                class Hier:
                    def __init__(self):
                        self.generation = 0

                    # protocol: mutates[tlb-generation] -- bumps after retrying
                    def flush_with_retry(self) -> None:
                        while True:
                            if self.try_flush():
                                self.generation += 1
                                break

                    def try_flush(self) -> bool:
                        return True
                """
            )
        )
        assert _findings(module, "TLBGEN001") == []

    def test_span_entered_or_delegated_is_clean(self, tmp_path):
        module = tmp_path / "spans.py"
        module.write_text(
            textwrap.dedent(
                """
                class TraceSession:
                    def span(self, name: str):
                        return name


                def entered(session: TraceSession) -> None:
                    with session.span("phase"):
                        pass


                def bound_then_entered(session: TraceSession) -> None:
                    scope = session.span("phase")
                    with scope:
                        pass


                def delegated(session: TraceSession):
                    return session.span("phase")
                """
            )
        )
        assert _findings(module, "SPAN001") == []

    def test_suppression_covers_whole_program_finding(self, tmp_path):
        source = (FIXTURES / "tlbgen_missing_bump.py").read_text()
        target = "    # protocol: mutates[tlb-generation] -- evicts a cached translation\n"
        assert target in source
        suppressed = source.replace(
            target,
            target
            + "    # lint: allow[TLBGEN001] -- fixture: suppression round-trip\n",
        )
        module = tmp_path / "suppressed.py"
        module.write_text(suppressed)
        result = lint_paths([module], whole_program=True)
        assert result.findings == []  # suppressed, and no LINT000 either

    def test_explicit_rule_selection_opts_in_without_flag(self):
        """Naming a whole-program rule in ``rules`` runs it even without
        ``whole_program=True`` — and runs only it."""
        result = lint_paths(
            [FIXTURES / "shoot_unacked_round.py"], rules=["SHOOT001"]
        )
        assert [f.rule for f in result.findings] == ["SHOOT001"]
