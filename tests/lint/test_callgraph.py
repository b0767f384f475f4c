"""Project indexer: markers, type inference, call resolution."""

from __future__ import annotations

import ast
import textwrap

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.callgraph import build_index, least_fixpoint, parse_annotation
from repro.lint.core import parse_source


def _index(*sources: str):
    modules = [
        parse_source(
            textwrap.dedent(src), path=f"src/mod{i}.py", module=f"mod{i}"
        )
        for i, src in enumerate(sources)
    ]
    return build_index(modules)


def _resolutions(index, caller_qualname: str) -> set[str]:
    out: set[str] = set()
    for site in index.functions[caller_qualname].calls:
        out.update(site.resolutions)
    return out


class TestMarkers:
    def test_marker_on_comment_line_above_def(self):
        index = _index(
            """
            # protocol: mutates[tlb-generation] -- must bump
            def flush():
                pass
            """
        )
        fn = index.functions["mod0:flush"]
        assert fn.marked("mutates", "tlb-generation")
        assert fn.marker_keys("mutates") == {"tlb-generation"}

    def test_marker_above_decorators(self):
        index = _index(
            """
            # protocol: settles[translation-visibility] -- flushed here
            @staticmethod
            def flush_all():
                pass
            """
        )
        assert index.functions["mod0:flush_all"].marked(
            "settles", "translation-visibility"
        )

    def test_multiple_keys_in_one_marker(self):
        index = _index(
            """
            # protocol: defers[key-a, key-b] -- caller owns both
            def helper():
                pass
            """
        )
        fn = index.functions["mod0:helper"]
        assert fn.marker_keys("defers") == {"key-a", "key-b"}

    def test_trailing_marker_on_def_line(self):
        index = _index(
            """
            def helper():  # protocol: ends[round] -- closes it
                pass
            """
        )
        assert index.functions["mod0:helper"].marked("ends", "round")

    def test_unrelated_comment_is_not_a_marker(self):
        index = _index(
            """
            # just a comment
            def helper():
                pass
            """
        )
        assert index.functions["mod0:helper"].markers == []


class TestAnnotationParsing:
    def _ann(self, text: str):
        return parse_annotation(ast.parse(text, mode="eval").body)

    def test_shapes(self):
        assert self._ann("Tlb") == ("class", "Tlb")
        assert self._ann("tlb.Tlb") == ("class", "Tlb")
        assert self._ann("Tlb | None") == ("class", "Tlb")
        assert self._ann("Optional[Tlb]") == ("class", "Tlb")
        assert self._ann("list[Tlb]") == ("seq", ("class", "Tlb"))
        assert self._ann("tuple[A, B]") == (
            "tuple",
            (("class", "A"), ("class", "B")),
        )
        assert self._ann("dict[K, V]") == (
            "dict",
            (("class", "K"), ("class", "V")),
        )
        assert self._ann("'Tlb | None'") == ("class", "Tlb")  # quoted
        assert self._ann("A | B") is None  # genuine union: refuse to guess


class TestCallResolution:
    def test_self_method_resolves(self):
        index = _index(
            """
            class Shootdown:
                def flush(self):
                    self._charge()

                def _charge(self):
                    pass
            """
        )
        assert _resolutions(index, "mod0:Shootdown.flush") == {
            "mod0:Shootdown._charge"
        }

    def test_annotated_parameter_resolves_across_modules(self):
        index = _index(
            """
            class Hier:
                def flush(self):
                    pass
            """,
            """
            def caller(h: Hier):
                h.flush()
            """,
        )
        assert _resolutions(index, "mod1:caller") == {"mod0:Hier.flush"}

    def test_tuple_unpack_loop_types_the_receiver(self):
        index = _index(
            """
            class Tlb:
                def flush(self):
                    pass

            class Mmu:
                def drop(self):
                    pass

            def flush_cores(cores: list[tuple[Tlb, Mmu]]):
                for tlb, mmu in cores:
                    tlb.flush()
                    mmu.drop()
            """
        )
        assert _resolutions(index, "mod0:flush_cores") == {
            "mod0:Tlb.flush",
            "mod0:Mmu.drop",
        }

    def test_attr_type_from_init_constructor(self):
        index = _index(
            """
            class Tlb:
                def flush(self):
                    pass

            class Core:
                def __init__(self):
                    self.tlb = Tlb()

                def reset(self):
                    self.tlb.flush()
            """
        )
        assert _resolutions(index, "mod0:Core.reset") == {"mod0:Tlb.flush"}

    def test_virtual_dispatch_includes_subclass_override(self):
        index = _index(
            """
            class Base:
                def flush(self):
                    pass

            class Derived(Base):
                def flush(self):
                    pass

            def caller(b: Base):
                b.flush()
            """
        )
        assert _resolutions(index, "mod0:caller") == {
            "mod0:Base.flush",
            "mod0:Derived.flush",
        }

    def test_unique_basename_fallback(self):
        index = _index(
            """
            def unmap_page(m, va):
                m.pop(va, None)
            """,
            """
            def syscall(m, va):
                unmap_page(m, va)
            """,
        )
        assert _resolutions(index, "mod1:syscall") == {"mod0:unmap_page"}

    def test_local_definition_beats_foreign_basename(self):
        index = _index(
            """
            def helper():
                pass
            """,
            """
            def helper():
                pass

            def caller():
                helper()
            """,
        )
        assert _resolutions(index, "mod1:caller") == {"mod1:helper"}

    def test_ambiguous_untyped_call_resolves_to_nothing(self):
        index = _index(
            """
            class A:
                def flush(self):
                    pass

            class B:
                def flush(self):
                    pass

            def caller(thing):
                thing.flush()
            """
        )
        assert _resolutions(index, "mod0:caller") == set()

    def test_constructor_call_is_not_a_protocol_callee(self):
        index = _index(
            """
            class Tlb:
                pass

            def make():
                return Tlb()
            """
        )
        assert _resolutions(index, "mod0:make") == set()

    def test_super_call_resolves_to_ancestor(self):
        index = _index(
            """
            class Base:
                def flush(self):
                    pass

            class Derived(Base):
                def flush(self):
                    super().flush()
            """
        )
        assert _resolutions(index, "mod0:Derived.flush") == {
            "mod0:Base.flush"
        }

    def test_return_annotation_types_the_result(self):
        index = _index(
            """
            class Hier:
                def flush(self):
                    pass

            def pick() -> Hier:
                pass

            def caller():
                h = pick()
                h.flush()
            """
        )
        assert "mod0:Hier.flush" in _resolutions(index, "mod0:caller")


class TestReverseEdges:
    def test_callers_map_and_chain(self):
        index = _index(
            """
            def leaf():
                pass

            def mid():
                leaf()

            def top():
                mid()
            """
        )
        callers = {fn.qualname for fn, _ in index.callers["mod0:leaf"]}
        assert callers == {"mod0:mid"}
        assert index.caller_chain("mod0:leaf") == ["mod0:mid", "mod0:top"]

    def test_chain_is_empty_for_uncalled_function(self):
        index = _index(
            """
            def lonely():
                pass
            """
        )
        assert index.caller_chain("mod0:lonely") == []


@st.composite
def _graphs(draw):
    """A dependency graph over up to eight nodes (cycles and self-loops
    included) plus the seed set of the reachability fact."""
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 8)))]
    graph = {node: draw(st.sets(st.sampled_from(nodes))) for node in nodes}
    return graph, draw(st.sets(st.sampled_from(nodes)))


def _round_robin_reaches(graph, seeds):
    """Reference solver: sweep every node until a sweep adds nothing."""
    facts = set(seeds)
    changed = True
    while changed:
        changed = False
        for node, deps in graph.items():
            if node not in facts and not facts.isdisjoint(deps):
                facts.add(node)
                changed = True
    return facts


class TestLeastFixpoint:
    @settings(max_examples=200, deadline=None)
    @given(_graphs())
    def test_matches_the_round_robin_reference(self, case):
        """Fact: "reaches a seed node". The worklist must reach the same
        fixpoint as a round-robin solver, visiting every node once in
        sorted order before any revisit."""
        graph, seeds = case
        facts = set(seeds)
        visits = []

        def update(node):
            visits.append(node)
            if node in facts or facts.isdisjoint(graph[node]):
                return False
            facts.add(node)
            return True

        least_fixpoint(graph, update)
        assert facts == _round_robin_reaches(graph, seeds)
        assert visits[: len(graph)] == sorted(graph)

    def test_a_long_chain_needs_no_round_cap(self):
        """Each node reads the next; sorted order visits them against the
        flow, so the fact travels back one revisit at a time."""
        nodes = [f"n{i:02d}" for i in range(50)]
        graph = {a: {b} for a, b in zip(nodes, nodes[1:])}
        graph[nodes[-1]] = set()
        facts = {nodes[-1]}

        def update(node):
            if node in facts or facts.isdisjoint(graph[node]):
                return False
            facts.add(node)
            return True

        least_fixpoint(graph, update)
        assert facts == set(nodes)
