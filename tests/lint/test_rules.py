"""Per-rule fixture snippets: positive, suppressed, and clean variants."""

from __future__ import annotations

import pytest

from repro.lint import lint_source
from repro.lint.callgraph import build_index
from repro.lint.core import META_RULE, parse_source
from repro.lint.rules_protocol import PteProvenanceRule


def findings_for(source: str, *rules: str):
    result = lint_source(source, path="src/repro/fixture.py", module="repro.fixture")
    wanted = set(rules) if rules else None
    return [f for f in result.findings if wanted is None or f.rule in wanted]


def prov001(source: str):
    """PROV001 findings on ``source`` linted as one whole module."""
    parsed = parse_source(
        source, path="src/repro/fixture.py", module="repro.fixture"
    )
    return PteProvenanceRule().run(build_index([parsed]))


class TestSuppressions:
    VIOLATION = "frame.kind = FrameKind.PAGE_TABLE"

    def test_trailing_allow_with_justification_suppresses(self):
        src = f"{self.VIOLATION}  # lint: allow[PVOPS002] -- test fixture\n"
        assert findings_for(src) == []

    def test_standalone_allow_line_above_suppresses(self):
        src = f"# lint: allow[PVOPS002] -- test fixture\n{self.VIOLATION}\n"
        assert findings_for(src) == []

    def test_allow_without_justification_does_not_suppress(self):
        src = f"{self.VIOLATION}  # lint: allow[PVOPS002]\n"
        found = findings_for(src)
        assert {f.rule for f in found} == {"PVOPS002", META_RULE}

    def test_allow_for_other_rule_does_not_suppress(self):
        src = f"{self.VIOLATION}  # lint: allow[DET001] -- wrong rule\n"
        assert [f.rule for f in findings_for(src, "PVOPS002")] == ["PVOPS002"]

    def test_trailing_comment_of_previous_line_does_not_leak_down(self):
        src = (
            "x = 1  # lint: allow[PVOPS002] -- belongs to this line only\n"
            f"{self.VIOLATION}\n"
        )
        assert [f.rule for f in findings_for(src, "PVOPS002")] == ["PVOPS002"]

    def test_multi_rule_allow(self):
        src = (
            "import random\n"
            "page = PageTablePage(frame, random.random())"
            "  # lint: allow[PVOPS002, DET001] -- fixture covering both\n"
        )
        assert findings_for(src, "PVOPS002", "DET001") == []


class TestPvops001:
    """The PV-Ops store contract (§5.2): every PTE store goes through
    ``apply_entry_write``. The whole-program PROV001 enforces it."""

    def test_subscript_store_flagged(self):
        assert [f.rule for f in prov001("page.entries[3] = 0\n")] == ["PROV001"]

    def test_augmented_store_flagged(self):
        found = prov001("page.entries[3] &= ~MASK\n")
        assert [f.rule for f in found] == ["PROV001"]
        assert "apply_entry_write" in found[0].message

    def test_list_rebind_flagged(self):
        found = prov001("page.entries = [0] * 512\n")
        assert [f.rule for f in found] == ["PROV001"]

    def test_mutating_method_flagged(self):
        found = prov001("page.entries.clear()\n")
        assert [f.rule for f in found] == ["PROV001"]
        assert ".clear()" in found[0].message

    def test_read_is_clean(self):
        assert prov001("value = page.entries[3]\n") == []

    def test_iteration_is_clean(self):
        assert prov001("for entry in page.entries:\n    use(entry)\n") == []

    def test_unrelated_entries_attribute_is_clean(self):
        # A TLB's integer capacity happens to be called "entries".
        assert prov001("self.entries = n_entries\n") == []

    def test_apply_entry_write_itself_is_clean(self):
        src = (
            "class PagingOps:\n"
            "    @staticmethod\n"
            "    def apply_entry_write(page, index, value):\n"
            "        page.entries[index] = value\n"
        )
        assert prov001(src) == []

    def test_store_in_other_backend_method_flagged(self):
        src = (
            "class NativePagingOps(PagingOps):\n"
            "    def clear_ad_bits(self, tree, page, index):\n"
            "        page.entries[index] &= ~PTE_AD_BITS\n"
        )
        (finding,) = prov001(src)
        assert finding.message.startswith(
            "repro.fixture:NativePagingOps.clear_ad_bits: raw PTE store"
        )


class TestProv001:
    """Every PTE-store shape is exactly one PROV001 finding, in any scope
    of a module; reads and the blessed writer stay clean."""

    STORES = {
        "subscript": "def f(page):\n    page.entries[3] = 0\n",
        "augmented": "def f(page):\n    page.entries[3] &= ~MASK\n",
        "list-rebind": "def f(page):\n    page.entries = [0] * 512\n",
        "clear": "def f(page):\n    page.entries.clear()\n",
        "append": "def f(page):\n    page.entries.append(0)\n",
        "del": "def f(page):\n    del page.entries[3]\n",
        "nested-def": (
            "def outer(page):\n"
            "    def inner():\n"
            "        page.entries[0] = 1\n"
            "    inner()\n"
        ),
        "module-level": "page.entries[3] = 0\n",
        "class-body": "class Table:\n    page.entries[0] = 1\n",
        "module-lambda": "poke = lambda page: page.entries.append(0)\n",
        "alias-store": "def f(page):\n    ents = page.entries\n    ents[0] = 1\n",
        "alias-mutator": (
            "def f(page):\n    ents = page.entries\n    ents.append(1)\n"
        ),
        # PTESanitizer.install's shape, without its suppression comment.
        "guarded-init": (
            "class PTESanitizer:\n"
            "    def install(self):\n"
            "        orig_init = PageTablePage.__init__\n"
            "        def guarded_init(page, frame, level, primary=None):\n"
            "            orig_init(page, frame, level, primary)\n"
            "            page.entries = GuardedEntries(page.entries, self, 0)\n"
            "        PageTablePage.__init__ = guarded_init\n"
        ),
    }

    CLEAN = {
        "read": "def f(page):\n    return page.entries[3]\n",
        "iteration": "def f(page):\n    for e in page.entries:\n        use(e)\n",
        "unrelated-attribute": (
            "class Tlb:\n"
            "    def __init__(self, n_entries):\n"
            "        self.entries = n_entries\n"
        ),
        "blessed-writer": (
            "class PagingOps:\n"
            "    @staticmethod\n"
            "    def apply_entry_write(page, index, value):\n"
            "        page.entries[index] = value\n"
        ),
    }

    @pytest.mark.parametrize("shape", sorted(STORES))
    def test_store_is_one_finding(self, shape):
        assert [f.rule for f in prov001(self.STORES[shape])] == ["PROV001"]

    @pytest.mark.parametrize("shape", sorted(CLEAN))
    def test_clean(self, shape):
        assert prov001(self.CLEAN[shape]) == []

    def test_nested_store_is_named_and_keeps_the_callers(self):
        src = (
            "class PTESanitizer:\n"
            "    def install(self):\n"
            "        def guarded_init(page):\n"
            "            page.entries = [0] * 512\n"
            "        return guarded_init\n"
            "def setup(sanitizer: PTESanitizer):\n"
            "    sanitizer.install()\n"
        )
        (finding,) = prov001(src)
        assert finding.message.startswith(
            "repro.fixture:PTESanitizer.install.<locals>.guarded_init: "
        )
        assert finding.message.endswith("reachable via repro.fixture:setup")

    def test_import_time_store_says_so(self):
        (finding,) = prov001("page.entries[3] = 0\n")
        assert finding.message.startswith("repro.fixture:<module>: ")
        assert finding.message.endswith("runs at import time")


class TestPvops002:
    def test_constructor_outside_alloc_table_flagged(self):
        src = "replica = PageTablePage(frame=frame, level=2)\n"
        assert [f.rule for f in findings_for(src)] == ["PVOPS002"]

    def test_constructor_inside_alloc_table_clean(self):
        src = (
            "class Ops:\n"
            "    def alloc_table(self, tree, level, node_hint):\n"
            "        frame = self.pagecache.alloc(node_hint)\n"
            "        frame.kind = FrameKind.PAGE_TABLE\n"
            "        return PageTablePage(frame=frame, level=level)\n"
        )
        assert findings_for(src) == []

    def test_direct_page_table_frame_alloc_flagged(self):
        src = "frame = physmem.alloc_frame(node, kind=FrameKind.PAGE_TABLE)\n"
        assert [f.rule for f in findings_for(src)] == ["PVOPS002"]

    def test_kind_retag_flagged(self):
        src = "frame.kind = FrameKind.PAGE_TABLE\n"
        assert [f.rule for f in findings_for(src)] == ["PVOPS002"]

    def test_pagecache_module_is_exempt(self):
        src = "frame = physmem.alloc_frame(node, kind=FrameKind.PAGE_TABLE)\n"
        result = lint_source(
            src, path="src/repro/mem/pagecache.py", module="repro.mem.pagecache"
        )
        assert result.findings == []

    def test_data_frame_alloc_clean(self):
        src = "frame = physmem.alloc_frame(node, kind=FrameKind.DATA)\n"
        assert findings_for(src) == []


class TestDet001:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nvalue = random.random()\n",
            "import random\nrandom.shuffle(items)\n",
            "import random\nrng = random.Random()\n",
            "import numpy as np\nrng = np.random.default_rng()\n",
            "import numpy\nnumpy.random.shuffle(items)\n",
            "import time\nstamp = time.time()\n",
            "import time\nelapsed = time.perf_counter()\n",
            "import os\ntoken = os.urandom(8)\n",
            "import uuid\nrun_id = uuid.uuid4()\n",
        ],
    )
    def test_unseeded_entropy_flagged(self, snippet):
        assert [f.rule for f in findings_for(snippet)] == ["DET001"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import random\nrng = random.Random(seed)\n",
            "import numpy as np\nrng = np.random.default_rng(seed)\n",
            "import numpy as np\nrng = np.random.default_rng((seed, 0xBEEF))\n",
            "import os\npath = os.getcwd()\n",
            "value = self.rng.random()\n",  # an owned, seeded generator
        ],
    )
    def test_seeded_or_unrelated_clean(self, snippet):
        assert findings_for(snippet) == []

    def test_aliased_numpy_import_tracked(self):
        src = "import numpy as xp\nrng = xp.random.default_rng()\n"
        assert [f.rule for f in findings_for(src)] == ["DET001"]


class TestDet002:
    @pytest.mark.parametrize(
        "snippet",
        [
            "for node in set(nodes):\n    visit(node)\n",
            "for node in {a, b, c}:\n    visit(node)\n",
            "order = list(set(nodes))\n",
            "order = [f(n) for n in frozenset(nodes)]\n",
            "for node in mask_a | {0, 1}:\n    visit(node)\n",
            "text = ', '.join({str(n) for n in nodes})\n",
            "it = iter(set(nodes))\n",
            "async def f(nodes):\n    async for node in set(nodes):\n"
            "        visit(node)\n",
            # A set's order folded into a list that reaches a payload.
            "def emit(names):\n    acc = []\n    for name in set(names):\n"
            "        acc.append(name)\n    return record({'names': acc})\n",
        ],
    )
    def test_unordered_iteration_flagged(self, snippet):
        assert [f.rule for f in findings_for(snippet)] == ["DET002"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "for node in sorted(set(nodes)):\n    visit(node)\n",
            "def emit(names):\n    acc = []\n    for name in sorted(set(names)):\n"
            "        acc.append(name)\n    return record({'names': acc})\n",
            "for node in nodes:\n    visit(node)\n",
            "count = len(set(nodes))\n",
            "total = sum({1, 2, 3})\n",
            "present = {f(n) for n in set(nodes)}\n",  # set -> set: no order
            "if node in {0, 1}:\n    pass\n",  # membership, not iteration
        ],
    )
    def test_ordered_or_order_insensitive_clean(self, snippet):
        assert findings_for(snippet) == []


class TestDet003:
    @pytest.mark.parametrize(
        "snippet",
        [
            "seed = hash(name) & 0xFFFF\n",
            "rng = np.random.default_rng((seed, hash(key)))\n",
            "bucket = hash((a, b)) % n\n",
        ],
    )
    def test_builtin_hash_flagged(self, snippet):
        assert [f.rule for f in findings_for(snippet, "DET003")] == ["DET003"]

    @pytest.mark.parametrize(
        "snippet",
        [
            "import zlib\nseed = zlib.crc32(name.encode()) & 0xFFFF\n",
            # __hash__ implementations are what the builtin is for.
            "class Key:\n"
            "    def __hash__(self):\n"
            "        return hash((self.a, self.b))\n",
            "digest = obj.hash()\n",  # a method, not the builtin
        ],
    )
    def test_stable_digests_and_dunder_hash_clean(self, snippet):
        assert findings_for(snippet, "DET003") == []

    def test_suppression_applies(self):
        src = "seed = hash(name)  # lint: allow[DET003] -- fixture\n"
        assert findings_for(src, "DET003") == []


class TestFault001:
    def test_unregistered_fire_site_flagged(self):
        src = "plan.fire('mem.pagecashe.refill', node=1)\n"
        found = findings_for(src)
        assert [f.rule for f in found] == ["FAULT001"]
        assert "mem.pagecashe.refill" in found[0].message

    def test_registered_fire_site_clean(self):
        assert findings_for("plan.fire('mem.pagecache.refill', node=1)\n") == []

    def test_unregistered_fault_rule_site_flagged(self):
        src = "rule = FaultRule(site='tlb.shootdown.dropack')\n"
        assert [f.rule for f in findings_for(src)] == ["FAULT001"]

    def test_registered_fault_rule_site_clean(self):
        assert findings_for("rule = FaultRule(site='tlb.shootdown.drop_ack')\n") == []

    def test_site_constant_outside_catalogue_flagged(self):
        src = "SITE_MY_NEW_THING = 'kernel.mynew.thing'\n"
        assert [f.rule for f in findings_for(src)] == ["FAULT001"]

    def test_catalogue_module_itself_clean(self):
        src = "SITE_NEW = 'kernel.new.site'\n"
        result = lint_source(
            src, path="src/repro/inject/plan.py", module="repro.inject.plan"
        )
        assert result.findings == []

    def test_fire_with_constant_name_clean(self):
        assert findings_for("plan.fire(SITE_SWAP_STALL, node=0)\n") == []
