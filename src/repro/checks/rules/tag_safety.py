"""Rule ``tag-safety``: schemes must tag every key they build.

Multi-tenant sharing packs an address-space tag into the high bits of
every TLB key (``repro.hw.tlb.TAG_SHIFT``), and any scheme may run in a
tagged fleet.  So every vectorised ``access_block`` must stay correct
when those tags are nonzero — which holds only if every
key-constructing path either goes through
:func:`repro.sim.lru.simulate_block` (which packs the tag itself) or
ORs a tag base in explicitly (``tag_base = arr.tag << TAG_SHIFT``,
``key | self.l2._tag_base``).  The rule uses the dataflow call graph to
walk every helper reachable from ``access_block`` across files: the
``access_block`` call tree of every scheme that overrides it must show
tag evidence somewhere — a ``simulate_block`` call, or a mention of
``TAG_SHIFT`` / ``tag_base`` / ``_tag_base``.

Retagging and sharing every structure needs no rule: ``set_asid`` and
the fleet's shared hierarchy iterate the scheme's one ``hardware``
declaration, and a runtime test checks that the declaration names
every structure a scheme holds.
"""

from __future__ import annotations

import ast

from repro.checks.base import Checker
from repro.checks.dataflow import ProjectDataflow, get_dataflow

_ROOT_CLASS = "TranslationScheme"

#: Any one of these in the ``access_block`` call tree counts as tag
#: evidence: the OR-idiom names, or the batched resolver that packs
#: tags itself.
_TAG_EVIDENCE = {"TAG_SHIFT", "tag_base", "_tag_base", "simulate_block"}


class TagSafetyChecker(Checker):
    rule = "tag-safety"
    description = "scheme whose block path builds keys without a tag"

    def check(self) -> None:
        if not self.ctx.scoped_path.startswith("schemes/"):
            return
        flow = get_dataflow(self.project)
        module = flow.modules.get(self.ctx.scoped_path)
        if module is None:
            return
        for cls in module.classes.values():
            if cls.name == _ROOT_CLASS:
                continue
            if not flow.chain_reaches(cls.name, _ROOT_CLASS):
                continue
            self._check_key_idiom(flow, cls)

    def _check_key_idiom(self, flow: ProjectDataflow, cls) -> None:
        own = cls.methods.get("access_block")
        if own is None:  # inherits the scalar loop: safe by construction
            return
        tree = flow.method_tree(cls.name, "access_block")
        mentions: set[str] = set()
        for fn in tree:
            mentions |= fn.mentions
            mentions.update(c.split(".")[-1] for c in fn.calls)
        if mentions & _TAG_EVIDENCE:
            return
        marker = ast.Pass()
        marker.lineno = own.lineno
        marker.col_offset = 0
        self.report(
            marker,
            f"'{cls.name}.access_block' never packs an address-space "
            "tag in its call tree: no simulate_block call and no "
            "TAG_SHIFT/tag-base OR idiom, so tagged tenants would alias",
            hint="route key construction through simulate_block, or OR "
                 "in `arr.tag << TAG_SHIFT` (see repro.hw.tlb) before "
                 "touching raw buckets",
        )
