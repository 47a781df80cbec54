"""Rule ``tag-safety``: schemes must tag every key they build.

Multi-tenant sharing packs an address-space tag into the high bits of
every TLB key (``repro.hw.tlb.TAG_SHIFT``), and any scheme may run in a
tagged fleet.  So every vectorised ``access_block`` must stay correct
when those tags are nonzero — which holds only if every
key-constructing path either goes through
:func:`repro.sim.lru.simulate_block` (which packs the tag itself) or
ORs a tag base in explicitly (``tag_base = arr.tag << TAG_SHIFT``,
``key | self.l2._tag_base``).  The rule uses the dataflow call graph to
walk every helper reachable from ``access_block`` across files:

1. **Key idiom.**  The ``access_block`` call tree of every scheme that
   overrides it must show tag evidence somewhere: a ``simulate_block``
   call, or a mention of ``TAG_SHIFT`` / ``tag_base`` / ``_tag_base``.
2. **``set_asid`` cascade.**  Every TLB-like structure the scheme
   constructs (an ``__init__``-tree bind whose constructor class
   defines ``set_tag``) must be reachable from the scheme's
   ``set_asid`` call tree — otherwise switch-in retags some arrays and
   leaves others serving the previous tenant's translations.
3. **``bind_shared`` cascade.**  Where the project has a
   ``bind_shared`` helper (the fleet's shared-hardware rebinder in
   ``sim/tenants.py``), the same owned structures must appear in it,
   or shared-hardware tenancy silently skips them.
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


def _in_schemes(scoped_path: str) -> bool:
    return scoped_path.startswith("schemes/")


class TagSafetyChecker(Checker):
    rule = "tag-safety"
    description = (
        "scheme whose block path or ASID cascade misses a TLB "
        "structure"
    )

    # -- collect: nested bind_shared helpers anywhere in the project ----

    def _shared(self) -> dict:
        return self.project.shared.setdefault(
            self.rule, {"bind_shared": [], "reported": set()})

    def collect(self) -> None:
        # bind_shared is a *nested* function (it closes over the shard's
        # shared structures), so the module-level dataflow scan misses
        # it; collect its attribute/string mentions directly.
        for node in ast.walk(self.ctx.tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "bind_shared"):
                mentions: set[str] = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        mentions.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        mentions.add(sub.attr)
                    elif (isinstance(sub, ast.Constant)
                          and isinstance(sub.value, str)):
                        mentions.add(sub.value)
                self._shared()["bind_shared"].append(
                    (self.ctx.relpath, mentions))

    # -- check -----------------------------------------------------------

    def check(self) -> None:
        if not _in_schemes(self.ctx.scoped_path):
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
            self._check_cascades(flow, cls)

    def _node(self, lineno: int) -> ast.AST:
        marker = ast.Pass()
        marker.lineno = lineno
        marker.col_offset = 0
        return marker

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
        self.report(
            self._node(own.lineno),
            f"'{cls.name}.access_block' never packs an address-space "
            "tag in its call tree: no simulate_block call and no "
            "TAG_SHIFT/tag-base OR idiom, so tagged tenants would alias",
            hint="route key construction through simulate_block, or OR "
                 "in `arr.tag << TAG_SHIFT` (see repro.hw.tlb) before "
                 "touching raw buckets",
        )

    def _owned_tlbs(
        self, flow: ProjectDataflow, class_name: str
    ) -> dict[str, tuple[str, int, str]]:
        """attr -> (relpath, lineno, ctor) for TLB-like __init__ binds."""
        owned: dict[str, tuple[str, int, str]] = {}
        for fn in flow.method_tree(class_name, "__init__"):
            for write in fn.attr_writes:
                if write.kind != "bind" or write.value_call is None:
                    continue
                ctor = write.value_call.split(".")[-1]
                target = flow.classes.get(ctor)
                if target is None:
                    continue
                if flow.resolve_method(ctor, "set_tag") is not None:
                    owned.setdefault(
                        write.attr, (fn.relpath, write.lineno, ctor))
        return owned

    def _check_cascades(self, flow: ProjectDataflow, cls) -> None:
        owned = self._owned_tlbs(flow, cls.name)
        if not owned:
            return
        asid_tree = flow.method_tree(cls.name, "set_asid")
        asid_mentions: set[str] = set()
        for fn in asid_tree:
            asid_mentions |= fn.mentions
        binders = self._shared()["bind_shared"]
        reported = self._shared()["reported"]
        for attr, (relpath, lineno, ctor) in sorted(owned.items()):
            key = (cls.name, attr)
            if key in reported:
                continue
            if asid_tree and attr not in asid_mentions:
                reported.add(key)
                self.report(
                    self._node(cls.lineno),
                    f"'{cls.name}' owns TLB structure '{attr}' "
                    f"({ctor}, bound at {relpath}:{lineno}) but its "
                    "set_asid cascade never retags it: after a tenant "
                    "switch it keeps serving the previous address "
                    "space",
                    hint="call self.<attr>.set_tag(asid) in a set_asid "
                         "override (and super().set_asid(asid) for the "
                         "base structures)",
                )
                continue
            if binders and all(attr not in mentions
                               for _, mentions in binders):
                reported.add(key)
                self.report(
                    self._node(cls.lineno),
                    f"'{cls.name}' owns TLB structure '{attr}' "
                    f"({ctor}) but no bind_shared helper rebinds it: "
                    "shared-hardware tenancy would leave each tenant "
                    "a private copy while the rest of the hierarchy "
                    "is shared",
                    hint="rebind it in the fleet's bind_shared helper "
                         "alongside l1/l2/pwc",
                )
        return
