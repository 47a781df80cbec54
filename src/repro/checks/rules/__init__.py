"""The rule suite.  Each module is one :class:`~repro.checks.base.Checker`.

To add a rule: subclass ``Checker`` in a new module here, set ``rule``
and ``description``, implement ``visit_*``/``handle_*`` methods (and
``collect()`` if it needs cross-file facts), then append the class to
``ALL_CHECKERS``.  ``docs/api_tour.md`` §13 walks through an example.
"""

from repro.checks.rules.determinism import DeterminismChecker
from repro.checks.rules.dtype_hygiene import DtypeHygieneChecker
from repro.checks.rules.fork_safety import ForkSafetyChecker
from repro.checks.rules.frozen_mutation import FrozenMutationChecker
from repro.checks.rules.scheme_contract import SchemeContractChecker
from repro.checks.rules.shared_aliasing import SharedAliasingChecker
from repro.checks.rules.tag_safety import TagSafetyChecker
from repro.checks.rules.tracked_bytecode import tracked_bytecode_findings

#: AST rules, in reporting order.
ALL_CHECKERS = [
    DeterminismChecker,
    SchemeContractChecker,
    FrozenMutationChecker,
    ForkSafetyChecker,
    TagSafetyChecker,
    SharedAliasingChecker,
    DtypeHygieneChecker,
]

__all__ = ["ALL_CHECKERS", "tracked_bytecode_findings"]
