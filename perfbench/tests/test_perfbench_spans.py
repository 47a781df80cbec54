"""The tracer's span accounting and binding restoration on a toy module."""

import sys
import types

import pytest

from spans import Layer, Tracer


@pytest.fixture
def toy(monkeypatch):
    module = types.ModuleType("perfbench_toy")
    exec(
        "import time\n"
        "def leaf():\n"
        "    time.sleep(0.01)\n"
        "def outer():\n"
        "    time.sleep(0.01)\n"
        "    leaf()\n"
        "    return 3\n"
        "def recurse(n):\n"
        "    return 0 if n == 0 else recurse(n - 1) + 1\n",
        module.__dict__,
    )
    user = types.ModuleType("perfbench_toy_user")
    user.leaf = module.leaf  # a ``from perfbench_toy import leaf`` binding
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    return module, user


def test_self_times_add_up_and_bindings_come_back(toy):
    module, user = toy
    originals = (module.leaf, module.outer, module.recurse, user.leaf)
    tracer = Tracer((
        Layer("toy.leaf", "perfbench_toy:leaf"),
        Layer("toy.outer", "perfbench_toy:outer", ("result",),
              lambda args, kwargs, value: {"result": value}),
        Layer("toy.recurse", "perfbench_toy:recurse"),
    ))
    with tracer.installed(), tracer.span("root"):
        assert user.leaf is not originals[3]
        module.outer()
        user.leaf()
        assert module.recurse(3) == 3
    assert (module.leaf, module.outer, module.recurse, user.leaf) == originals

    summary = tracer.summary()
    assert summary["toy.leaf.calls"] == 2
    assert summary["toy.outer.calls"] == 1 and summary["toy.outer.result"] == 3
    assert summary["toy.recurse.calls"] == 1  # re-entry counts once
    assert summary["toy.outer.self_s"] == pytest.approx(0.01, abs=0.008)
    assert summary["toy.leaf.s"] == pytest.approx(0.02, abs=0.01)
    assert summary["self_sum"] == pytest.approx(summary["wall"], rel=1e-9)
    assert 0.9 < summary["coverage_frac"] <= 1.0
