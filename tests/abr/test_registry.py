"""The algorithm registry."""

from __future__ import annotations

import pytest

from repro.abr import ABRAlgorithm, available, create, paper_algorithms, register
from repro.abr.registry import _FACTORIES, unregister


class TestRegistry:
    def test_available_lists_paper_algorithms(self):
        names = available()
        for expected in ("rb", "bb", "festive", "dashjs", "mpc", "robust-mpc",
                         "fastmpc", "mpc-opt"):
            assert expected in names

    def test_create_returns_fresh_instances(self):
        a = create("rb")
        b = create("rb")
        assert a is not b
        assert isinstance(a, ABRAlgorithm)

    def test_create_unknown(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            create("skynet")

    def test_paper_algorithms_line_up(self):
        algos = paper_algorithms()
        assert set(algos) == {"rb", "bb", "fastmpc", "robust-mpc", "dashjs",
                              "festive"}
        for algo in algos.values():
            assert isinstance(algo, ABRAlgorithm)

    def test_register_custom(self):
        class Custom(ABRAlgorithm):
            name = "custom-test"

            def select_bitrate(self, observation):
                return 0

        register("custom-test", Custom)
        try:
            assert isinstance(create("custom-test"), Custom)
            with pytest.raises(ValueError, match="already registered"):
                register("custom-test", Custom)
        finally:
            _FACTORIES.pop("custom-test", None)

    def test_register_empty_name(self):
        with pytest.raises(ValueError):
            register("", lambda: None)

    def test_zoo_extensions_registered(self):
        names = available()
        for expected in ("bola", "bba-1", "das-ip"):
            assert expected in names
            assert isinstance(create(expected), ABRAlgorithm)


class CustomA(ABRAlgorithm):
    name = "custom-plugin"

    def select_bitrate(self, observation):
        return 0


class CustomB(ABRAlgorithm):
    name = "custom-plugin"

    def select_bitrate(self, observation):
        return 1


class TestRegisterOverride:
    def test_override_replaces_custom_registration(self):
        register("custom-plugin", CustomA)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register("custom-plugin", CustomB)
            register("custom-plugin", CustomB, override=True)
            assert isinstance(create("custom-plugin"), CustomB)
        finally:
            _FACTORIES.pop("custom-plugin", None)

    def test_builtin_names_cannot_be_shadowed(self):
        for name in ("bola", "fastmpc", "bb"):
            with pytest.raises(ValueError, match="built in"):
                register(name, CustomA)
            with pytest.raises(ValueError, match="built in"):
                register(name, CustomA, override=True)

    def test_mdp_protected_even_when_numpyless(self):
        # 'mdp' is built in like the rest of the zoo: a plugin must never
        # be able to claim the name.
        with pytest.raises(ValueError, match="built in"):
            register("mdp", CustomA, override=True)


class TestUnregister:
    def test_unregister_removes_custom(self):
        register("custom-plugin", CustomA)
        unregister("custom-plugin")
        assert "custom-plugin" not in available()
        with pytest.raises(ValueError, match="not registered"):
            unregister("custom-plugin")

    def test_builtins_cannot_be_unregistered(self):
        for name in ("bola", "mdp"):
            with pytest.raises(ValueError, match="built in"):
                unregister(name)
        assert "bola" in available()

