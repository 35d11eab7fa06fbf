"""Paranoia mode is one switch: install/uninstall flip it, nothing is
rebound, and a simulator is checked iff it was built while the switch
was on."""

from repro.gpu import GPUConfig, GPUSimulator
from repro.obs import profile_hooks
from repro.verify import hooks, runtime

from tests.verify.conftest import instrumented_targets


def _simulator() -> GPUSimulator:
    return GPUSimulator(GPUConfig.paper_baseline().scaled(2))


class TestInstallUninstall:
    def test_install_rebinds_nothing(self):
        before = instrumented_targets()
        hooks.install()
        profile_hooks.install()
        try:
            assert hooks.installed() and runtime.paranoid is True
            for original, current in zip(before, instrumented_targets()):
                assert current is original
        finally:
            profile_hooks.uninstall()
            hooks.uninstall()
        for original, current in zip(before, instrumented_targets()):
            assert current is original

    def test_install_is_idempotent(self):
        hooks.install()
        hooks.install()
        assert hooks.installed()
        hooks.uninstall()  # one uninstall undoes any number of installs
        assert not hooks.installed()
        hooks.uninstall()
        assert not hooks.installed()

    def test_disabled_by_default(self):
        # The shipped engine carries no paranoia state: switch off, and a
        # simulator built now pushes its steps through the plain loop.
        assert not hooks.installed()
        assert runtime.paranoid is False
        assert not _simulator()._checked

    def test_a_kernel_is_checked_iff_built_under_paranoia(self):
        hooks.install()
        checked = _simulator()
        hooks.uninstall()
        assert checked._checked
        assert not _simulator()._checked


class TestParanoiaContext:
    def test_restores_prior_off_state(self):
        with hooks.paranoia(True):
            assert hooks.installed()
        assert not hooks.installed()

    def test_restores_prior_on_state(self):
        hooks.install()
        with hooks.paranoia(False):
            assert not hooks.installed()
        assert hooks.installed()
        hooks.uninstall()

    def test_nested_scopes(self):
        with hooks.paranoia(True):
            with hooks.paranoia(False):
                assert not hooks.installed()
            assert hooks.installed()
        assert not hooks.installed()
