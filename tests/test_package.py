"""The package's public surface."""

import cfgprint


def test_every_export_resolves_once():
    names = cfgprint.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cfgprint, name)]
    assert missing == []
