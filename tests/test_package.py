"""Package-level guards."""
import cloudchange


def test_every_export_resolves():
    # A removed name left in __all__ breaks `from cloudchange import *`.
    missing = [name for name in cloudchange.__all__ if not hasattr(cloudchange, name)]
    assert missing == []
    assert len(set(cloudchange.__all__)) == len(cloudchange.__all__)
