"""The package's public names."""

from __future__ import annotations

import fairdetach


def test_every_public_name_resolves() -> None:
    missing = [name for name in fairdetach.__all__ if not hasattr(fairdetach, name)]
    assert missing == []
