"""Pinned output digests: any byte drift in the generators or the engine fails here.

The digests are sha256 over the canonical `document.dumps` output.  A change
that alters the output on purpose must replace them and say why the new
bytes are still correct (the A1-A7 / B1-B6 checkers gate that, not this file).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from fairdetach import document
from fairdetach.engine import detach_all
from fairdetach.fuzzgen import random_detach_instance
from fairdetach.hamilton import GddParams, ham_decompose_gdd, ham_decompose_lambda_kn


def _sha(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize(
    "n, lam, digest",
    [
        (9, 1, "9754e4049113afece01340dafdc25807d9f06d05ecbf7aff4544b9fc6b048756"),
        (7, 2, "9ac915ea3e3865dc5e6bea4853bd44dbd2ae49ada87d0c1564b6fdc187b71fa9"),
        (21, 1, "e82a4a537c0dd4d0305e4e4a785e1e67e8f1d1f812cce57aa662a2b7909d5389"),
    ],
)
def test_lambda_kn_digest(n: int, lam: int, digest: str) -> None:
    dec = ham_decompose_lambda_kn(n, lam)
    assert _sha([document.dumps(document.decomposition_to_doc(dec))]) == digest


def test_gdd_digest() -> None:
    dec = ham_decompose_gdd(GddParams((4, 4, 4), 2, 3))
    assert (
        _sha([document.dumps(document.decomposition_to_doc(dec))])
        == "726b2c6152761467974d5a0931d1d35a748a806422cce864f25ecf4adacf5e83"
    )


def test_random_detach_batch_digest() -> None:
    docs = []
    for seed in range(50):
        cg, eta = random_detach_instance(random.Random(seed))
        g, psi, _ = detach_all(cg, eta)
        docs.append(document.dumps(document.graph_to_doc(g, psi=psi)))
    assert (
        _sha(docs) == "2b1129a7f80efd566d9daa6ebc4a9ec978fc728e3d0a9a30b857019e84277bd6"
    )
