"""The mutation sampler's two promises: a mutant flips exactly one operator,
and a mutant's key survives the deletion of an unrelated function."""

from __future__ import annotations

import ast

from mutate import FLIPS, mutant, sites

SOURCE = '''
def keep(a, b):
    total = a + b - 1
    return a < b and total == b and not a <= 0 < b


def gone(x):
    x -= 1
    return x > 0 and x + 1 != 2


class Box:
    def grow(self, y):
        y += 2
        return [z for z in y if z >= self.low - 1]


def last(a):
    return a - 1 if a != 0 else a + 1
'''


def _ops(source: str) -> list:
    """Every operator node of the tree, in walk order."""
    return [
        type(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.cmpop, ast.operator))
    ]


def test_each_mutant_flips_exactly_one_operator() -> None:
    keys = sites(SOURCE)
    assert len(keys) == 14  # the chained comparison is no site
    before = _ops(SOURCE)
    for key in keys:
        after = _ops(mutant(SOURCE, key))
        changed = [(a, b) for a, b in zip(before, after) if a is not b]
        assert len(after) == len(before)
        assert len(changed) == 1 and FLIPS[changed[0][0]] is changed[0][1], key


def _drop_gone(source: str) -> str:
    tree = ast.parse(source)
    tree.body = [node for node in tree.body if getattr(node, "name", None) != "gone"]
    return ast.unparse(tree)


def test_keys_hold_when_an_unrelated_function_is_deleted() -> None:
    without = _drop_gone(SOURCE)
    assert sites(without) == [key for key in sites(SOURCE) if key[0] != "gone"]
    assert ("Box.grow", "cmp:GtE", 0) in sites(without)
    for key in sites(without):
        assert mutant(without, key) == _drop_gone(mutant(SOURCE, key)), key
