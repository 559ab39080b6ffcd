"""The layout of the test suite, read from source with ast.

Every oracle lives in tests/oracles.py (the names in its __all__), and
the inputs that several test modules draw live in tests/strategies.py, so
no test module imports another test module or conftest.  A test that
reaches an oracle, directly or through the helpers and methods of its own
module, is a differential test: it carries the `deep` mark, so that the
CI step `HYPOTHESIS_PROFILE=deep pytest -m deep` reruns it, and if it is
a hypothesis test it takes its example count from the profile or from
examples(...), since a fixed @settings(max_examples=...) would override
the deep profile.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ORACLES = "oracles"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _oracle_names():
    """The names in tests/oracles.py's __all__, each checked to be defined there."""
    tree = _parse(TESTS / f"{ORACLES}.py")
    listed = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    )
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(listed) <= defined, sorted(set(listed) - defined)
    return set(listed)


ORACLE_NAMES = _oracle_names()
MODULES = {path.name: _parse(path) for path in sorted(TESTS.glob("test_*.py"))}


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def _is_deep_mark(expr):
    """Whether the expression holds pytest.mark.deep (or mark.deep)."""
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == "deep"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "mark"
        for node in ast.walk(expr)
    )


def _marked_deep(body, decorators=()):
    """Whether a decorator, or a `pytestmark = ...` in the given body, is deep."""
    return any(_is_deep_mark(d) for d in decorators) or any(
        isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "pytestmark" for t in node.targets)
        and _is_deep_mark(node.value)
        for node in body
    )


def _called(decorators, name):
    """The decorator calls to `name` (or to `anything.name`)."""
    for d in decorators:
        for node in ast.walk(d):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    yield node


class _Module:
    """One test module's symbols, what each mentions, and its tests."""

    def __init__(self, tree):
        # local name -> oracle, for `from oracles import ...` and for the
        # `oracles.name` attributes of `import oracles`
        self.oracle_of = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == ORACLES:
                for a in node.names:
                    self.oracle_of[a.asname or a.name] = a.name
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == ORACLES:
                        local = a.asname or a.name
                        self.oracle_of.update({f"{local}.{o}": o for o in ORACLE_NAMES})
        self.mentions = {}  # symbol -> the names and symbols it mentions
        self.tests = []  # (node id, symbol, deep, decorators)
        module_deep = _marked_deep(tree.body)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.mentions[node.name] = self._mentioned(node)
                if node.name.startswith("test"):
                    deep = module_deep or _marked_deep((), node.decorator_list)
                    self.tests.append((node.name, node.name, deep, node.decorator_list))
            elif isinstance(node, ast.ClassDef):
                self._add_class(node, module_deep)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.mentions[name.id] = self._mentioned(node)

    def _add_class(self, cls, module_deep):
        methods = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
        class_deep = module_deep or _marked_deep(cls.body, cls.decorator_list)
        for node in cls.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            symbol = f"{cls.name}.{node.name}"
            self.mentions[symbol] = self._mentioned(node, cls.name, methods)
            if node.name.startswith("test") and cls.name.startswith("Test"):
                deep = class_deep or _marked_deep((), node.decorator_list)
                self.tests.append((f"{cls.name}::{node.name}", symbol, deep, node.decorator_list))

    def _mentioned(self, node, cls=None, methods=()):
        """Every name the node mentions, decorators and parameters (fixtures)
        included, and `name.attribute` for an attribute of a name; an
        attribute that names a method of the node's class stands for that
        method."""
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.arg):
                out.add(n.arg)
            elif isinstance(n, ast.Attribute):
                if n.attr in methods:
                    out.add(f"{cls}.{n.attr}")
                if isinstance(n.value, ast.Name):
                    out.add(f"{n.value.id}.{n.attr}")
        return out

    def oracles_reached(self, symbol):
        """The oracles the symbol mentions, directly or through the
        module's own symbols."""
        seen, todo = set(), [symbol]
        while todo:
            s = todo.pop()
            if s not in seen:
                seen.add(s)
                todo.extend(self.mentions.get(s, ()))
        return {self.oracle_of[name] for name in seen if self.oracle_of.get(name) in ORACLE_NAMES}

    def oracle_tests(self):
        """(node id, oracles, deep, decorators) of each test that reaches an oracle."""
        for test_id, symbol, deep, decorators in self.tests:
            reached = self.oracles_reached(symbol)
            if reached:
                yield test_id, reached, deep, decorators


SCANNED = {name: _Module(tree) for name, tree in MODULES.items()}
ORACLE_TESTS = [
    (f"{name}::{test_id}", reached, deep, decorators)
    for name, module in SCANNED.items()
    for test_id, reached, deep, decorators in module.oracle_tests()
]


def test_no_test_module_imports_another_or_conftest():
    bad = [
        f"{name} imports {module}"
        for name, tree in MODULES.items()
        for module in _imported_modules(tree)
        if module == "conftest" or module.split(".")[0].startswith("test_")
    ]
    assert bad == []


def test_each_oracle_is_defined_only_in_the_oracle_module():
    bad = [
        f"{name} defines {node.name}"
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ORACLE_NAMES
    ]
    assert bad == []


def test_every_oracle_is_reached_by_a_test():
    reached = set().union(*(oracles for _, oracles, _, _ in ORACLE_TESTS))
    assert ORACLE_NAMES - reached == set()


def test_tests_that_reach_an_oracle_are_deep():
    assert [test_id for test_id, _, deep, _ in ORACLE_TESTS if not deep] == []


def test_deep_hypothesis_tests_take_their_count_from_the_profile():
    fixed = [
        test_id
        for test_id, _, _, decorators in ORACLE_TESTS
        if any(_called(decorators, "given"))
        and any(
            keyword.arg == "max_examples"
            for call in _called(decorators, "settings")
            for keyword in call.keywords
        )
    ]
    assert fixed == []
