"""Print each top-level function and class of src/advens that nothing uses.

A name counts as used when some Python file under src/, bench/, demos/ or
tools/ refers to it outside its own definition: as a bare name, as an
attribute (``nn.forward``), in an import, or as a string constant that is
exactly the name (bench/tracer.py names its targets that way). The tests
do not count, so a name that only tests call is reported. One line per
unused name, ``<module>.<name>  <file>:<line>``; nothing when every name
is used:

    python tools/unused_names.py

The scan is by name, not by binding: a name that another module also
uses for something else (a method or a local of the same name) counts as
used.
"""
import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "advens")
SCANNED = ("src", "bench", "demos", "tools")


def _python_files():
    for top in SCANNED:
        for folder, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            yield from (os.path.join(folder, f) for f in sorted(files) if f.endswith(".py"))


def _uses(tree):
    """(name, line) of every reference in a module's tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def _parse(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def main():
    trees = {path: _parse(path) for path in _python_files()}
    uses = {}  # name -> [(path, line)]
    for path, tree in trees.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    for path, tree in trees.items():
        if os.path.dirname(path) != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in inside for p, line in uses.get(node.name, ())):
                module = os.path.splitext(os.path.basename(path))[0]
                print(f"{module}.{node.name}  {os.path.relpath(path, ROOT)}:{node.lineno}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
