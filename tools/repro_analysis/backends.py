"""RA3 — parity: complete backend dispatch, and every oracle has a test.

The library runs one production path; the loop implementations it
replaced live on as test oracles in ``tests/oracles/``, and parity tests
hold the library to them.  The one runtime switch left is the Gibbs
sampler's ``backend=`` (its per-factor sweep is the only sampler for
non-unary graphs).  The rule has two parts.

**Oracle coverage.**  Every public top-level function or class defined in
``tests/oracles/*.py`` must be used by at least one ``tests/**/test_*.py``
— reached as ``oracles.<name>`` or imported by name from the package.  An
oracle no test compares against checks nothing and drifts silently.

**Backend dispatch.**  The bug class is the half-dispatch: an
``if backend == "vectorized":`` whose other arm silently falls through,
so ``backend="reference"`` *runs the vectorized code* (or nothing) and
the differential suites stop comparing anything.

A comparison is *backend-ish* when one side names a backend (a name or
attribute ending in ``backend``, or a call to such a function) and the
other side is one of the literals
``"vectorized"`` / ``"reference"`` / ``"auto"``.

Checked per ``if``/``elif`` chain whose tests contain a backend-ish
comparison.  A chain is **well-formed** when any of:

* it ends in a final ``else`` (every value gets a branch);
* the equality literals across its tests cover both ``"vectorized"``
  and ``"reference"``;
* every backend-testing branch body ends in ``return`` / ``raise``
  (the fallthrough *is* the other backend's path).

Chains whose backend branches all end in ``raise`` are validation
guards — exempt, and not counted as dispatch.  Comparisons outside
``if`` tests (boolean assignments, ternaries) always bind both
outcomes, so they are fine — but they do mark the module as
*dispatching*, and every dispatching module must have a parity test: a
file under ``tests/`` that mentions the module's stem and contains both
backend literals.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePosixPath
from typing import List, Optional, Set, Tuple

from .core import Finding, Project, SourceFile, rule

RULE_ID = "RA3"

#: Where the test oracles live, relative to the repo root.
ORACLE_DIR = "tests/oracles/"

#: The backend vocabulary; "auto" resolves to one of the other two.
BACKEND_LITERALS = {"vectorized", "reference", "auto"}

#: Both of these must be claimed by some dispatch arm (or an else).
REQUIRED = {"vectorized", "reference"}


def _is_backend_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id.lower().endswith("backend")
    if isinstance(node, ast.Attribute):
        return node.attr.lower().endswith("backend")
    if isinstance(node, ast.Call):
        return _is_backend_expr(node.func)
    return False


def _literal_set(node: ast.AST) -> Optional[Set[str]]:
    """The backend literals in a constant (or tuple/set/list of them)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value} if node.value in BACKEND_LITERALS else None
    if isinstance(node, (ast.Tuple, ast.Set, ast.List)):
        values = set()
        for element in node.elts:
            if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
                return None
            values.add(element.value)
        return values if values & BACKEND_LITERALS else None
    return None


def _backend_comparison(node: ast.Compare) -> Optional[Set[str]]:
    """``None`` if not backend-ish, else the equality-claimed literals.

    ``backend == "vectorized"`` claims ``{"vectorized"}``;
    ``backend in ("reference", "auto")`` claims both; negative forms
    (``!=`` / ``not in``) are backend-ish but claim nothing — their
    *body* runs for every other value, so they can't prove coverage.
    """
    if len(node.ops) != 1:
        return None
    left, right, op = node.left, node.comparators[0], node.ops[0]
    if isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)):
        for expr, other in ((left, right), (right, left)):
            if _is_backend_expr(expr):
                literals = _literal_set(other)
                if literals is not None:
                    return literals if isinstance(op, (ast.Eq, ast.In)) else set()
    return None


def _test_backend_literals(test: ast.expr) -> Optional[Set[str]]:
    """Claimed literals if the test contains a backend comparison."""
    claimed: Optional[Set[str]] = None
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            literals = _backend_comparison(node)
            if literals is not None:
                claimed = (claimed or set()) | literals
    return claimed


def _chain(head: ast.If) -> Tuple[List[Tuple[ast.expr, List[ast.stmt]]], List[ast.stmt]]:
    """Flatten an if/elif chain into (test, body) arms plus the else body."""
    arms = []
    node = head
    while True:
        arms.append((node.test, node.body))
        if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
            node = node.orelse[0]
        else:
            return arms, node.orelse


def _terminates(body: List[ast.stmt]) -> bool:
    return bool(body) and isinstance(body[-1], (ast.Return, ast.Raise))


def _check_file(source: SourceFile) -> Tuple[List[Finding], bool]:
    """Findings for one module, plus whether it dispatches on backends."""
    findings: List[Finding] = []
    dispatches = False
    if source.tree is None:
        return findings, dispatches

    elif_nodes = {
        id(node.orelse[0])
        for node in ast.walk(source.tree)
        if isinstance(node, ast.If)
        and len(node.orelse) == 1
        and isinstance(node.orelse[0], ast.If)
    }
    tested: Set[int] = set()  # Compare nodes consumed by if-chain tests

    for node in ast.walk(source.tree):
        if not isinstance(node, ast.If) or id(node) in elif_nodes:
            continue
        arms, orelse = _chain(node)
        backend_arms = []  # (test, body, claimed literals)
        for test, body in arms:
            claimed = _test_backend_literals(test)
            for sub in ast.walk(test):
                if isinstance(sub, ast.Compare) and _backend_comparison(sub) is not None:
                    tested.add(id(sub))
            if claimed is not None:
                backend_arms.append((test, body, claimed))
        if not backend_arms:
            continue
        if all(_terminates(body) and isinstance(body[-1], ast.Raise) for _, body, _ in backend_arms):
            continue  # validation guard, not a dispatch
        dispatches = True
        claimed_union = set().union(*(claimed for _, _, claimed in backend_arms))
        well_formed = (
            bool(orelse)
            or REQUIRED <= claimed_union
            or all(_terminates(body) for _, body, _ in backend_arms)
        )
        if not well_formed:
            handled = ", ".join(sorted(claimed_union)) or "a negative match only"
            findings.append(
                Finding(
                    RULE_ID,
                    source.rel,
                    node.lineno,
                    f"backend dispatch handles {handled} and silently falls "
                    f"through for the other backend(s): add an else / a "
                    f"'reference' and 'vectorized' arm / make each backend "
                    f"branch return or raise",
                )
            )

    # Comparisons outside if-chain tests (boolean assignments, ternary
    # tests) bind both outcomes — fine, but they are still dispatch.
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.Compare)
            and id(node) not in tested
            and _backend_comparison(node) is not None
        ):
            dispatches = True
    return findings, dispatches


def _parity_candidates(project: Project) -> List[Tuple[str, str]]:
    """Test files exercising both backend literals, as (rel, haystack)."""
    candidates = []
    for rel, text in project.test_files.items():
        lowered = text.lower()
        if (
            ('"vectorized"' in lowered or "'vectorized'" in lowered)
            and ('"reference"' in lowered or "'reference'" in lowered)
        ):
            candidates.append((rel, rel.lower() + "\n" + lowered))
    return candidates


def _parse(text: str) -> Optional[ast.Module]:
    try:
        return ast.parse(text)
    except SyntaxError:
        return None


def _oracle_definitions(project: Project) -> List[Tuple[str, int, str]]:
    """(path, line, name) of each public top-level def/class under tests/oracles/."""
    definitions = []
    for rel, text in project.test_files.items():
        if not rel.startswith(ORACLE_DIR) or rel.endswith("/__init__.py"):
            continue
        tree = _parse(text)
        for node in tree.body if tree is not None else []:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    definitions.append((rel, node.lineno, node.name))
    return definitions


def _oracle_uses(project: Project) -> Set[str]:
    """Names the test modules reach through the ``oracles`` package."""
    used: Set[str] = set()
    for rel, text in project.test_files.items():
        name = PurePosixPath(rel).name
        if rel.startswith(ORACLE_DIR) or not name.startswith("test_"):
            continue
        tree = _parse(text)
        for node in ast.walk(tree) if tree is not None else []:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "oracles"
            ):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "oracles":
                    used.update(alias.name for alias in node.names)
    return used


@rule(RULE_ID, "parity: complete backend dispatch + a test for every oracle")
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    used = _oracle_uses(project)
    for rel, line, name in _oracle_definitions(project):
        if name not in used:
            findings.append(
                Finding(
                    RULE_ID,
                    rel,
                    line,
                    f"oracle {name!r} is not used by any tests/**/test_*.py: add a "
                    f"parity test that compares the library against it, or delete it",
                )
            )
    candidates = _parity_candidates(project)
    for source in project.src_files:
        file_findings, dispatches = _check_file(source)
        findings.extend(file_findings)
        if not dispatches:
            continue
        stem = PurePosixPath(source.rel).stem.lstrip("_")
        if not stem or stem == "init":
            stem = PurePosixPath(source.rel).parent.name
        pattern = re.compile(rf"(?<![a-z0-9]){re.escape(stem.lower())}(?![a-z0-9])")
        if not any(pattern.search(haystack) for _, haystack in candidates):
            findings.append(
                Finding(
                    RULE_ID,
                    source.rel,
                    1,
                    f"module dispatches on backend= but no parity test under "
                    f"tests/ mentions {stem!r} while exercising both "
                    f"\"vectorized\" and \"reference\"",
                )
            )
    findings.sort(key=lambda f: (f.path, f.line))
    return findings
