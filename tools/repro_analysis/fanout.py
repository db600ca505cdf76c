"""RA5 — one fan-out site: process pools live in ``experiments/parallel.py``.

Every process fan-out in the library (parallel sweeps, sharded E-steps,
chunked featurizer statistics) goes through
:class:`repro.experiments.parallel.WorkerPool`, which owns the worker
initializer, the shared-memory transport and the segment's release on
every exit path.  A second pool site would bring back its own copy of
that plumbing, so this rule flags constructing any of

* ``concurrent.futures.ProcessPoolExecutor``,
* ``multiprocessing.Pool`` (also ``multiprocessing.pool.Pool`` and
  ``get_context(...).Pool(...)`` called on the context directly),
* ``multiprocessing.shared_memory.SharedMemory``

anywhere in ``src/repro`` or ``examples`` except
``src/repro/experiments/parallel.py``.  Aliased imports are followed;
constructing them through a ``getattr`` string is out of reach of a
static check.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from .core import Finding, Project, SourceFile, rule

RULE_ID = "RA5"

#: The one module allowed to construct pools and shared segments.
ALLOWLIST = {"src/repro/experiments/parallel.py"}

#: Module -> constructors it exports that this rule reserves.
_CONSTRUCTORS: Dict[str, Set[str]] = {
    "concurrent.futures": {"ProcessPoolExecutor"},
    "concurrent.futures.process": {"ProcessPoolExecutor"},
    "multiprocessing": {"Pool"},
    "multiprocessing.pool": {"Pool"},
    "multiprocessing.shared_memory": {"SharedMemory"},
}

_MESSAGE = (
    "{name}(...) outside repro/experiments/parallel.py: fan work out with "
    "repro.experiments.parallel.WorkerPool, the one pool site"
)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def _check_file(source: SourceFile) -> List[Finding]:
    tree = source.tree
    if tree is None:
        return []
    modules: Dict[str, str] = {}  # local name -> module it is bound to
    constructors: Dict[str, str] = {}  # local name -> reserved constructor
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    modules[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    modules[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name in _CONSTRUCTORS.get(node.module, ()):
                    constructors[bound] = alias.name
                else:
                    modules[bound] = f"{node.module}.{alias.name}"

    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = constructors.get(func.id)
        elif isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Call) and _dotted(base.func).endswith("get_context"):
                # multiprocessing.get_context("spawn").Pool(...)
                if func.attr == "Pool":
                    name = "Pool"
            else:
                head, _, rest = _dotted(base).partition(".")
                module = modules.get(head)
                if module is not None:
                    module = f"{module}.{rest}" if rest else module
                    if func.attr in _CONSTRUCTORS.get(module, ()):
                        name = func.attr
        if name is not None:
            findings.append(Finding(RULE_ID, source.rel, node.lineno, _MESSAGE.format(name=name)))
    return findings


@rule(RULE_ID, "one fan-out site: process pools only in experiments/parallel.py")
def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for source in project.lintable_files:
        if source.rel in ALLOWLIST:
            continue
        findings.extend(_check_file(source))
    return findings
