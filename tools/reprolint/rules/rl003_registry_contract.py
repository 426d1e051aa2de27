"""RL003 — every ``@register_method`` registration honors the registry contract.

The sparsity registry is the extension point of the whole reproduction:
`SparseSession`, the serving scheduler and fleet, benchmarks, and the CLI
all construct methods purely through it.  A registration that drifts from
the contract fails at *use* time, deep inside an experiment.  This rule
moves those failures to lint time:

* ``doc=`` must be present and a non-empty string literal — the registry's
  ``describe()`` output and `docs/API.md` tables are generated from it.
* The registered class must define (or inherit from a class defined in the
  scanned tree) ``reset()`` and ``compute_masks`` with the exact signature
  ``(self, mlp, layer_index, x)``.
* ``__init__`` config parameters beyond ``target_density`` must be
  keyword-only, so registry-driven construction
  (``registry.create(name, target_density=..., **config)``) can never bind
  a config value positionally by accident.

Factory-function registrations (``@register_method("x", doc=...)`` on a
``def``) are checked for ``doc=`` and keyword-only parameters past the
first; the class contract is checked on whatever class the factory's body
returns when that class is locally resolvable.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from tools.reprolint.core import Finding, Project, Rule, SourceFile

#: The required positional signature of ``compute_masks`` (after ``self``).
COMPUTE_MASKS_PARAMS = ("mlp", "layer_index", "x")


class _ClassIndex:
    """Classes defined anywhere in the scanned sparsity modules, by bare name."""

    def __init__(self) -> None:
        self.classes: Dict[str, Tuple[SourceFile, ast.ClassDef]] = {}

    def add_module(self, source: SourceFile) -> None:
        if source.tree is None:
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, (source, node))

    def resolve(self, name: str) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
        return self.classes.get(name)

    def method(self, cls: ast.ClassDef, name: str) -> Optional[ast.FunctionDef]:
        """Find ``name`` on ``cls`` or (transitively) on locally-known bases."""
        seen = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            for node in current.body:
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    return node
            for base in current.bases:
                if isinstance(base, ast.Name):
                    resolved = self.resolve(base.id)
                    if resolved is not None:
                        stack.append(resolved[1])
        return None


def _register_calls(tree: ast.Module) -> List[Tuple[ast.Call, Optional[ast.AST]]]:
    """(register_method call, decorated def/class or call-style target) pairs."""
    sites: List[Tuple[ast.Call, Optional[ast.AST]]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                call = _as_register_call(decorator)
                if call is not None:
                    sites.append((call, node))
        elif isinstance(node, ast.Call):
            # Call style: register_method("dense", doc=...)(DenseBaseline)
            inner = _as_register_call(node.func)
            if inner is not None and node.args:
                sites.append((inner, node.args[0]))
    return sites


def _as_register_call(node: ast.AST) -> Optional[ast.Call]:
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "register_method":
            return node
    return None


def _doc_kwarg(call: ast.Call) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == "doc":
            return keyword.value
    return None


class RegistryContractRule(Rule):
    id = "RL003"
    name = "registry-contract"
    description = (
        "every @register_method registration has non-empty doc=, defines reset() and "
        "compute_masks(self, mlp, layer_index, x), and keeps config params keyword-only"
    )
    scope = ("src/repro/sparsity/*.py",)

    def run(self, project: Project) -> Iterable[Finding]:
        index = _ClassIndex()
        sources = project.sources_matching(self.scope)
        for source in sources:
            index.add_module(source)

        findings: List[Finding] = []
        for source in sources:
            if source.tree is None:
                continue
            for call, target in _register_calls(source.tree):
                findings.extend(self._check_site(source, call, target, index))
        return findings

    # ------------------------------------------------------------------
    def _check_site(
        self,
        source: SourceFile,
        call: ast.Call,
        target: Optional[ast.AST],
        index: _ClassIndex,
    ) -> List[Finding]:
        findings: List[Finding] = []
        method_name = self._registered_name(call)
        label = f"registration {method_name!r}" if method_name else "registration"

        doc = _doc_kwarg(call)
        if doc is None:
            findings.append(
                Finding(
                    self.id, source.rel, call.lineno,
                    f"{label} has no doc= keyword",
                    "pass doc='<one-line description>' to register_method",
                )
            )
        elif not (isinstance(doc, ast.Constant) and isinstance(doc.value, str) and doc.value.strip()):
            findings.append(
                Finding(
                    self.id, source.rel, call.lineno,
                    f"{label} has an empty or non-literal doc=",
                    "doc= must be a non-empty string literal",
                )
            )

        cls = self._target_class(target, index)
        if cls is not None:
            cls_source, cls_node = cls
            findings.extend(self._check_class(cls_source, cls_node, label, index))
        if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
            findings.extend(self._check_factory_params(source, target, label))
        return findings

    @staticmethod
    def _registered_name(call: ast.Call) -> Optional[str]:
        if call.args and isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str):
            return call.args[0].value
        for keyword in call.keywords:
            if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
                value = keyword.value.value
                return value if isinstance(value, str) else None
        return None

    def _target_class(
        self, target: Optional[ast.AST], index: _ClassIndex
    ) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
        if isinstance(target, ast.ClassDef):
            return index.resolve(target.name)
        if isinstance(target, ast.Name):  # call style: register_method(...)(Cls)
            return index.resolve(target.id)
        if isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Factory: check the class its return statements construct.
            for node in ast.walk(target):
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
                    func = node.value.func
                    if isinstance(func, ast.Name):
                        resolved = index.resolve(func.id)
                        if resolved is not None:
                            return resolved
        return None

    def _check_class(
        self,
        source: SourceFile,
        cls: ast.ClassDef,
        label: str,
        index: _ClassIndex,
    ) -> List[Finding]:
        findings: List[Finding] = []
        if index.method(cls, "reset") is None:
            findings.append(
                Finding(
                    self.id, source.rel, cls.lineno,
                    f"{label}: class '{cls.name}' defines no reset() (own or inherited)",
                    "implement reset() so sessions can reuse method instances",
                )
            )
        compute = index.method(cls, "compute_masks")
        if compute is None:
            findings.append(
                Finding(
                    self.id, source.rel, cls.lineno,
                    f"{label}: class '{cls.name}' defines no compute_masks()",
                    "implement compute_masks(self, mlp, layer_index, x) -> MLPMasks",
                )
            )
        else:
            params = tuple(arg.arg for arg in compute.args.args[1:])
            if params != COMPUTE_MASKS_PARAMS:
                findings.append(
                    Finding(
                        self.id, source.rel, compute.lineno,
                        f"{label}: compute_masks signature is (self, {', '.join(params)}); "
                        f"contract requires (self, {', '.join(COMPUTE_MASKS_PARAMS)})",
                        "rename the parameters — callers pass them by keyword",
                    )
                )
        init = index.method(cls, "__init__")
        if init is not None:
            findings.extend(self._check_init_params(source, init, cls.name, label))
        return findings

    def _check_init_params(
        self, source: SourceFile, init: ast.FunctionDef, cls_name: str, label: str
    ) -> List[Finding]:
        # Allowed positional-or-keyword params: self + target_density.
        extra = [arg.arg for arg in init.args.args[1:] if arg.arg != "target_density"]
        if not extra:
            return []
        return [
            Finding(
                self.id, source.rel, init.lineno,
                f"{label}: '{cls_name}.__init__' takes config params {extra} "
                "positionally; config beyond target_density must be keyword-only",
                "insert '*' after target_density in the signature",
            )
        ]

    def _check_factory_params(
        self, source: SourceFile, func: ast.AST, label: str
    ) -> List[Finding]:
        arguments = func.args  # type: ignore[attr-defined]
        extra = [arg.arg for arg in arguments.args if arg.arg != "target_density"]
        if not extra:
            return []
        return [
            Finding(
                self.id, source.rel, func.lineno,  # type: ignore[attr-defined]
                f"{label}: factory takes config params {extra} positionally; "
                "config beyond target_density must be keyword-only",
                "insert '*' after target_density in the signature",
            )
        ]
