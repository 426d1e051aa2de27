"""Module / Parameter abstractions (a small subset of ``torch.nn``).

The compiled decode kernels bind weight arrays, norms' ``eps`` and configs
by address (:mod:`repro.utils.native`).  So replacing a Parameter's ``data``,
or any attribute of an existing Module (a submodule, a parameter, ``config``,
``eps``), with another object bumps the process-wide
:data:`~repro.utils.native.VERSION`, and every binding made before is made
again on its next use.  Reads stay plain attribute reads.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.utils.native import VERSION


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    def __init__(self, data, requires_grad: bool = True, name: Optional[str] = None):
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=requires_grad, name=name)

    def __setattr__(self, name: str, value) -> None:
        replaced = name == "data" and getattr(self, "data", value) is not value
        object.__setattr__(self, name, value)
        if replaced:
            VERSION.bump()


class Module:
    """Base class for neural-network modules.

    Provides parameter / submodule registration via attribute assignment,
    recursive parameter iteration, train/eval mode switching and state-dict
    (de)serialisation with plain NumPy arrays.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------ registration
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        self._replace(name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        self._parameters[name] = param
        self._replace(name, param)

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        self._replace(name, module)

    def _replace(self, name: str, value) -> None:
        """Set ``name``; a new object in place of one already set bumps the version."""
        replaced = self.__dict__.get(name, value) is not value
        object.__setattr__(self, name, value)
        if replaced:
            VERSION.bump()

    # ------------------------------------------------------------- iteration
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def modules(self) -> List["Module"]:
        return [m for _, m in self.named_modules()]

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the module tree."""
        return int(sum(p.size for p in self.parameters()))

    # ------------------------------------------------------------------ modes
    def train(self) -> "Module":
        object.__setattr__(self, "training", True)
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        object.__setattr__(self, "training", False)
        for module in self._modules.values():
            module.eval()
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------- state dict
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat name → array mapping of all parameters (copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameter values from a flat name → array mapping."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = value.copy()

    # -------------------------------------------------------------- interface
    def forward(self, *args: Any, **kwargs: Any) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of submodules registered with numeric names."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:  # a new list is in no binding: no bump
            self.add_module(str(len(self._items)), module)
            self._items.append(module)

    def append(self, module: Module) -> None:
        """Add ``module`` at the end; the list bindings read grew, so the version bumps."""
        self.add_module(str(len(self._items)), module)
        self._items.append(module)
        VERSION.bump()

    def __setitem__(self, index: int, module: Module) -> None:
        """Replace item ``index`` (bumps the version, as replacing an attribute does)."""
        index = range(len(self._items))[index]
        self._items[index] = module
        self.add_module(str(index), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]

    def forward(self, *args: Any, **kwargs: Any) -> Any:  # pragma: no cover - container only
        raise RuntimeError("ModuleList is a container and cannot be called")
