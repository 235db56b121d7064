"""Textual reference → Python object resolution.

The campaign CLI, the campaign service and its remote workers all name
models *textually* — a spec file on disk, optionally qualified with an
attribute (``model.py::Top``) or a dotted module path
(``package.module:attr``) — and must turn that name into the same
Python object in every process that needs it.  Centralizing the
resolution here guarantees the three consumers agree on module
registration semantics: a file loaded through
:func:`load_module_from_path` is registered in ``sys.modules`` *before*
execution, so the callables it defines pickle by reference into
``fork``-ed worker processes and re-resolve by import in ``spawn``-ed
or remote ones.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path
from types import ModuleType
from typing import Optional, Tuple


class ResolutionError(Exception):
    """A textual reference could not be resolved to an object."""


def module_name_for_path(path: Path) -> str:
    """Stable ``sys.modules`` key for a file loaded by path."""
    return f"repro_spec_{path.stem}"


def load_module_from_path(path, module_name: Optional[str] = None
                          ) -> ModuleType:
    """Import the Python file at ``path`` and return its module.

    The module is registered in ``sys.modules`` under a stable name
    derived from the file stem (override with ``module_name``), and a
    previously loaded module under that name for the *same* file is
    returned as-is — repeated resolution of one spec inside a worker
    process costs one dict lookup, not a re-import.
    """
    path = Path(path)
    if not path.exists():
        raise ResolutionError(f"file not found: {path}")
    name = module_name or module_name_for_path(path)
    cached = sys.modules.get(name)
    if cached is not None and \
            getattr(cached, "__file__", None) == str(path):
        return cached
    spec = importlib.util.spec_from_file_location(name, str(path))
    if spec is None or spec.loader is None:
        raise ResolutionError(f"cannot import file: {path}")
    module = importlib.util.module_from_spec(spec)
    # Register before exec so module-level callables pickle by
    # reference into fork()ed workers.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        sys.modules.pop(name, None)
        raise ResolutionError(f"error importing {path}: "
                              f"{type(exc).__name__}: {exc}") from exc
    return module


def split_reference(ref: str) -> Tuple[str, Optional[str]]:
    """Split ``"target::attr"`` / ``"module:attr"`` into its parts.

    ``::`` takes precedence (file references may contain drive-letter
    colons on some platforms); a bare reference returns ``(ref, None)``.
    """
    if "::" in ref:
        target, _, attr = ref.partition("::")
        return target, (attr or None)
    if ":" in ref and "/" not in ref.split(":", 1)[0] \
            and not ref.split(":", 1)[0].endswith(".py"):
        target, _, attr = ref.partition(":")
        return target, (attr or None)
    return ref, None


def resolve_reference(ref: str):
    """Resolve ``"path.py::attr"`` or ``"pkg.module:attr"`` to an object.

    Without an attribute part the module object itself is returned.
    """
    target, attr = split_reference(ref)
    if target.endswith(".py") or Path(target).exists():
        module = load_module_from_path(Path(target))
    else:
        try:
            module = importlib.import_module(target)
        except ImportError as exc:
            raise ResolutionError(
                f"cannot resolve {ref!r}: {exc}") from exc
    if attr is None:
        return module
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ResolutionError(
            f"{target!r} has no attribute {attr!r}") from None
