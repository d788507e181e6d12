"""Registry pairing vectorized kernels with their scalar references.

The project rule — stated in the ROADMAP and enforced by the
``parity/*`` lint family — is that every vectorized fast path keeps a
scalar twin and a parity test.  This module is the machine-readable
half of that rule: a vectorized kernel declares its twin at definition
time::

    @fast_path(scalar="repro.cache.direct.DirectMappedCache")
    def direct_mapped_miss_flags(lines, config): ...

and the declaration lands in a process-wide registry that the
conformance analyzer cross-references statically (the decorated
module is parsed, never imported) and that runtime harnesses may use
to drive a fast path and its reference side by side.

The module sits at the bottom of the layering table (alongside
``repro.obs``) so any kernel module can import it without creating an
upward edge.  The registry is mutated only at import time, by the
decorator itself — the same sanctioned pattern as the lint-rule
registry in :mod:`repro.analysis.linter`.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.errors import ConfigError

_F = TypeVar("_F", bound=Callable)

#: Qualified fast-path name -> dotted path of its scalar reference.
#: Populated at import time by :func:`fast_path`; read through
#: :func:`fast_path_registry`.
_REGISTRY: dict[str, str] = {}

#: Attribute set on decorated callables, for introspection.
SCALAR_ATTR = "__fast_path_scalar__"


def fast_path(*, scalar: str) -> Callable[[_F], _F]:
    """Mark a callable as a vectorized kernel with a scalar twin.

    *scalar* is the dotted path of the bit-exact scalar reference
    (a function or class), e.g. ``"repro.core.merge
    .offset_costs_reference"``.  The pair is recorded in the module
    registry and on the callable itself (``__fast_path_scalar__``);
    the ``parity/*`` conformance rules statically verify that the
    reference resolves and that a test module exercises the pair.
    """
    if not isinstance(scalar, str) or not scalar or "." not in scalar:
        raise ConfigError(
            "fast_path requires scalar= as a dotted path naming the "
            f"scalar reference, got {scalar!r}"
        )

    def decorate(func: _F) -> _F:
        """Record the pair and annotate the kernel."""
        name = f"{func.__module__}.{func.__qualname__}"
        existing = _REGISTRY.get(name)
        if existing is not None and existing != scalar:
            raise ConfigError(
                f"fast path {name} already registered with scalar "
                f"{existing!r}; cannot re-register with {scalar!r}"
            )
        _REGISTRY[name] = scalar
        setattr(func, SCALAR_ATTR, scalar)
        return func

    return decorate


def fast_path_registry() -> dict[str, str]:
    """A copy of the registry: fast-path name -> scalar dotted path."""
    return dict(_REGISTRY)


def scalar_twin_of(func: Callable) -> str | None:
    """The declared scalar reference of *func*, or ``None``."""
    return getattr(func, SCALAR_ATTR, None)


__all__ = ["fast_path", "fast_path_registry", "scalar_twin_of"]
