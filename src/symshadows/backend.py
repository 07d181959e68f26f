"""Compatibility shim for the benchmark harness.

The package has one kernel path, the NumPy module
:mod:`symshadows._kernels`, and nothing here reads the environment.
``perfbench/worker.py`` and ``perfbench/tracing.py`` still import the two
names below; the module can go once they no longer do.
"""

from __future__ import annotations

from . import _kernels

__all__ = ["active_backend", "get_kernels"]


def active_backend() -> str:
    """Return the name of the kernel implementation, always ``"numpy"``."""
    return "numpy"


def get_kernels():
    """Return the :mod:`symshadows._kernels` module."""
    return _kernels
