"""Unified estimator protocol and parameter-introspection mixin.

Every classifier in this package — :class:`~repro.core.rpm.RPMClassifier`
and all baselines — follows one contract:

* construction takes configuration as **keyword arguments only** and
  stores each argument verbatim under the same attribute name;
* ``fit(X, y)`` learns state into trailing-underscore attributes and
  returns ``self``;
* ``predict(X)`` labels every row of a 2-D series matrix.

:class:`BaseEstimator` derives ``get_params()`` / ``set_params()`` /
``clone()`` from that contract by introspecting the ``__init__``
signature (the sklearn recipe), which is what lets
:mod:`repro.evaluation` and :mod:`repro.ml.crossval` re-instantiate a
fresh, unfitted copy of any estimator without knowing its class.
"""

from __future__ import annotations

import inspect
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["Estimator", "BaseEstimator", "clone"]


@runtime_checkable
class Estimator(Protocol):
    """Structural type of every classifier in the package."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "Estimator": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...

    def get_params(self) -> dict: ...

    def set_params(self, **params) -> "Estimator": ...


class BaseEstimator:
    """Mixin deriving sklearn-style parameter handling from ``__init__``.

    Subclasses must store every constructor argument verbatim under the
    same attribute name; resolved or derived state goes under another
    name (``RPMClassifier`` keeps its compiled pattern bank as
    ``_bank``, say).
    """

    @classmethod
    def _param_names(cls) -> tuple[str, ...]:
        """Constructor argument names, in signature order."""
        signature = inspect.signature(cls.__init__)
        return tuple(
            name
            for name, parameter in signature.parameters.items()
            if name != "self"
            and parameter.kind
            in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        )

    def get_params(self) -> dict:
        """Constructor arguments as a ``{name: current value}`` dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        """Update constructor arguments in place; returns ``self``.

        Unknown names raise immediately — a typo must not silently
        create a dead attribute.
        """
        valid = self._param_names()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def clone(self) -> "BaseEstimator":
        """A fresh, unfitted estimator with identical configuration."""
        return type(self)(**self.get_params())


def clone(estimator):
    """Fresh, unfitted copy of any estimator following the protocol.

    Works on :class:`BaseEstimator` subclasses and on anything exposing
    a ``clone()`` method or a ``get_params()`` dict.
    """
    method = getattr(estimator, "clone", None)
    if callable(method):
        return method()
    getter = getattr(estimator, "get_params", None)
    if callable(getter):
        return type(estimator)(**getter())
    raise TypeError(
        f"cannot clone {type(estimator).__name__}: it exposes neither "
        f"clone() nor get_params()"
    )
