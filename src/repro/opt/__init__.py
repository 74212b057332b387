"""Derivative-free optimization substrate: DIRECT."""

from .direct import DirectResult, direct_minimize

__all__ = ["DirectResult", "direct_minimize"]
