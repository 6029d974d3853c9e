"""Coinductive partiality: delayed computations, fuel, and fixed points."""

from . import delay, semantics
from .delay import *
from .semantics import *
from .fixpoint import Operator, bottom, fix, iterate

__all__ = [*delay.__all__, *semantics.__all__, "Operator", "bottom", "fix", "iterate"]
