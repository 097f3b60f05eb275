"""Solvers and numerical certification for ultra-parabolic Kolmogorov-type
equations with two time-like variables and delayed or impulsive sources."""

__version__ = "0.1.0"
