"""Spectral theory and seeded Monte-Carlo validation for spiked
signal-plus-noise matrices, with eigenvalue-ratio heterogeneity tests.
Each name is imported from its module: ``from spikelab.hetero import calibrate``."""

__version__ = "0.1.0"
