"""Uplink cell-free massive MIMO simulator on a daisy-chained radio stripe."""

__version__ = "0.1.0"
