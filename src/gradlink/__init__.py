"""gradlink: a desk-scale testbed for de-anonymizing shuffled federated
learning updates by gradient fingerprinting, with a DP-SGD defense."""

__version__ = "0.1.0"
