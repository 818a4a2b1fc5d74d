"""Wall-clock fleet benchmark for the P-MoVE twin (see README.md)."""
