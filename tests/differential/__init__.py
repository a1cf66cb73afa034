"""Golden-pin corpus of checked-in multi-round workloads."""
