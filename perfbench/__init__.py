"""Engine benchmark package: see run.py."""
