"""The benchmark of the MNP reproduction; see README.md."""
