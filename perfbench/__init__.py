"""Two-clock benchmark of the Logical Disk reproduction (see README.md)."""
