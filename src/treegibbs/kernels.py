"""Name of the numeric backend: numpy, the only one the package has."""

#: ``perfbench/run.py:probe`` reads it for the provenance record.
BACKEND = "numpy"
