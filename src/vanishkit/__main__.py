"""``python -m vanishkit``: the same command line as the ``vanishkit`` script."""

from .cli import entrypoint

entrypoint()
