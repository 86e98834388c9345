"""Modular, multi-faceted usage evaluation for exploratory model-building systems.

The pipeline: resolve a component hierarchy from the built-in reference
functionality table (``taxonomy``), ingest interaction logs (``telemetry``)
and survey data (``survey``), derive behavioral metrics (``metrics``), build
and load the machine-readable export (``export``), and render static
evaluation cards from it (``cards``).
``synth`` generates seeded fixtures for the whole pipeline and ``cli``
exposes everything as subcommands.
"""

__version__ = "0.1.0"

from .errors import EvalCardsError

__all__ = ["EvalCardsError", "__version__"]
