"""``python -m geohom``: the geohom command line."""

from .cli import main

main()
