"""python -m ramseykit: the same entry point as the ramseykit script."""

from .cli import main

main()
