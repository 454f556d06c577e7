"""``python -m hypq``: the same command line as the ``hypq`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
