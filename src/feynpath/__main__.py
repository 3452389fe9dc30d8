"""``python -m feynpath``: the same command line as the ``feynpath`` script."""

from .cli import main

if __name__ == "__main__":
    main()
