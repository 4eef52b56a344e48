"""``python -m qmex``: the qmex command line."""

from .cli import main

if __name__ == "__main__":
    main()
