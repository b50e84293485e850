"""`python -m irid`: the `irid` command, run from an import path without an install."""

from .cli import main

if __name__ == "__main__":
    main()
