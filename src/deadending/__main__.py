"""`python -m deadending`: the same command line as the `deadending` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
