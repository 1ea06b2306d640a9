"""Run the command-line harness: ``python -m swmac <command> ...``."""

from .cli import run

if __name__ == "__main__":
    run()
