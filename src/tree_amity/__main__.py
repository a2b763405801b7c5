"""Run the command line as ``python -m tree_amity``."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
