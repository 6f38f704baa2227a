"""`python -m spdid` runs the `spd-id` command."""

from .cli import main

if __name__ == "__main__":
    main()
